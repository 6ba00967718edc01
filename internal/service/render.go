package service

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"qgear/internal/backend"
	"qgear/internal/kernel"
	"qgear/internal/sampling"
	"qgear/internal/telemetry"
)

// The op path's three 2xx bodies — the JobInfo of a submit or a poll and
// the /v1/results body — are appended into one pooled buffer, byte for
// byte what json.NewEncoder(w).Encode wrote for them (trailing newline,
// HTML escaping, encoding/json's float and time.Time forms), and sent
// with one Write. The cold routes keep writeJSON.

// maxPooledRespBuf is the largest response buffer returned to respBufs,
// so that one full 2^n probability vector does not stay pinned.
const maxPooledRespBuf = 1 << 20

var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// jsonContentType is the Content-Type header value of every JSON body.
// net/http only reads a header's values, so one slice serves them all.
var jsonContentType = []string{"application/json"}

// writeInfo sends a job snapshot with the given status.
func writeInfo(w http.ResponseWriter, code int, info *JobInfo) {
	bp := respBufs.Get().(*[]byte)
	j := jsonBuf{b: (*bp)[:0]}
	j.jobInfo(info)
	send(w, code, bp, &j)
}

// writeResult sends a finished job's result.
func writeResult(w http.ResponseWriter, r *resultWire) {
	bp := respBufs.Get().(*[]byte)
	j := jsonBuf{b: (*bp)[:0]}
	j.result(r)
	send(w, http.StatusOK, bp, &j)
}

// send writes the rendered body with its newline, or a 500 when the value
// held something JSON cannot (a non-finite float), and recycles the
// buffer.
func send(w http.ResponseWriter, code int, bp *[]byte, j *jsonBuf) {
	if j.err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, fmt.Errorf("rendering the response: %w", j.err))
	} else {
		j.b = append(j.b, '\n')
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(code)
		_, _ = w.Write(j.b) // a failed write is the client's to see
	}
	if cap(j.b) <= maxPooledRespBuf {
		*bp = j.b
		respBufs.Put(bp)
	}
}

// jsonBuf appends JSON values as encoding/json writes them. err holds
// the first value JSON cannot represent; the bytes are then unusable.
type jsonBuf struct {
	b   []byte
	err error
}

func (j *jsonBuf) raw(s string) { j.b = append(j.b, s...) }

func (j *jsonBuf) int(v int) { j.b = strconv.AppendInt(j.b, int64(v), 10) }

func (j *jsonBuf) bool(v bool) { j.b = strconv.AppendBool(j.b, v) }

// float appends f in encoding/json's form: strconv's shortest digits,
// with an exponent below 1e-6 or from 1e21 up, and no leading zero in a
// negative exponent. NaN and ±Inf have no JSON form and fail.
func (j *jsonBuf) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if j.err == nil {
			j.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	j.b = strconv.AppendFloat(j.b, f, format, -1, 64)
	if n := len(j.b); format == 'e' && n >= 4 && j.b[n-4] == 'e' && j.b[n-3] == '-' && j.b[n-2] == '0' {
		j.b[n-2] = j.b[n-1] // e-07 → e-7
		j.b = j.b[:n-1]
	}
}

func (j *jsonBuf) floats(fs []float64) {
	j.b = append(j.b, '[')
	for k, f := range fs {
		if k > 0 {
			j.b = append(j.b, ',')
		}
		j.float(f)
	}
	j.b = append(j.b, ']')
}

const hexDigits = "0123456789abcdef"

// str appends s as a JSON string the way encoding/json escapes it for
// HTML: quote, backslash and control characters escaped, <, > and & as
// \u003c, \u003e and \u0026, U+2028 and U+2029 as \u2028 and \u2029,
// and each byte of invalid UTF-8 as \ufffd.
func (j *jsonBuf) str(s string) {
	b := append(j.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	j.b = append(append(b, s[start:]...), '"')
}

// time appends t as time.Time.MarshalJSON does: RFC 3339 with
// nanoseconds, failing on a year outside [0, 9999] or a zone offset of
// a day or more, which RFC 3339 cannot write.
func (j *jsonBuf) time(t time.Time) {
	j.b = append(t.AppendFormat(append(j.b, '"'), time.RFC3339Nano), '"')
	if _, off := t.Zone(); t.Year() < 0 || t.Year() > 9999 || off <= -24*60*60 || off >= 24*60*60 {
		if j.err == nil {
			j.err = errors.New("Time.MarshalJSON: timestamp outside RFC 3339")
		}
	}
}

// jobInfo appends a JobInfo with the fields, names and omissions its
// struct tags give it.
func (j *jsonBuf) jobInfo(in *JobInfo) {
	j.raw(`{"id":`)
	j.str(in.ID)
	j.raw(`,"state":`)
	j.str(string(in.State))
	j.raw(`,"cached":`)
	j.bool(in.Cached)
	if in.Error != "" {
		j.raw(`,"error":`)
		j.str(in.Error)
	}
	j.raw(`,"submitted_at":`)
	j.time(in.SubmittedAt)
	if in.FinishedAt != nil {
		j.raw(`,"finished_at":`)
		j.time(*in.FinishedAt)
	}
	j.raw(`}`)
}

// result appends a resultWire as encoding/json laid out its struct: the
// embedded ResultResponse's fields in order, without the two histogram
// fields resultWire shadows, then counts and sweep_counts.
func (j *jsonBuf) result(r *resultWire) {
	j.raw(`{"id":`)
	j.str(r.ID)
	j.raw(`,"state":`)
	j.str(string(r.State))
	j.raw(`,"cached":`)
	j.bool(r.Cached)
	j.raw(`,"target":`)
	j.str(r.Target)
	j.raw(`,"duration_ms":`)
	j.float(r.DurationMS)
	j.raw(`,"num_qubits":`)
	j.int(r.NumQubits)
	if len(r.Top) > 0 {
		j.raw(`,"top":[`)
		for k, t := range r.Top {
			if k > 0 {
				j.b = append(j.b, ',')
			}
			j.raw(`{"index":`)
			j.b = strconv.AppendUint(j.b, t.Index, 10)
			j.raw(`,"bitstring":`)
			j.str(t.Bitstring)
			j.raw(`,"p":`)
			j.float(t.Probability)
			j.b = append(j.b, '}')
		}
		j.b = append(j.b, ']')
	}
	if len(r.Probabilities) > 0 {
		j.raw(`,"probabilities":`)
		j.floats(r.Probabilities)
	}
	j.raw(`,"gate_count":`)
	j.int(r.GateCount)
	j.raw(`,"fused_ops":`)
	j.int(r.FusedOps)
	if r.ExpValue != nil {
		j.raw(`,"expval":`)
		j.float(*r.ExpValue)
	}
	if r.ExpTerms != 0 {
		j.raw(`,"exp_terms":`)
		j.int(r.ExpTerms)
	}
	if r.TileBits != 0 {
		j.raw(`,"tile_bits":`)
		j.int(r.TileBits)
	}
	if r.PlanStats != nil {
		j.raw(`,"plan_stats":`)
		j.planStats(r.PlanStats)
	}
	if r.Trace != nil {
		j.raw(`,"trace":`)
		j.trace(r.Trace)
	}
	if r.SweepPoints != 0 {
		j.raw(`,"sweep_points":`)
		j.int(r.SweepPoints)
	}
	if len(r.SweepValues) > 0 {
		j.raw(`,"sweep_values":`)
		j.floats(r.SweepValues)
	}
	if r.Rebinds != 0 {
		j.raw(`,"rebinds":`)
		j.int(r.Rebinds)
	}
	if r.SweepCompiles != 0 {
		j.raw(`,"sweep_compiles":`)
		j.int(r.SweepCompiles)
	}
	if len(r.Gradient) > 0 {
		j.raw(`,"gradient":`)
		j.floats(r.Gradient)
	}
	if r.Truncated {
		j.raw(`,"truncated":true`)
	}
	if r.Counts != nil {
		j.raw(`,"counts":`)
		j.counts(r.Counts.counts, r.Counts.qubits)
	}
	if len(r.SweepCounts) > 0 {
		j.raw(`,"sweep_counts":[`)
		for k, c := range r.SweepCounts {
			if k > 0 {
				j.b = append(j.b, ',')
			}
			j.counts(c.counts, c.qubits)
		}
		j.b = append(j.b, ']')
	}
	j.b = append(j.b, '}')
}

func (j *jsonBuf) planStats(p *kernel.PlanStats) {
	j.raw(`{"tile_local_gates":`)
	j.int(p.TileLocal)
	j.raw(`,"global_sweeps":`)
	j.int(p.Global)
	j.raw(`,"runs":`)
	j.int(p.Runs)
	j.raw(`,"bit_swaps":`)
	j.int(p.BitSwaps)
	j.raw(`,"perm_swaps":`)
	j.int(p.PermSwaps)
	j.raw(`,"fused_ops":`)
	j.int(p.FusedOps)
	j.raw(`,"exchange_segments":`)
	j.int(p.ExchangeSegs)
	j.raw(`,"exchange_gates":`)
	j.int(p.ExchangeGates)
	j.raw(`,"rank_local_globals":`)
	j.int(p.RankLocal)
	j.b = append(j.b, '}')
}

func (j *jsonBuf) trace(t *telemetry.Trace) {
	if t.Spans == nil {
		j.raw(`{"spans":null}`)
		return
	}
	j.raw(`{"spans":[`)
	for k, s := range t.Spans {
		if k > 0 {
			j.b = append(j.b, ',')
		}
		j.raw(`{"stage":`)
		j.str(s.Stage)
		j.raw(`,"ns":`)
		j.b = strconv.AppendInt(j.b, s.DurationNS, 10)
		j.b = append(j.b, '}')
	}
	j.raw(`]}`)
}

// maxDenseHistQubits bounds the register a histogram is ordered over by
// a bitmap: 2^16 outcomes, a 512 KiB value table.
const maxDenseHistQubits = 16

// histScratch is the pooled working memory of ordering one histogram.
type histScratch struct {
	// seen has a bit per outcome, all clear between uses; vals holds each
	// seen outcome's count. Both are carved from one allocation.
	seen, vals []uint64
	keys       []uint64 // the sorted outcomes, when the bitmap is not used
}

var histScratches = sync.Pool{New: func() any { return new(histScratch) }}

// counts appends one histogram as the JSON object a map[string]int of its
// bitstrings would be: keys have one width, so ascending outcome order is
// encoding/json's sorted key order. Where the register's 2^n outcomes
// are at most 8 per entry (and n ≤ maxDenseHistQubits), a bitmap over
// them orders the entries with no comparison sort.
func (j *jsonBuf) counts(c sampling.Counts, nq int) {
	h := histScratches.Get().(*histScratch)
	j.b = append(j.b, '{')
	if nq <= maxDenseHistQubits && 1<<nq <= 8*len(c) && h.dense(c, nq) {
		first := true
		for w, word := range h.seen {
			for ; word != 0; word &= word - 1 {
				i := uint64(w)<<6 | uint64(bits.TrailingZeros64(word))
				j.entry(i, int(h.vals[i]), nq, first)
				first = false
			}
			h.seen[w] = 0
		}
	} else {
		h.keys = h.keys[:0]
		for i := range c {
			h.keys = append(h.keys, i)
		}
		slices.Sort(h.keys)
		for k, i := range h.keys {
			j.entry(i, c[i], nq, k == 0)
		}
		if cap(h.keys) > 1<<maxDenseHistQubits {
			h.keys = nil
		}
	}
	j.b = append(j.b, '}')
	histScratches.Put(h)
}

// dense marks every outcome of c in the bitmap over 2^nq outcomes and
// records its count, or reports false, leaving the bitmap clear, when an
// outcome lies outside the register.
func (h *histScratch) dense(c sampling.Counts, nq int) bool {
	words := (1<<nq + 63) / 64
	if cap(h.seen) < words {
		buf := make([]uint64, 65*words)
		h.seen, h.vals = buf[:words:words], buf[words:]
	}
	h.seen = h.seen[:words]
	for i, n := range c {
		if i>>nq != 0 {
			clear(h.seen)
			return false
		}
		h.seen[i>>6] |= 1 << (i & 63)
		h.vals[i] = uint64(n)
	}
	return true
}

func (j *jsonBuf) entry(i uint64, n, nq int, first bool) {
	if !first {
		j.b = append(j.b, ',')
	}
	j.b = append(sampling.AppendBitstring(append(j.b, '"'), i, nq), '"', ':')
	j.int(n)
}

// resultWire is ResultResponse as the server writes it: every field and
// JSON name of the embedded struct, with the two histogram fields
// shadowed by ones that render straight from sampling.Counts (the
// embedded Counts and SweepCounts stay nil). encoding/json put the
// shadowing fields last, and so does the renderer.
type resultWire struct {
	ResultResponse
	Counts      *wireCounts  `json:"counts,omitempty"`
	SweepCounts []wireCounts `json:"sweep_counts,omitempty"`
}

// wireCounts is one histogram of a result and the width of its keys.
type wireCounts struct {
	counts sampling.Counts
	qubits int
}

// buildResultResponse renders a finished result under the truncation
// rules documented at truncationLimit.
func buildResultResponse(info JobInfo, res *backend.Result, k int, full bool) resultWire {
	resp := resultWire{ResultResponse: ResultResponse{
		ID:            info.ID,
		State:         info.State,
		Cached:        info.Cached,
		Target:        string(res.Target),
		DurationMS:    float64(res.Duration.Microseconds()) / 1e3,
		NumQubits:     res.NumQubits,
		GateCount:     res.KernelStats.SourceOps,
		FusedOps:      res.KernelStats.EmittedOps,
		ExpValue:      res.ExpValue,
		ExpTerms:      res.ExpTerms,
		TileBits:      res.TileBits,
		PlanStats:     res.PlanStats,
		Trace:         res.Trace,
		SweepPoints:   res.SweepPoints,
		Rebinds:       res.Rebinds,
		SweepCompiles: res.SweepCompiles,
	}}
	if len(res.Counts) > 0 {
		resp.Counts = &wireCounts{res.Counts, resp.NumQubits}
	}
	if full {
		resp.Probabilities = res.Probabilities
	} else if len(res.Probabilities) > 0 {
		resp.Top = topProbs(res.Probabilities, k, resp.NumQubits)
	}
	sv, grad, sc := res.SweepValues, res.Gradient, res.SweepCounts
	if !full {
		if len(sv) > k {
			sv, resp.Truncated = sv[:k], true
		}
		if len(grad) > k {
			grad, resp.Truncated = grad[:k], true
		}
		if len(sc) > k {
			sc, resp.Truncated = sc[:k], true
		}
	}
	resp.SweepValues = sv
	resp.Gradient = grad
	if len(sc) > 0 {
		resp.SweepCounts = make([]wireCounts, len(sc))
		for i, cts := range sc {
			resp.SweepCounts[i] = wireCounts{cts, resp.NumQubits}
		}
	}
	return resp
}

// topHeap is a bounded min-heap on (probability, index): the root is
// the current weakest of the kept top-k entries. "Worse" means lower
// probability, ties broken by larger index, so the surviving set (and
// hence the sorted output) matches a full descending sort.
type topHeap []TopProb

func (h topHeap) worse(a, b int) bool {
	if h[a].Probability != h[b].Probability {
		return h[a].Probability < h[b].Probability
	}
	return h[a].Index > h[b].Index
}

func (h topHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worse(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// down sifts h[i] down within h[:n].
func (h topHeap) down(i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.worse(c+1, c) {
			c++
		}
		if !h.worse(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// topProbs returns the k highest-probability basis states in descending
// order (ties broken by index): one O(n log k) pass and a heap sort in
// place, then every bitstring carved from one string.
func topProbs(probs []float64, k int, nq int) []TopProb {
	h := make(topHeap, 0, min(k, len(probs)))
	for i, p := range probs {
		if p == 0 {
			continue
		}
		switch {
		case len(h) < k:
			h = append(h, TopProb{Index: uint64(i), Probability: p})
			h.up(len(h) - 1)
		case h[0].Probability < p || h[0].Probability == p && h[0].Index > uint64(i):
			h[0] = TopProb{Index: uint64(i), Probability: p}
			h.down(0, len(h))
		}
	}
	for n := len(h) - 1; n > 0; n-- { // the weakest left goes last
		h[0], h[n] = h[n], h[0]
		h.down(0, n)
	}
	var sb strings.Builder
	sb.Grow(len(h) * nq)
	for _, t := range h {
		for q := nq - 1; q >= 0; q-- {
			sb.WriteByte('0' + byte(t.Index>>uint(q)&1))
		}
	}
	all := sb.String()
	for i := range h {
		h[i].Bitstring = all[i*nq : (i+1)*nq]
	}
	return h
}
