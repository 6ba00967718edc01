package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"qgear/internal/backend"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/randcirc"
	"qgear/internal/sampling"
	"qgear/internal/telemetry"
)

// legacyResultWire is the /v1/results body as json.Encoder wrote it
// before the renderer: ResultResponse with its two histogram fields
// shadowed by map-form ones, which encoding/json places last.
type legacyResultWire struct {
	ResultResponse
	Counts      map[string]int   `json:"counts,omitempty"`
	SweepCounts []map[string]int `json:"sweep_counts,omitempty"`
}

// bitstringMap is a histogram in the map form encoding/json wrote.
func bitstringMap(w wireCounts) map[string]int {
	m := make(map[string]int, len(w.counts))
	for idx, n := range w.counts {
		m[sampling.Bitstring(idx, w.qubits)] = n
	}
	return m
}

// encoded is what json.NewEncoder(...).Encode writes for v.
func encoded(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// renderedResult is writeResult's body for w, and encoding/json's for
// its map-form equivalent.
func renderedResult(w resultWire) (got, want []byte, gotErr, wantErr error) {
	j := jsonBuf{}
	j.result(&w)
	legacy := legacyResultWire{ResultResponse: w.ResultResponse}
	if w.Counts != nil {
		legacy.Counts = bitstringMap(*w.Counts)
	}
	for _, sc := range w.SweepCounts {
		legacy.SweepCounts = append(legacy.SweepCounts, bitstringMap(sc))
	}
	want, wantErr = encoded(legacy)
	return append(j.b, '\n'), want, j.err, wantErr
}

// renderedInfo is writeInfo's body for in, and encoding/json's.
func renderedInfo(in JobInfo) (got, want []byte, gotErr, wantErr error) {
	j := jsonBuf{}
	j.jobInfo(&in)
	want, wantErr = encoded(in)
	return append(j.b, '\n'), want, j.err, wantErr
}

// sameRender fails t unless the renderer and encoding/json agree: the
// same bytes, or both refusing the value.
func sameRender(t *testing.T, name string, got, want []byte, gotErr, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: renderer error %v, encoding/json error %v", name, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: bodies differ\n got %s\nwant %s", name, got, want)
	}
}

// edgeFloats are the values where encoding/json's float form switches
// notation or sign.
var edgeFloats = []float64{1e-7, 1e-6, 1e21, 1e20, 5e-324, math.Copysign(0, -1), 0, -1.5e-300, 123456789.125, math.MaxFloat64}

// edgeTexts exercise every escape of the HTML-safe string form.
var edgeTexts = []string{"", "plain", "<script>&amp;</script>", "a\u2028b\u2029c", "bad \xff\xfe utf-8", "\"quote\" \\ \b\f\n\r\t \x00\x1f", "\u00e9 \u2713 \U0001F600"}

// TestRenderMatchesEncodingJSON: for every job kind, each of the three
// views (default, ?top=N, ?full=1) and truncation, with edge floats, the
// result body the renderer writes is byte for byte what encoding/json
// wrote for its map-form equivalent; so is every JobInfo, finished or
// not, whatever its error text.
func TestRenderMatchesEncodingJSON(t *testing.T) {
	const nq = 5
	probs := make([]float64, 1<<nq)
	for i := range probs {
		probs[i] = float64(i%7) / 100
	}
	copy(probs, edgeFloats)
	counts := sampling.Counts{}
	for i := 0; i < 1<<nq; i += 3 {
		counts[uint64(i)] = 1 + i*i
	}
	sparse := sampling.Counts{0: 3, 1<<nq - 1: 9, 6: 1}
	expval := -1.5e-300
	plan := &kernel.PlanStats{TileLocal: 1, Global: 2, Runs: 3, BitSwaps: 4, PermSwaps: 5, ExchangeSegs: 6, RankLocal: 7}
	trace := &telemetry.Trace{Spans: []telemetry.Span{{Stage: "execute", DurationNS: 12345}, {Stage: "<&>", DurationNS: 1}}}
	sweepCounts := make([]sampling.Counts, 20)
	for i := range sweepCounts {
		sweepCounts[i] = sampling.Counts{uint64(i % (1 << nq)): i + 1}
	}
	sweepCounts[3] = nil
	results := map[string]*backend.Result{
		"simulate": {Target: backend.TargetNvidia, Probabilities: probs, Counts: counts, Duration: 1234567 * time.Nanosecond,
			NumQubits: nq, PlanStats: plan, Trace: trace, KernelStats: kernel.Stats{SourceOps: 9, EmittedOps: 8}},
		"simulate sparse": {Target: backend.TargetAer, Probabilities: probs, Counts: sparse, NumQubits: nq, TileBits: 3, Trace: &telemetry.Trace{}},
		"expectation":     {Target: "<target>", ExpValue: &expval, ExpTerms: 4, NumQubits: nq, PlanStats: plan},
		"hamiltonian sweep": {ExpValue: nil, SweepValues: append(append([]float64{}, edgeFloats...), edgeFloats...),
			SweepPoints: 2 * len(edgeFloats), Rebinds: 20, NumQubits: nq},
		"sampling sweep": {SweepCounts: sweepCounts, SweepPoints: len(sweepCounts), SweepCompiles: 2, NumQubits: nq},
		"gradient":       {ExpValue: &expval, Gradient: edgeFloats, NumQubits: nq},
		"empty":          {},
	}
	finished := time.Date(2026, 3, 4, 5, 6, 7, 890, time.FixedZone("X", -(7*3600+30*60)))
	for name, res := range results {
		for _, view := range []struct {
			name string
			k    int
			full bool
		}{{"default", 16, false}, {"top=3", 3, false}, {"top=4096", 4096, false}, {"full", 0, true}} {
			for _, text := range edgeTexts {
				info := JobInfo{ID: text, State: StateDone, Cached: text == ""}
				got, want, gotErr, wantErr := renderedResult(buildResultResponse(info, res, view.k, view.full))
				sameRender(t, name+" "+view.name, got, want, gotErr, wantErr)
			}
		}
	}
	for _, text := range edgeTexts {
		for _, fin := range []*time.Time{nil, &finished} {
			in := JobInfo{ID: "j-1", State: StateFailed, Error: text, SubmittedAt: time.Now(), FinishedAt: fin}
			got, want, gotErr, wantErr := renderedInfo(in)
			sameRender(t, "job info "+text, got, want, gotErr, wantErr)
		}
	}
}

// TestOpPathBodiesMatchEncodingJSON: over HTTP, the 202 submit body, the
// long-poll body and every view of every kind's result are what
// encoding/json wrote for the same values.
func TestOpPathBodiesMatchEncodingJSON(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Target: backend.TargetNvidia, Workers: 1})
	const nq, points = 4, 20
	c := sweepAnsatz(nq)
	circ, ham := FromCircuit(c), FromHamiltonian(observable.TransverseFieldIsing(nq, 1.0, 0.7))
	grid := angleGrid(c.NumParams(), points)
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	for _, req := range []SubmitRequest{
		{Kind: "simulate", Circuit: circ, Shots: 500, Seed: 3},
		{Kind: "simulate", Circuit: circ},
		{Kind: "expectation", Circuit: circ, Hamiltonian: ham},
		{Kind: "sweep", Circuit: circ, Hamiltonian: ham, Points: grid},
		{Kind: "sweep", Circuit: circ, Shots: 100, Seed: 5, Points: grid},
		{Kind: "gradient", Circuit: circ, Hamiltonian: ham},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		posted, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit HTTP %d, %v", req.Kind, resp.StatusCode, err)
		}
		var info JobInfo
		if err := json.Unmarshal(posted, &info); err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{posted, get("/v1/jobs/" + info.ID + "?wait_ms=60000")} {
			var in JobInfo
			if err := json.Unmarshal(b, &in); err != nil {
				t.Fatal(err)
			}
			want, err := encoded(in)
			sameRender(t, req.Kind+" job info", b, want, nil, err)
		}
		done, res, err := s.Lookup(info.ID)
		if err != nil {
			t.Fatalf("%s: %v", req.Kind, err)
		}
		for _, view := range []struct {
			query string
			k     int
			full  bool
		}{{"", 16, false}, {"?top=3", 3, false}, {"?full=1", 0, true}} {
			_, want, _, wantErr := renderedResult(buildResultResponse(done, res, view.k, view.full))
			sameRender(t, req.Kind+view.query, get("/v1/results/"+info.ID+view.query), want, nil, wantErr)
		}
	}
}

// TestRenderRefusesNonFinite: a result holding a value JSON cannot write
// is a 500 internal error with the uniform envelope, never an empty 200.
func TestRenderRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		resp := buildResultResponse(JobInfo{ID: "j-1", State: StateDone}, &backend.Result{ExpValue: &v}, 16, false)
		rec := httptest.NewRecorder()
		writeResult(rec, &resp)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError || e.Error.Code != CodeInternal {
			t.Fatalf("⟨H⟩ %v: HTTP %d %q (%v), want 500 %q", v, rec.Code, rec.Body.Bytes(), err, CodeInternal)
		}
	}
}

func FuzzRenderResult(f *testing.F) {
	var seed []byte
	for _, v := range edgeFloats {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	for kind := byte(0); kind < 5; kind++ {
		for _, text := range edgeTexts {
			f.Add(kind, byte(4), uint16(16), false, seed, text, int64(1e18))
		}
	}
	f.Add(byte(0), byte(12), uint16(3), true, seed, "x", int64(-1))
	f.Add(byte(1), byte(0), uint16(0), false, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))), "", int64(0))
	f.Fuzz(func(t *testing.T, kind, qubits byte, k uint16, full bool, raw []byte, text string, unixNano int64) {
		nq := int(qubits % 13)
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		histogram := func(from int) sampling.Counts {
			c := sampling.Counts{}
			for i := from; i+1 < len(raw); i += 2 {
				c[uint64(raw[i])<<8%(1<<nq)|uint64(raw[i+1])%(1<<nq)] += int(raw[i]) + 1
			}
			return c
		}
		res := &backend.Result{Target: backend.Target(text), NumQubits: nq, Duration: time.Duration(unixNano % 1e12),
			Trace: &telemetry.Trace{Spans: []telemetry.Span{{Stage: text, DurationNS: unixNano}}}}
		switch kind % 5 {
		case 0:
			res.Probabilities, res.Counts = vals, histogram(0)
		case 1:
			if len(vals) > 0 {
				res.ExpValue, res.ExpTerms = &vals[0], len(vals)
			}
		case 2:
			res.SweepValues, res.SweepPoints, res.Rebinds = vals, len(vals), len(raw)
		case 3:
			for i := 0; i < len(raw)%7; i++ {
				res.SweepCounts = append(res.SweepCounts, histogram(i))
			}
			res.SweepPoints, res.SweepCompiles = len(res.SweepCounts), int(kind)
		case 4:
			res.Gradient, res.PlanStats = vals, &kernel.PlanStats{Global: len(vals), RankLocal: int(k)}
		}
		info := JobInfo{ID: text, State: JobState(text), Cached: full, Error: text, SubmittedAt: time.Unix(0, unixNano)}
		got, want, gotErr, wantErr := renderedResult(buildResultResponse(info, res, int(k%4097)+1, full))
		sameRender(t, "result", got, want, gotErr, wantErr)
		if unixNano%2 == 0 {
			fin := time.Unix(unixNano/7, unixNano%1e9).In(time.FixedZone("Z", int(unixNano%(30*3600))))
			info.FinishedAt = &fin
		}
		got, want, gotErr, wantErr = renderedInfo(info)
		sameRender(t, "job info", got, want, gotErr, wantErr)
	})
}

// discardWriter is a ResponseWriter that keeps one header map and counts
// the body, so that a handler's own allocations can be counted.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// serveMixResult submits serve_mix's simulate shape (12 qubits, 100
// blocks, 1000 shots) to s and returns the finished job's id.
func serveMixResult(t testing.TB, s *Server) string {
	t.Helper()
	c, err := randcirc.Generate(randcirc.Spec{Qubits: 12, Blocks: 100, Seed: 7, Measure: true})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Submit(c, SubmitOptions{Shots: 1000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if info, err = s.WaitFor(info.ID, time.Minute); err != nil || info.State != StateDone {
		t.Fatalf("job %s: %v %s", info.ID, err, info.Error)
	}
	return info.ID
}

// leastAllocs is the least number of allocations one call of fn made
// over several warm calls: under the race detector sync.Pool drops
// objects at random, so a mean counts the drops.
func leastAllocs(fn func()) uint64 {
	fn()
	allocs := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 12; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	return allocs
}

// handlerAllocs is leastAllocs of one request to h, and the response's
// status.
func handlerAllocs(h http.Handler, target string) (allocs uint64, code int) {
	w := &discardWriter{header: http.Header{}}
	r := httptest.NewRequest(http.MethodGet, target, nil)
	return leastAllocs(func() { h.ServeHTTP(w, r) }), w.code
}

// TestResultHandlerAllocBound: fetching serve_mix's simulate result
// allocates the snapshot, the top-k list and its one bitstring string —
// no encoder, no per-key string, no boxed heap entry — and a long poll
// of a finished job little more than its snapshot.
func TestResultHandlerAllocBound(t *testing.T) {
	s := newTestServer(t, Config{})
	id := serveMixResult(t, s)
	h := s.Handler()
	for _, tc := range []struct {
		target string
		bound  uint64
	}{
		{"/v1/results/" + id, 10},
		{"/v1/jobs/" + id + "?wait_ms=30000", 4},
	} {
		allocs, code := handlerAllocs(h, tc.target)
		t.Logf("GET %s: %d allocations", tc.target, allocs)
		if code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", tc.target, code)
		}
		if allocs > tc.bound {
			t.Errorf("GET %s: %d allocations, want at most %d", tc.target, allocs, tc.bound)
		}
	}
}

// BenchmarkResultRender times GET /v1/results of serve_mix's simulate
// shape in process: the handler, the top-k and the histogram rendered
// into the pooled buffer.
func BenchmarkResultRender(b *testing.B) {
	s := newTestServer(b, Config{})
	h := s.Handler()
	w := &discardWriter{header: http.Header{}}
	r := httptest.NewRequest(http.MethodGet, "/v1/results/"+serveMixResult(b, s), nil)
	h.ServeHTTP(w, r)
	b.SetBytes(int64(w.n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, r)
	}
}
