// Package telemetry is the zero-dependency metrics substrate of the
// serving layer: a registry of callback counters and gauges and
// exponential latency histograms with Prometheus text-format
// exposition, plus the per-job stage Trace that travels with backend
// results.
//
// Two metric flavors cover every signal the server produces:
//
//   - callback instruments (CounterFunc, GaugeFunc) are read at scrape
//     time, so counters that already live behind the server's mutex
//     (cache hits, store spills, ...) are exposed without duplicate
//     bookkeeping — /metrics and /v1/stats can never disagree;
//   - histograms are lock-free atomics, cheap enough for per-job hot
//     paths, and share the power-of-two microsecond bucket shape of
//     the service latency histograms, exposed cumulatively in seconds
//     with a proper +Inf bucket.
//
// Exposition never invokes callbacks while holding the registry lock
// (the structure is snapshotted first), so a callback is free to take
// the server mutex even though server code registers metrics and
// observes histograms concurrently with scrapes.
package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels name one series within a metric family. A nil or empty map is
// the unlabeled series.
type Labels map[string]string

// Kind is the exposition type of a metric family.
type Kind int

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; create with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric name: HELP, TYPE, and every label combination
// observed under it.
type family struct {
	name, help string
	kind       Kind
	series     map[string]*series
}

// series is one label combination of a family: fn for a counter or
// gauge family, hist for a histogram family.
type series struct {
	pairs []string // rendered `name="escaped"` pairs, sorted by label name
	fn    func() float64
	hist  *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// renderPairs validates and renders labels as sorted, escaped
// `name="value"` pairs. The joined form keys the series map.
func renderPairs(labels Labels) []string {
	if len(labels) == 0 {
		return nil
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !labelRE.MatchString(k) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]string, len(keys))
	for i, k := range keys {
		pairs[i] = k + `="` + escapeLabelValue(labels[k]) + `"`
	}
	return pairs
}

// escapeLabelValue applies the exposition-format label escapes:
// backslash, double-quote, and newline.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp applies the HELP-line escapes: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// bindSeries resolves the series for (name, labels), creating family
// and series as needed, and invokes bind on it while r.mu is still
// held. Lazy instrument creation must be atomic with the lookup: two
// first-use callers racing on the same series would otherwise each
// allocate an instrument, silently splitting observations between
// them (and the unsynchronized write would race with snapshot()).
// A name reused with a different kind panics — that is a programming
// error, not a runtime condition.
func (r *Registry) bindSeries(name, help string, kind Kind, labels Labels, bind func(*series)) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	pairs := renderPairs(labels)
	key := strings.Join(pairs, ",")
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	s := f.series[key]
	if s == nil {
		s = &series{pairs: pairs}
		f.series[key] = s
	}
	bind(s)
}

// CounterFunc registers a callback-backed counter series: fn is read
// at every scrape and must be monotonically non-decreasing.
// Re-registering the same series replaces the callback.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.bindSeries(name, help, KindCounter, labels, func(s *series) { s.fn = fn })
}

// GaugeFunc registers a callback-backed gauge series, read at every
// scrape. Re-registering the same series replaces the callback.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.bindSeries(name, help, KindGauge, labels, func(s *series) { s.fn = fn })
}

// Histogram returns the histogram for (name, labels), creating it on
// first use. The bucket shape is fixed: power-of-two microsecond
// bounds from 1µs to ~0.5s plus +Inf (see HistogramBuckets).
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	var h *Histogram
	r.bindSeries(name, help, KindHistogram, labels, func(s *series) {
		if s.hist == nil {
			s.hist = &Histogram{}
		}
		h = s.hist
	})
	return h
}

// famSnap/serSnap are the scrape-time copies rendered without the
// registry lock, so callback metrics may take locks of their own.
type famSnap struct {
	name, help string
	kind       Kind
	series     []serSnap
}

type serSnap struct {
	pairs []string
	fn    func() float64
	hist  *Histogram
}

// snapshot copies the registry structure under the lock.
func (r *Registry) snapshot() []famSnap {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]famSnap, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		fs := famSnap{name: f.name, help: f.help, kind: f.kind}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			fs.series = append(fs.series, serSnap{pairs: s.pairs, fn: s.fn, hist: s.hist})
		}
		out = append(out, fs)
	}
	r.mu.Unlock()
	return out
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelBlock renders pairs (plus an optional extra pair, e.g. le=...)
// as the {..} block, or the empty string for the unlabeled series.
func labelBlock(pairs []string, extra string) string {
	if len(pairs) == 0 && extra == "" {
		return ""
	}
	all := pairs
	if extra != "" {
		all = append(append([]string(nil), pairs...), extra)
	}
	return "{" + strings.Join(all, ",") + "}"
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): one HELP and one TYPE line per family,
// families sorted by name, series sorted by label signature,
// histograms rendered cumulatively with le bounds in seconds and a
// final +Inf bucket.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var buf bytes.Buffer
	for _, f := range r.snapshot() {
		if len(f.series) == 0 {
			continue
		}
		fmt.Fprintf(&buf, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&buf, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch {
			case s.hist != nil:
				writeHistogram(&buf, f.name, s.pairs, s.hist.Snapshot())
			case s.fn != nil:
				fmt.Fprintf(&buf, "%s%s %s\n", f.name, labelBlock(s.pairs, ""), formatValue(s.fn()))
			}
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// writeHistogram renders one histogram series: cumulative buckets with
// le in seconds, then _sum (seconds) and _count.
func writeHistogram(buf *bytes.Buffer, name string, pairs []string, d HistogramData) {
	var cum uint64
	for i, c := range d.Counts {
		cum += c
		le := `le="` + formatValue(BucketBoundSeconds(i)) + `"`
		fmt.Fprintf(buf, "%s_bucket%s %d\n", name, labelBlock(pairs, le), cum)
	}
	fmt.Fprintf(buf, "%s_sum%s %s\n", name, labelBlock(pairs, ""), formatValue(float64(d.SumNS)/1e9))
	fmt.Fprintf(buf, "%s_count%s %d\n", name, labelBlock(pairs, ""), d.N)
}

// Handler serves the registry at a /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
}
