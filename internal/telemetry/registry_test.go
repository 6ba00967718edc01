package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_ops_total", "Operations.", Labels{"kind": "read"}, func() float64 { return 4 })
	r.GaugeFunc("test_depth", "Depth.", nil, func() float64 { return 5 })
	out := render(t, r)
	for _, want := range []string{
		"# HELP test_ops_total Operations.\n",
		"# TYPE test_ops_total counter\n",
		`test_ops_total{kind="read"} 4` + "\n",
		"# TYPE test_depth gauge\n",
		"test_depth 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestHelpTypePairing asserts every family is announced exactly once:
// one HELP line and one TYPE line, HELP first, before any of its
// samples — the format contract scrapers depend on.
func TestHelpTypePairing(t *testing.T) {
	r := NewRegistry()
	one := func() float64 { return 1 }
	r.CounterFunc("a_total", "A.", Labels{"x": "1"}, one)
	r.CounterFunc("a_total", "A.", Labels{"x": "2"}, one)
	r.GaugeFunc("b", "B.", nil, one)
	r.Histogram("c_seconds", "C.", nil).Observe(time.Millisecond)
	out := render(t, r)

	seenHelp := map[string]int{}
	seenType := map[string]int{}
	sampleSeen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name := strings.Fields(rest)[0]
			seenHelp[name]++
			if sampleSeen[name] {
				t.Errorf("HELP for %s after its samples", name)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name := strings.Fields(rest)[0]
			seenType[name]++
			if seenHelp[name] == 0 {
				t.Errorf("TYPE for %s before HELP", name)
			}
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		name = strings.TrimSuffix(name, "_bucket")
		name = strings.TrimSuffix(name, "_sum")
		name = strings.TrimSuffix(name, "_count")
		sampleSeen[name] = true
		if seenType[name] != 1 {
			t.Errorf("sample %q not preceded by exactly one TYPE (%d)", line, seenType[name])
		}
	}
	for _, name := range []string{"a_total", "b", "c_seconds"} {
		if seenHelp[name] != 1 || seenType[name] != 1 {
			t.Errorf("family %s: HELP x%d TYPE x%d, want 1 and 1", name, seenHelp[name], seenType[name])
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("esc_total", "Escapes.", Labels{"path": "a\\b\"c\nd"}, func() float64 { return 1 })
	out := render(t, r)
	want := `esc_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("escaped series %q missing in:\n%s", want, out)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("h", "line one\nline two \\ done", nil, func() float64 { return 1 })
	out := render(t, r)
	if !strings.Contains(out, `# HELP h line one\nline two \\ done`) {
		t.Errorf("HELP escaping wrong in:\n%s", out)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", Labels{"stage": "execute"})
	h.Observe(1 * time.Microsecond)   // boundary: le=1µs is inclusive -> bucket 0
	h.Observe(3 * time.Microsecond)   // (2,4]µs -> bucket 2
	h.Observe(100 * time.Millisecond) // 1e5 µs -> bucket 17
	h.Observe(time.Hour)              // overflow
	out := render(t, r)

	// Cumulative buckets: the +Inf bucket equals _count.
	if !strings.Contains(out, `lat_seconds_bucket{le="+Inf",stage="execute"} 4`) &&
		!strings.Contains(out, `lat_seconds_bucket{stage="execute",le="+Inf"} 4`) {
		t.Errorf("+Inf bucket missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds_count{stage="execute"} 4`) {
		t.Errorf("_count missing:\n%s", out)
	}
	if !strings.Contains(out, "lat_seconds_sum{") {
		t.Errorf("_sum missing:\n%s", out)
	}
	// Cumulative monotonicity across rendered buckets.
	var last uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
	if last != 4 {
		t.Errorf("final cumulative bucket = %d, want 4", last)
	}
}

// TestHistogramBoundaryInclusive pins the le semantics: an observation
// of exactly 2^i µs belongs to bucket i (Prometheus upper bounds are
// inclusive), and the next-larger duration starts bucket i+1.
func TestHistogramBoundaryInclusive(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond)                     // sub-µs (truncates to 0µs) -> bucket 0
	h.Observe(1 * time.Microsecond)                      // exactly 2^0 µs -> bucket 0
	h.Observe(2 * time.Microsecond)                      // exactly 2^1 µs -> bucket 1
	h.Observe(3 * time.Microsecond)                      // (2,4]µs -> bucket 2
	h.Observe(4 * time.Microsecond)                      // exactly 2^2 µs -> bucket 2
	h.Observe(5 * time.Microsecond)                      // (4,8]µs -> bucket 3
	h.Observe(time.Duration(1<<19) * time.Microsecond)   // exactly the largest finite bound
	h.Observe(time.Duration(1<<19+1) * time.Microsecond) // one past it -> overflow
	d := h.Snapshot()
	want := map[int]uint64{0: 2, 1: 1, 2: 2, 3: 1, HistogramBuckets - 1: 1, HistogramBuckets: 1}
	for i, c := range d.Counts {
		if c != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, c, want[i])
		}
	}
}

func TestBucketBounds(t *testing.T) {
	bounds := BucketUpperBoundsUS()
	if len(bounds) != HistogramBuckets+1 {
		t.Fatalf("len(bounds) = %d, want %d", len(bounds), HistogramBuckets+1)
	}
	if bounds[0] != 1 {
		t.Errorf("bounds[0] = %v, want 1", bounds[0])
	}
	if !math.IsInf(bounds[HistogramBuckets], 1) {
		t.Errorf("final bound = %v, want +Inf", bounds[HistogramBuckets])
	}
	for i := 1; i < HistogramBuckets; i++ {
		if bounds[i] != 2*bounds[i-1] {
			t.Errorf("bounds[%d] = %v, want %v", i, bounds[i], 2*bounds[i-1])
		}
	}
	if !math.IsInf(BucketBoundSeconds(HistogramBuckets), 1) {
		t.Errorf("BucketBoundSeconds(overflow) = %v, want +Inf", BucketBoundSeconds(HistogramBuckets))
	}
	if got, want := BucketBoundSeconds(0), 1e-6; math.Abs(got-want) > 1e-12 {
		t.Errorf("BucketBoundSeconds(0) = %v, want %v", got, want)
	}
}

// TestMonotonicAcrossScrapes differentiates two scrapes: a counter
// series must never decrease between them, and the histogram count
// must grow with observations.
func TestMonotonicAcrossScrapes(t *testing.T) {
	r := NewRegistry()
	var backing float64
	r.CounterFunc("cb_total", "Callback.", nil, func() float64 { return backing })
	h := r.Histogram("mono_seconds", "Mono latency.", nil)

	parse := func(out, name string) float64 {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, name+" ") {
				var v float64
				fmt.Sscanf(line[len(name)+1:], "%g", &v)
				return v
			}
		}
		t.Fatalf("series %s missing in:\n%s", name, out)
		return 0
	}

	backing = 5
	h.Observe(time.Millisecond)
	out1 := render(t, r)
	backing = 9
	h.Observe(time.Millisecond)
	out2 := render(t, r)

	for _, name := range []string{"cb_total", "mono_seconds_count"} {
		v1, v2 := parse(out1, name), parse(out2, name)
		if v2 < v1 {
			t.Errorf("%s decreased across scrapes: %v -> %v", name, v1, v2)
		}
	}
	if parse(out2, "cb_total") != 9 || parse(out2, "mono_seconds_count") != 2 {
		t.Errorf("unexpected counter values in second scrape:\n%s", out2)
	}
}

// TestConcurrentObserveScrape exercises the registry under -race:
// writers register callback counters and gauges and hammer histograms
// (including lazy series creation) while readers scrape, so the
// callbacks run concurrently with their own re-registration.
func TestConcurrentObserveScrape(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := float64(i)
				r.CounterFunc("race_total", "R.", Labels{"w": fmt.Sprint(w)}, func() float64 { return v })
				r.GaugeFunc("race_gauge", "R.", nil, func() float64 { return v })
				r.Histogram("race_seconds", "R.", Labels{"stage": fmt.Sprint(i % 3)}).Observe(time.Microsecond * time.Duration(i%100+1))
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestCallbackReplacedOnReregister(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("cb", "C.", nil, func() float64 { return 1 })
	r.GaugeFunc("cb", "C.", nil, func() float64 { return 2 })
	if out := render(t, r); !strings.Contains(out, "cb 2\n") {
		t.Errorf("re-registered callback not replaced:\n%s", out)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("k_total", "K.", nil, func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("reusing a counter name as gauge did not panic")
		}
	}()
	r.GaugeFunc("k_total", "K.", nil, func() float64 { return 0 })
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("h_total", "H.", nil, func() float64 { return 1 })
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	resp2, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 405 {
		t.Errorf("POST /metrics = %d, want 405", resp2.StatusCode)
	}
}

func TestTrace(t *testing.T) {
	tr := &Trace{}
	tr.Add(StageQueueWait, 2*time.Millisecond)
	tr.Add(StageExecute, 5*time.Millisecond)
	tr.Add(StageSample, 0)             // dropped
	tr.Add(StageReadout, -time.Second) // dropped
	if len(tr.Spans) != 2 {
		t.Fatalf("len(spans) = %d, want 2", len(tr.Spans))
	}
	if tr.Sum() != 7*time.Millisecond {
		t.Errorf("sum = %v, want 7ms", tr.Sum())
	}
	var nilTrace *Trace
	if nilTrace.Sum() != 0 {
		t.Error("nil trace helpers not nil-safe")
	}
	other := &Trace{}
	other.Append(tr)
	other.Append(nil)
	if other.Sum() != tr.Sum() {
		t.Errorf("append sum = %v, want %v", other.Sum(), tr.Sum())
	}
}
