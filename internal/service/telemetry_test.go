package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qgear/internal/circuit"
	"qgear/internal/telemetry"
)

// TestHistogramSnapshotGoldenJSON pins the wire form of a latency
// histogram: the overflow bound marshals as the string "+Inf", not the
// old -1 sentinel, and the bounds round-trip.
func TestHistogramSnapshotGoldenJSON(t *testing.T) {
	h := &telemetry.Histogram{}
	h.Observe(1 * time.Microsecond) // exactly the le=1µs bound: inclusive, bucket 0
	h.Observe(3 * time.Microsecond)
	snap := snapshotHistogram(h)

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	golden := `{"upper_bounds_us":[1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384,32768,65536,131072,262144,524288,"+Inf"],` +
		`"counts":[1,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"count":2,"mean_us":2}`
	if string(data) != golden {
		t.Errorf("snapshot JSON drifted:\n got %s\nwant %s", data, golden)
	}

	var back HistogramSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.UpperBoundsUS[len(back.UpperBoundsUS)-1], 1) {
		t.Errorf("round-trip lost the +Inf overflow bound: %v", back.UpperBoundsUS)
	}
}

// TestBoundsUnmarshal: numbers decode verbatim (no value is a sentinel
// for the overflow bucket) and other strings than "+Inf" are refused.
// TestHistogramSnapshotGoldenJSON round-trips "+Inf".
func TestBoundsUnmarshal(t *testing.T) {
	var b BoundsUS
	if err := json.Unmarshal([]byte(`[1,2,-1]`), &b); err != nil {
		t.Fatal(err)
	}
	if b[2] != -1 {
		t.Errorf("-1 rewritten to %v", b[2])
	}
	if err := json.Unmarshal([]byte(`["nope"]`), &b); err == nil {
		t.Error("garbage bound accepted")
	}
}

// TestTraceWithinWall asserts the tentpole's core accounting invariant:
// for a freshly executed (non-cached) job, the stage spans are
// sequential and non-overlapping, so their sum is bounded by the job's
// measured wall time.
func TestTraceWithinWall(t *testing.T) {
	s := newTestServer(t, Config{WorkerPool: 1})
	c := circuit.GHZ(8, false)

	res, info, err := s.Run(context.Background(), c, SubmitOptions{Shots: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Fatal("first submission reported cached")
	}
	if res.Trace == nil || len(res.Trace.Spans) == 0 {
		t.Fatal("fresh execution carries no trace")
	}
	wall := info.FinishedAt.Sub(info.SubmittedAt)
	if sum := res.Trace.Sum(); sum > wall {
		t.Errorf("trace sum %v exceeds wall %v (spans: %+v)", sum, wall, res.Trace.Spans)
	}
	stages := map[string]bool{}
	for _, sp := range res.Trace.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{telemetry.StageCompile, telemetry.StageExecute} {
		if !stages[want] {
			t.Errorf("trace missing %s span: %+v", want, res.Trace.Spans)
		}
	}

	// A repeat submission is a cache hit: it shares the original
	// execution's trace (flagged Cached), same span set.
	res2, info2, err := s.Run(context.Background(), c, SubmitOptions{Shots: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Cached {
		t.Fatal("repeat submission not served from cache")
	}
	if res2.Trace != res.Trace {
		t.Error("cached result does not share the original trace")
	}
}

// TestExpectationTrace checks the expectation path records its
// reduction stage.
func TestExpectationTrace(t *testing.T) {
	s := newTestServer(t, Config{})
	c := circuit.GHZ(6, false)
	res, info, err := s.Run(context.Background(), c, SubmitOptions{Hamiltonian: expTestHamiltonian(6)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("expectation result carries no trace")
	}
	var hasReduce bool
	for _, sp := range res.Trace.Spans {
		if sp.Stage == telemetry.StageExpectation {
			hasReduce = true
		}
	}
	if !hasReduce {
		t.Errorf("no %s span in %+v", telemetry.StageExpectation, res.Trace.Spans)
	}
	if sum := res.Trace.Sum(); sum > info.FinishedAt.Sub(info.SubmittedAt) {
		t.Errorf("trace sum %v exceeds wall", sum)
	}
}

// TestMetricsEndpoint drives jobs through the HTTP API and checks the
// /metrics exposition against /v1/stats: the build info, the executed
// and cache-hit series, and one latency family per Stats latency path.
// TestLoadMixedTraffic holds the other families and the job totals.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newHTTPServer(t, Config{})

	// Two fresh jobs plus one repeat (a result-cache hit).
	for i, seed := range []uint64{1, 2, 1} {
		c := circuit.GHZ(7, false)
		if i == 1 {
			c.RZ(0.25, 0)
		}
		if _, err := submitAndAwait(ts.URL, SubmitRequest{Kind: "simulate", Circuit: FromCircuit(c), Shots: 16, Seed: seed}, false); err != nil {
			t.Fatal(err)
		}
	}

	metrics := fetchText(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "# TYPE qgear_build_info gauge") {
		t.Error("/metrics missing the qgear_build_info family")
	}
	var st Stats
	if err := json.Unmarshal([]byte(fetchText(t, ts.URL+"/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"qgear_jobs_executed_total":              float64(st.Executed),
		`qgear_cache_hits_total{cache="result"}`: float64(st.CacheHits),
		`qgear_cache_hits_total{cache="plan"}`:   float64(st.PlanCacheHits),
	}
	for series, want := range checks {
		got, ok := metricValue(metrics, series)
		if !ok {
			t.Errorf("/metrics missing series %s", series)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, /v1/stats says %v", series, got, want)
		}
	}
	if v, ok := metricValue(metrics, `qgear_build_info{version="`+Version+`"}`); !ok || v != 1 {
		t.Errorf("build info series wrong: %v %v", v, ok)
	}

	// The per-path latency family mirrors the Stats latency map.
	for path, snap := range st.Latency {
		series := `qgear_job_duration_seconds_count{path="` + path + `"}`
		got, ok := metricValue(metrics, series)
		if !ok || got != float64(snap.Count) {
			t.Errorf("%s = %v ok=%v, stats count %d", series, got, ok, snap.Count)
		}
	}
}

// TestLoadMixedTraffic is the service load gate (`make ci-load`): 50
// concurrent HTTP clients, each submitting six jobs back to back —
// every third an expectation job, the simulate seeds cycling so a
// client repeats itself — against a result cache too small for the
// working set and a live store, so eviction, spill and store-hit paths
// all run under real concurrency; then one repeat of a result the load
// evicted to the store must be a store hit. Afterwards /metrics must
// expose every required family, agree with /v1/stats on the job totals,
// and show that hits, evictions and store hits all moved.
func TestLoadMixedTraffic(t *testing.T) {
	const (
		clients  = 50
		requests = 6
		qubits   = 14 // 128 KiB of probabilities per result: ~16 fit the budget
	)
	s, ts := newHTTPServer(t, Config{
		WorkerPool:    2,
		QueueSize:     256,
		MaxCacheBytes: 2 << 20,
		StoreDir:      t.TempDir(),
	})

	ham := FromHamiltonian(expTestHamiltonian(qubits))
	var traced atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A client-specific phase twist: distinct clients never
			// share a content address, one client's repeats do.
			c := circuit.GHZ(qubits, false)
			c.RZ(1e-6*float64(i+1), 0)
			wire := FromCircuit(c)
			for r := 0; r < requests; r++ {
				req := SubmitRequest{Kind: "simulate", Circuit: wire, Shots: 64, Seed: uint64(r % 4)}
				if r%3 == 2 {
					req = SubmitRequest{Kind: "expectation", Circuit: wire, Hamiltonian: ham}
				}
				// One result fetch per client: traces flow through the API.
				hasTrace, err := submitAndAwait(ts.URL, req, r == 0)
				if err != nil {
					t.Errorf("client %d request %d: %v", i, r, err)
					return
				}
				if hasTrace {
					traced.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := traced.Load(); got != clients {
		t.Errorf("traced results = %d, want one per client (%d)", got, clients)
	}

	// Whether a repeat during the load found its evicted result on disk
	// or still in the spill lookaside is the clients' timing. Once the
	// spill backlog has drained, a simulate job whose result was evicted
	// and spilled must come back from the store.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		backlog := len(s.pendingSpills)
		s.mu.Unlock()
		if backlog == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d spills still pending after 10 s", backlog)
		}
	}
	var spilled *SubmitRequest
	for i := 0; i < clients && spilled == nil; i++ {
		c := circuit.GHZ(qubits, false)
		c.RZ(1e-6*float64(i+1), 0)
		for seed := uint64(0); seed < 4 && spilled == nil; seed++ {
			key := s.key(kindSimulate, c, SubmitOptions{Shots: 64, Seed: seed})
			s.mu.Lock()
			_, cached := s.cache.Get(key)
			s.mu.Unlock()
			if !cached && s.store.HasResult(key) {
				spilled = &SubmitRequest{Kind: "simulate", Circuit: FromCircuit(c), Shots: 64, Seed: seed}
			}
		}
	}
	if spilled == nil {
		t.Fatal("no simulate result was evicted to the store")
	}
	storeHits := s.Stats().StoreHits
	if _, err := submitAndAwait(ts.URL, *spilled, false); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().StoreHits; got != storeHits+1 {
		t.Fatalf("a repeat of a spilled result: store hits %d -> %d, want one more", storeHits, got)
	}

	metrics := fetchText(t, ts.URL+"/metrics")
	for _, fam := range []string{
		"qgear_jobs_submitted_total counter",
		"qgear_jobs_completed_total counter",
		"qgear_cache_hits_total counter",
		"qgear_job_duration_seconds histogram",
		"qgear_stage_duration_seconds histogram",
		"qgear_queue_depth gauge",
		"qgear_panics_recovered_total counter",
		"qgear_jobs_rejected_total counter",
		"qgear_jobs_cancelled_total counter",
		"qgear_state_pool_hits_total counter",
		"qgear_state_pool_misses_total counter",
		"qgear_state_pool_retained_bytes gauge",
		"go_goroutines gauge",
	} {
		if !strings.Contains(metrics, "# TYPE "+fam) {
			t.Errorf("/metrics missing family %q", fam)
		}
	}
	// The scrape and /v1/stats are one set of counters viewed two ways:
	// once every job is terminal the totals must agree exactly.
	var st Stats
	if err := json.Unmarshal([]byte(fetchText(t, ts.URL+"/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if total := clients*requests + 1; st.Submitted != uint64(total) || st.Completed != uint64(total) || st.Failed != 0 {
		t.Errorf("stats submitted/completed/failed = %d/%d/%d, want %d/%d/0",
			st.Submitted, st.Completed, st.Failed, total, total)
	}
	for series, want := range map[string]uint64{
		"qgear_jobs_submitted_total": st.Submitted,
		"qgear_jobs_completed_total": st.Completed,
		"qgear_jobs_failed_total":    st.Failed,
	} {
		if got, ok := metricValue(metrics, series); !ok || got != float64(want) {
			t.Errorf("%s = %v (present %v), /v1/stats says %d", series, got, ok, want)
		}
	}
	// Repeats hit; the tight budget evicted; evicted repeats came back
	// from disk — the spill path demonstrably ran — and the executions
	// in between recycled their statevectors.
	for _, series := range []string{
		`qgear_cache_hits_total{cache="result"}`,
		`qgear_cache_evictions_total{cache="result"}`,
		`qgear_store_hits_total{kind="result"}`,
		`qgear_state_pool_hits_total`,
	} {
		if got, ok := metricValue(metrics, series); !ok || got <= 0 {
			t.Errorf("%s = %v (present %v), want > 0", series, got, ok)
		}
	}
}

// submitAndAwait pushes one job through the HTTP API to StateDone and,
// when fetch is set, reports whether its result carries a stage trace.
// Failures come back as errors so client goroutines can call it.
func submitAndAwait(base string, req SubmitRequest, fetch bool) (hasTrace bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return false, err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	var info JobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return false, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return false, err
	}
	if info, err = pollJob(base, info.ID); err != nil {
		return false, err
	}
	if info.State != StateDone {
		return false, fmt.Errorf("job %s failed: %s", info.ID, info.Error)
	}
	if !fetch {
		return false, nil
	}
	resp, err = http.Get(base + "/v1/results/" + info.ID)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var rr ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return false, err
	}
	return rr.Trace != nil && len(rr.Trace.Spans) > 0, nil
}

func TestHealthz(t *testing.T) {
	_, ts := newHTTPServer(t, Config{WorkerPool: 3, QueueSize: 17})
	var h HealthResponse
	if err := json.Unmarshal([]byte(fetchText(t, ts.URL+"/v1/healthz")), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != Version {
		t.Errorf("healthz = %+v", h)
	}
	if h.QueueCapacity != 17 || h.Workers != 3 {
		t.Errorf("healthz capacity/workers = %+v", h)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", h.UptimeSeconds)
	}
}

// metricValue extracts one series' value from an exposition body.
func metricValue(metrics, series string) (float64, bool) {
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			return v, err == nil
		}
	}
	return 0, false
}

func fetchText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}
