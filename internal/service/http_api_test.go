package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"qgear/internal/backend"
	"qgear/internal/observable"
	"qgear/internal/sampling"
)

// The PR-9 API surface: polymorphic job kinds, the uniform error
// envelope, and the wait_ms long-poll.

func decodeError(t *testing.T, resp *http.Response) ErrorResponse {
	t.Helper()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body did not parse as the error envelope: %v", err)
	}
	return e
}

// errorEnvelopeRows are TestHTTPErrorEnvelopeGolden's cases; the
// /v1/jobs bodies among them also seed FuzzSubmitEnvelope.
var errorEnvelopeRows = []struct {
	name   string
	method string
	path   string
	body   string
	status int
	code   string
}{
	{"bad json", "POST", "/v1/jobs", `{`, http.StatusBadRequest, CodeInvalidRequest},
	{"unknown kind", "POST", "/v1/jobs", `{"kind":"warp"}`, http.StatusBadRequest, CodeInvalidRequest},
	// "kind" is required: an otherwise valid body without one is
	// refused, not guessed at.
	{"missing kind", "POST", "/v1/jobs", `{"qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n","shots":32,"seed":1}`, http.StatusBadRequest, CodeInvalidRequest},
	{"unknown field", "POST", "/v1/jobs", `{"kind":"simulate","bogus":1}`, http.StatusBadRequest, CodeInvalidRequest},
	{"missing circuit", "POST", "/v1/jobs", `{"kind":"simulate"}`, http.StatusBadRequest, CodeInvalidRequest},
	{"sweep without points", "POST", "/v1/jobs", `{"kind":"sweep","qasm":"OPENQASM 2.0;\nqreg q[1];\nrx(0.5) q[0];\n"}`, http.StatusBadRequest, CodeInvalidRequest},
	{"job not found", "GET", "/v1/jobs/j-missing", "", http.StatusNotFound, CodeNotFound},
	{"result not found", "GET", "/v1/results/j-missing", "", http.StatusNotFound, CodeNotFound},
	{"bad wait_ms", "GET", "/v1/jobs/j-x?wait_ms=banana", "", http.StatusBadRequest, CodeInvalidRequest},
	{"method", "GET", "/v1/jobs", "", http.StatusMethodNotAllowed, CodeInvalidRequest},
	// Strictness beyond encoding/json's Decoder, which accepts all three:
	// bytes after the envelope, a repeated key (it would merge two
	// "circuit" members), and a key matching only after case folding.
	{"trailing data", "POST", "/v1/jobs", `{"kind":"simulate","qasm":"OPENQASM 2.0;\nqreg q[1];\nh q[0];\n"} {"kind":"simulate"}`, http.StatusBadRequest, CodeInvalidRequest},
	{"duplicate key", "POST", "/v1/jobs", `{"kind":"simulate","circuit":{"qubits":1},"circuit":{"ops":[{"gate":"h","qubits":[0]}]}}`, http.StatusBadRequest, CodeInvalidRequest},
	{"case-folded key", "POST", "/v1/jobs", `{"KIND":"simulate","qasm":"OPENQASM 2.0;\nqreg q[1];\nh q[0];\n"}`, http.StatusBadRequest, CodeInvalidRequest},
	// Two finite terms whose ⟨H⟩ on |0⟩, 2e308, has no JSON form: refused
	// at submit, not answered later with an empty result.
	{"overflowing hamiltonian", "POST", "/v1/jobs", `{"kind":"expectation","circuit":{"qubits":1,"ops":[{"gate":"id","qubits":[0]}]},` +
		`"hamiltonian":{"qubits":1,"terms":[{"coef":1e308},{"coef":1e308,"paulis":[{"q":0,"p":"Z"}]}]}}`, http.StatusBadRequest, CodeInvalidRequest},
}

// TestHTTPErrorEnvelopeGolden: every failure mode answers with the
// exact {"error":{"code","message",...}} JSON shape and its documented
// machine-readable code.
func TestHTTPErrorEnvelopeGolden(t *testing.T) {
	_, ts := newHTTPServer(t, Config{})

	for _, tc := range errorEnvelopeRows {
		var resp *http.Response
		var err error
		if tc.method == "POST" {
			resp, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		} else {
			resp, err = http.Get(ts.URL + tc.path)
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		e := decodeError(t, resp)
		resp.Body.Close()
		if e.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Error.Code, tc.code)
		}
		if e.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
		if tc.code != CodeQueueFull && e.Error.RetryAfterMs != 0 {
			t.Errorf("%s: unexpected retry_after_ms %d", tc.name, e.Error.RetryAfterMs)
		}
	}
}

// TestHTTPQueueFullEnvelope: 429 carries both the Retry-After header
// and retry_after_ms inside the envelope.
func TestHTTPQueueFullEnvelope(t *testing.T) {
	s, started, release, _ := newHeldServer(t, Config{WorkerPool: 1, MaxBatch: 1, QueueSize: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// The first job holds the one worker in ExecHook until the queue has
	// refused one, the second fills the one queue slot, the third must
	// be refused: on any core count, GOMAXPROCS=1 included.
	post := func(i int) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"kind":"simulate","qasm":"OPENQASM 2.0;\nqreg q[4];\nh q[%d];\n","shots":1,"seed":%d}`, i%4, i)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := 0; i < 2; i++ {
		resp := post(i)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d, want %d", i, resp.StatusCode, http.StatusAccepted)
		}
		if i == 0 {
			<-started
		}
	}
	resp := post(2)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 2 with the worker held and the queue full: HTTP %d, want %d", resp.StatusCode, http.StatusTooManyRequests)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfterSeconds {
		t.Errorf("429 Retry-After %q, want %q", got, retryAfterSeconds)
	}
	e := decodeError(t, resp)
	if e.Error.Code != CodeQueueFull {
		t.Fatalf("429 code %q, want %q", e.Error.Code, CodeQueueFull)
	}
	if e.Error.RetryAfterMs <= 0 {
		t.Fatalf("429 envelope without retry_after_ms: %+v", e.Error)
	}
	release()
}

// TestHTTPLongPoll: GET /v1/jobs/{id}?wait_ms blocks until the job
// finishes (or the clamped budget runs out) instead of demanding a
// busy-poll loop.
func TestHTTPLongPoll(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Target: backend.TargetNvidia, Workers: 1, MaxWaitMs: 2000})
	req := SubmitRequest{
		Kind: "simulate",
		QASM: "OPENQASM 2.0;\nqreg q[12];\nh q[0];\ncx q[0],q[1];\n",
	}
	info, status := postJob(t, ts.URL, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", status)
	}
	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "?wait_ms=1500")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll: HTTP %d", resp.StatusCode)
	}
	var got JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone && time.Since(start) < 1200*time.Millisecond {
		t.Fatalf("long-poll returned %q after only %v", got.State, time.Since(start))
	}
	// A negative budget is invalid_request.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "?wait_ms=-5")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative wait_ms: HTTP %d, want 400", resp2.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPResultWireCompat: each view of each kind's result carries one
// histogram per sampled point the view keeps, and none without shots.
// TestOpPathBodiesMatchEncodingJSON holds the bodies' bytes.
func TestHTTPResultWireCompat(t *testing.T) {
	s := newTestServer(t, Config{Target: backend.TargetNvidia, Workers: 1})
	const nq, points = 4, 20
	c := sweepAnsatz(nq)
	ham := observable.TransverseFieldIsing(nq, 1.0, 0.7)
	grid := angleGrid(c.NumParams(), points)
	for _, tc := range []struct {
		name       string
		opts       SubmitOptions
		histograms int // in the full view
	}{
		{"simulate", SubmitOptions{Shots: 500, Seed: 3}, 1},
		{"simulate without shots", SubmitOptions{}, 0},
		{"expectation", SubmitOptions{Hamiltonian: ham}, 0},
		{"hamiltonian sweep", SubmitOptions{Hamiltonian: ham, SweepPoints: grid}, 0},
		{"sampling sweep", SubmitOptions{Shots: 100, Seed: 5, SweepPoints: grid}, points},
		{"gradient", SubmitOptions{Hamiltonian: ham, Gradient: true}, 0},
	} {
		res, info, err := s.Run(context.Background(), c, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, view := range []struct {
			k    int
			full bool
		}{{16, false}, {3, false}, {0, true}} {
			w := buildResultResponse(info, res, view.k, view.full)
			got := len(w.SweepCounts)
			if w.Counts != nil {
				got++
			}
			want := tc.histograms
			if !view.full {
				want = min(want, view.k)
			}
			if got != want {
				t.Fatalf("%s, top %d, full %v: %d histograms, want %d", tc.name, view.k, view.full, got, want)
			}
		}
	}
}

// TestRenderHistogramAllocationBudget: building and writing the result
// of a 1000-outcome 12-qubit histogram takes a handful of allocations,
// not one string and one map entry per key.
func TestRenderHistogramAllocationBudget(t *testing.T) {
	counts := make(sampling.Counts, 1000)
	for i := 0; i < 1000; i++ {
		counts[uint64(i*4+i%3)] = 1 + i%17
	}
	res := &backend.Result{NumQubits: 12, Counts: counts}
	w := &discardWriter{header: http.Header{}}
	allocs := leastAllocs(func() {
		resp := buildResultResponse(JobInfo{ID: "j-1", State: StateDone}, res, 16, false)
		writeResult(w, &resp)
	})
	t.Logf("rendering a 1000-key histogram: %v allocations", allocs)
	if w.code != http.StatusOK {
		t.Fatalf("rendering a 1000-key histogram: HTTP %d", w.code)
	}
	if allocs > 8 {
		t.Fatalf("rendering a 1000-key histogram: %v allocations, want <= 8", allocs)
	}
}

// TestQueryGetMatchesQuery: queryGet reads a raw query as
// url.Values.Get reads the map ParseQuery builds from it.
func TestQueryGetMatchesQuery(t *testing.T) {
	for _, raw := range []string{"", "top=3", "full=1&top=3", "top=3&top=4", "top", "top=", "=3&top=5", "&&top=7&",
		"top=%33", "t%6fp=3", "top=3;full=1", "top=+3", "top=3%", "x=1&top=2=3", "wait_ms=5000", "wait_ms=5%"} {
		u := &url.URL{RawQuery: raw}
		for _, key := range []string{"top", "full", "wait_ms"} {
			if got, want := queryGet(u, key), u.Query().Get(key); got != want {
				t.Errorf("%q, %s: %q, want %q", raw, key, got, want)
			}
		}
	}
}
