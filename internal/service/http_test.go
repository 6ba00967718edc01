package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qgear/internal/circuit"
)

func newHTTPServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(pinHost(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, base string, req SubmitRequest) (JobInfo, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	_ = json.NewDecoder(resp.Body).Decode(&info)
	return info, resp.StatusCode
}

// pollDone long-polls a job until it is done or failed: the server
// holds each request until the job finishes or its wait budget runs out.
func pollDone(t *testing.T, base, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait_ms=60000")
		if err != nil {
			t.Fatal(err)
		}
		var info JobInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if info.State == StateDone || info.State == StateFailed {
			return info
		}
	}
	t.Fatalf("job %s did not finish", id)
	return JobInfo{}
}

func getStats(t *testing.T, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHTTPServeGHZ16Waves is the serving-layer acceptance test: 100
// concurrent GHZ-16 submissions through the HTTP API, then a second
// identical wave that must be served from the content-addressed cache
// with a hit rate above 50% as reported by /v1/stats.
func TestHTTPServeGHZ16Waves(t *testing.T) {
	_, ts := newHTTPServer(t, Config{})
	const clients = 100
	circs := make([]*WireCircuit, clients)
	for i := range circs {
		c := circuit.GHZ(16, false)
		c.RZ(1e-6*float64(i+1), 0) // distinct content address per client
		circs[i] = FromCircuit(c)
	}
	runWave := func() {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				info, code := postJob(t, ts.URL, SubmitRequest{Kind: "simulate", Circuit: circs[i]})
				if code != http.StatusAccepted {
					errs <- fmt.Errorf("client %d: HTTP %d", i, code)
					return
				}
				if fin := pollDone(t, ts.URL, info.ID); fin.State != StateDone {
					errs <- fmt.Errorf("client %d: job %s state %q: %s", i, fin.ID, fin.State, fin.Error)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	runWave()
	wave1 := getStats(t, ts.URL)
	if wave1.Submitted != clients {
		t.Fatalf("wave 1 submitted %d, want %d", wave1.Submitted, clients)
	}

	runWave()
	wave2 := getStats(t, ts.URL)
	dHits := (wave2.CacheHits + wave2.SingleFlightHits) - (wave1.CacheHits + wave1.SingleFlightHits)
	dSub := wave2.Submitted - wave1.Submitted
	if dSub != clients {
		t.Fatalf("wave 2 submitted %d, want %d", dSub, clients)
	}
	rate := float64(dHits) / float64(dSub)
	t.Logf("wave 2: %d/%d served without re-simulation (%.0f%%), lifetime hit rate %.0f%%",
		dHits, dSub, rate*100, wave2.HitRate*100)
	if rate <= 0.5 {
		t.Fatalf("second-wave hit rate %.2f, want > 0.5", rate)
	}
	if wave2.Failed != 0 {
		t.Fatalf("%d jobs failed", wave2.Failed)
	}
}

func TestHTTPResultShapes(t *testing.T) {
	_, ts := newHTTPServer(t, Config{})
	qasm := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
`
	info, code := postJob(t, ts.URL, SubmitRequest{Kind: "simulate", QASM: qasm, Shots: 1000, Seed: 5})
	if code != http.StatusAccepted {
		t.Fatalf("submit HTTP %d", code)
	}
	if fin := pollDone(t, ts.URL, info.ID); fin.State != StateDone {
		t.Fatalf("job: %+v", fin)
	}

	resp, err := http.Get(ts.URL + "/v1/results/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rr ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rr.NumQubits != 2 || len(rr.Top) != 2 {
		t.Fatalf("result %+v", rr)
	}
	// Bell state: only 00 and 11 appear.
	total := 0
	for bits, n := range rr.Counts {
		if bits != "00" && bits != "11" {
			t.Fatalf("unexpected outcome %q", bits)
		}
		total += n
	}
	if total != 1000 {
		t.Fatalf("counts total %d", total)
	}
	if len(rr.Probabilities) != 0 {
		t.Fatal("full vector returned without ?full=1")
	}

	resp, err = http.Get(ts.URL + "/v1/results/" + info.ID + "?full=1")
	if err != nil {
		t.Fatal(err)
	}
	var full ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(full.Probabilities) != 4 {
		t.Fatalf("full vector has %d entries", len(full.Probabilities))
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newHTTPServer(t, Config{})

	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"both forms", `{"kind":"simulate","qasm":"x","circuit":{"qubits":1,"ops":[]}}`, http.StatusBadRequest},
		{"bad gate", `{"kind":"simulate","circuit":{"qubits":1,"clbits":0,"ops":[{"gate":"warp","qubits":[0]}]}}`, http.StatusBadRequest},
		{"bad qubit", `{"kind":"simulate","circuit":{"qubits":1,"clbits":0,"ops":[{"gate":"h","qubits":[4]}]}}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	for _, path := range []string{"/v1/jobs/j-missing", "/v1/results/j-missing"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs: HTTP %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
}

// TestHTTPResultPending covers the not-finished path: a queued job's
// result endpoint answers 202 with the job snapshot.
func TestHTTPResultPending(t *testing.T) {
	s, ts := newHTTPServer(t, Config{WorkerPool: 1, MaxBatch: 1, QueueSize: 8})
	// A slow job keeps the worker busy so the next job stays queued.
	slow := circuit.GHZ(18, false)
	for i := 0; i < 40; i++ {
		slow.H(0).H(0)
	}
	info1, code := postJob(t, ts.URL, SubmitRequest{Kind: "simulate", Circuit: FromCircuit(slow)})
	if code != http.StatusAccepted {
		t.Fatalf("HTTP %d", code)
	}
	info2, code := postJob(t, ts.URL, SubmitRequest{Kind: "simulate", Circuit: FromCircuit(circuit.GHZ(6, false))})
	if code != http.StatusAccepted {
		t.Fatalf("HTTP %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/results/" + info2.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("pending result: HTTP %d", resp.StatusCode)
	}
	pollDone(t, ts.URL, info1.ID)
	pollDone(t, ts.URL, info2.ID)
	_ = s
}
