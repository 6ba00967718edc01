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
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
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

// pollDone long-polls a job until it is done or failed.
func pollDone(t *testing.T, base, id string) JobInfo {
	t.Helper()
	info, err := pollJob(base, id)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// pollJob long-polls a job until it is done or failed: the server holds
// each request until the job finishes or its wait budget runs out. It
// reports failure as an error, not through t, so client goroutines can
// call it.
func pollJob(base, id string) (JobInfo, error) {
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait_ms=60000")
		if err != nil {
			return JobInfo{}, err
		}
		var info JobInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || info.State == StateDone || info.State == StateFailed {
			return info, err
		}
	}
	return JobInfo{}, fmt.Errorf("job %s did not finish", id)
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
				if _, err := submitAndAwait(ts.URL, SubmitRequest{Kind: "simulate", Circuit: circs[i]}, false); err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
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
	var wave1, wave2 Stats
	getJSON(t, ts.URL+"/v1/stats", &wave1)
	if wave1.Submitted != clients {
		t.Fatalf("wave 1 submitted %d, want %d", wave1.Submitted, clients)
	}

	runWave()
	getJSON(t, ts.URL+"/v1/stats", &wave2)
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

// TestHTTPResultShapes: a QASM Bell job's default view carries its
// top outcomes and counts but not the probability vector, which
// ?full=1 adds.
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
	var rr, full ResultResponse
	getJSON(t, ts.URL+"/v1/results/"+info.ID, &rr)
	if rr.NumQubits != 2 || len(rr.Top) != 2 || len(rr.Counts) != 2 || len(rr.Probabilities) != 0 {
		t.Fatalf("default view %+v", rr)
	}
	getJSON(t, ts.URL+"/v1/results/"+info.ID+"?full=1", &full)
	if len(full.Probabilities) != 4 {
		t.Fatalf("full vector has %d entries", len(full.Probabilities))
	}
}

// TestHTTPErrors: submissions TestHTTPErrorEnvelopeGolden's rows do not
// cover — both circuit forms, an unknown gate, a qubit out of range —
// are 400s.
func TestHTTPErrors(t *testing.T) {
	_, ts := newHTTPServer(t, Config{})
	for _, tc := range []struct{ name, body string }{
		{"both forms", `{"kind":"simulate","qasm":"x","circuit":{"qubits":1,"ops":[]}}`},
		{"bad gate", `{"kind":"simulate","circuit":{"qubits":1,"clbits":0,"ops":[{"gate":"warp","qubits":[0]}]}}`},
		{"bad qubit", `{"kind":"simulate","circuit":{"qubits":1,"clbits":0,"ops":[{"gate":"h","qubits":[4]}]}}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestHTTPResultPending covers the not-finished path: a queued job's
// result endpoint answers 202 with the job snapshot. The first job holds
// the one worker, so the second is still queued when its result is
// asked for, on any core count.
func TestHTTPResultPending(t *testing.T) {
	s, started, release, _ := newHeldServer(t, Config{WorkerPool: 1, MaxBatch: 1, QueueSize: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	info1, code := postJob(t, ts.URL, SubmitRequest{Kind: "simulate", Circuit: FromCircuit(circuit.GHZ(6, false))})
	if code != http.StatusAccepted {
		t.Fatalf("HTTP %d", code)
	}
	<-started
	info2, code := postJob(t, ts.URL, SubmitRequest{Kind: "simulate", Circuit: FromCircuit(circuit.GHZ(7, false))})
	if code != http.StatusAccepted {
		t.Fatalf("HTTP %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/results/" + info2.ID)
	if err != nil {
		t.Fatal(err)
	}
	var pending JobInfo
	err = json.NewDecoder(resp.Body).Decode(&pending)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || pending.ID != info2.ID || pending.State != StateQueued {
		t.Fatalf("pending result: HTTP %d, %+v (%v); want 202 with the queued job", resp.StatusCode, pending, err)
	}
	release()
	pollDone(t, ts.URL, info1.ID)
	pollDone(t, ts.URL, info2.ID)
}
