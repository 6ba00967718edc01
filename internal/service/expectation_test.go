package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/observable"
)

// Expectation-value jobs through the service, cache, and store —
// mirroring the PR-4 result-path acceptance tests for the new job
// kind: end-to-end evaluation, content-addressed cache hits keyed by
// (fingerprint, hamiltonian hash, options), single-flight dedup of
// concurrent identical jobs, warm restarts answering from disk
// bit-identically, and corrupt-artifact quarantine with transparent
// re-simulation.

func expTestCircuit(i, qubits int) *circuit.Circuit {
	c := circuit.GHZ(qubits, false)
	c.Name = "exp-test"
	c.RZ(1e-5*float64(i+1), 0)
	return c
}

func expTestHamiltonian(n int) *observable.Hamiltonian {
	return observable.TransverseFieldIsing(n, 1.0, 0.7)
}

func TestExpectationEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{WorkerPool: 2})
	ctx := context.Background()
	c := expTestCircuit(0, 8)
	h := expTestHamiltonian(8)

	res, info, err := s.Run(ctx, c, SubmitOptions{Hamiltonian: h})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Fatal("first expectation job reported cached")
	}
	if res.ExpValue == nil || res.ExpTerms != len(h.Terms) {
		t.Fatalf("bad expectation result: %+v", res)
	}
	if res.Probabilities != nil || res.Counts != nil {
		t.Fatal("expectation job materialized a readout")
	}
	// Independent reference through the pipeline.
	ref, err := backend.RunExpectation(c, h, s.execOptions())
	if err != nil {
		t.Fatal(err)
	}
	if *res.ExpValue != *ref.ExpValue {
		t.Fatalf("service ⟨H⟩ %.17g != standalone %.17g", *res.ExpValue, *ref.ExpValue)
	}

	// Repeat submission: a content-addressed cache hit, bit-identical.
	res2, info2, err := s.Run(ctx, c, SubmitOptions{Hamiltonian: h})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Cached {
		t.Fatal("repeat expectation job was re-simulated")
	}
	if *res2.ExpValue != *res.ExpValue {
		t.Fatal("cached ⟨H⟩ differs")
	}
	// A term-reordered, map-rebuilt spelling of the same operator is
	// the same cache key.
	reordered := &observable.Hamiltonian{NumQubits: h.NumQubits}
	for i := len(h.Terms) - 1; i >= 0; i-- {
		reordered.Add(observable.NewTerm(h.Terms[i].Coef, h.Terms[i].Ops))
	}
	_, info3, err := s.Run(ctx, c, SubmitOptions{Hamiltonian: reordered})
	if err != nil {
		t.Fatal(err)
	}
	if !info3.Cached {
		t.Fatal("canonically equal hamiltonian missed the cache")
	}
	// A different observable on the same circuit misses the result
	// cache but reuses the compiled plan.
	before := s.Stats()
	zz := observable.TransverseFieldIsing(8, 1.0, 0)
	_, info4, err := s.Run(ctx, c, SubmitOptions{Hamiltonian: zz})
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if info4.Cached {
		t.Fatal("different hamiltonian served from the result cache")
	}
	if after.PlanCacheHits <= before.PlanCacheHits {
		t.Fatal("second observable on the same circuit did not reuse the compiled plan")
	}
	if after.ExpectationJobs != 4 || after.ExpectationExecuted != 2 {
		t.Fatalf("expectation counters: jobs=%d executed=%d", after.ExpectationJobs, after.ExpectationExecuted)
	}
}

func TestExpectationSingleFlight(t *testing.T) {
	// A slow-ish circuit plus many concurrent identical submissions:
	// exactly one evaluation runs, everyone shares its outcome.
	s := newTestServer(t, Config{WorkerPool: 2, QueueSize: 64})
	c := expTestCircuit(1, 12)
	h := expTestHamiltonian(12)
	ctx := context.Background()

	const clients = 24
	var wg sync.WaitGroup
	vals := make([]float64, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := s.Run(ctx, c, SubmitOptions{Hamiltonian: h})
			if err != nil {
				errs[i] = err
				return
			}
			vals[i] = *res.ExpValue
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if vals[i] != vals[0] {
			t.Fatalf("client %d saw a different ⟨H⟩", i)
		}
	}
	st := s.Stats()
	if st.ExpectationExecuted != 1 {
		t.Fatalf("%d evaluations ran for %d identical submissions", st.ExpectationExecuted, clients)
	}
	if st.CacheHits+st.SingleFlightHits != clients-1 {
		t.Fatalf("hits %d+%d, want %d", st.CacheHits, st.SingleFlightHits, clients-1)
	}
}

// TestExpectationWarmRestart is the acceptance criterion: kill a
// server with -store-dir, restart on the same directory, and repeat
// (fingerprint, H-hash) submissions answer from disk with
// bit-identical ⟨H⟩ and zero simulations.
func TestExpectationWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StoreDir: dir, WorkerPool: 1, MaxBatch: 1, TileBits: 4}
	ctx := context.Background()
	h := expTestHamiltonian(8)

	s1, err := New(pinHost(cfg))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 4)
	for i := range want {
		res, _, err := s1.Run(ctx, expTestCircuit(i, 8), SubmitOptions{Hamiltonian: h})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *res.ExpValue
	}
	if err := s1.Close(); err != nil { // kill: spills expectation artifacts
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	for i := range want {
		res, info, err := s2.Run(ctx, expTestCircuit(i, 8), SubmitOptions{Hamiltonian: h})
		if err != nil {
			t.Fatal(err)
		}
		if !info.Cached {
			t.Fatalf("expectation job %d re-simulated after restart", i)
		}
		if res.ExpValue == nil || *res.ExpValue != want[i] {
			t.Fatalf("job %d: restarted ⟨H⟩ not bit-identical", i)
		}
	}
	st := s2.Stats()
	if st.Executed != 0 || st.StoreHits != 4 {
		t.Fatalf("executed=%d storeHits=%d after restart, want 0/4", st.Executed, st.StoreHits)
	}
}

// TestExpectationCorruptArtifactQuarantine flips bytes in a persisted
// expectation artifact: the restarted server must reject it, drop it,
// and transparently fall back to a fresh evaluation with the correct
// value.
func TestExpectationCorruptArtifactQuarantine(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StoreDir: dir, WorkerPool: 1, MaxBatch: 1}
	ctx := context.Background()
	c := expTestCircuit(0, 8)
	h := expTestHamiltonian(8)

	s1, err := New(pinHost(cfg))
	if err != nil {
		t.Fatal(err)
	}
	res1, _, err := s1.Run(ctx, c, SubmitOptions{Hamiltonian: h})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt every result artifact on disk.
	files, err := filepath.Glob(filepath.Join(dir, "results", "*", "*.qgr"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no artifacts to corrupt (err %v)", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := len(raw) / 2; i < len(raw)/2+8 && i < len(raw); i++ {
			raw[i] ^= 0xff
		}
		if err := os.WriteFile(f, raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newTestServer(t, cfg)
	res2, info, err := s2.Run(ctx, c, SubmitOptions{Hamiltonian: h})
	if err != nil {
		t.Fatal(err)
	}
	if *res2.ExpValue != *res1.ExpValue {
		t.Fatalf("fallback ⟨H⟩ %.17g != original %.17g", *res2.ExpValue, *res1.ExpValue)
	}
	st := s2.Stats()
	if st.Executed != 1 {
		t.Fatalf("corrupt artifact should force exactly one re-evaluation, got %d", st.Executed)
	}
	if st.StoreErrors == 0 {
		t.Fatal("corruption not counted")
	}
	if info.Cached {
		t.Fatal("corrupt-artifact fallback still reported cached")
	}
}

func TestExpectationSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	c := expTestCircuit(0, 4)
	if _, err := s.Submit(c, SubmitOptions{Hamiltonian: expTestHamiltonian(4), Shots: 100}); err == nil {
		t.Fatal("expectation job with shots accepted")
	}
	if _, err := s.Submit(c, SubmitOptions{Hamiltonian: expTestHamiltonian(9)}); err == nil {
		t.Fatal("oversized hamiltonian accepted")
	}
	bad := &observable.Hamiltonian{NumQubits: 4}
	bad.Add(observable.NewTerm(math.NaN(), map[int]observable.Pauli{0: observable.Z}))
	if _, err := s.Submit(c, SubmitOptions{Hamiltonian: bad}); err == nil {
		t.Fatal("NaN hamiltonian accepted")
	}
	// Mutating the caller's Hamiltonian after Submit must not poison
	// the cache (deep copy).
	ctx := context.Background()
	good := expTestHamiltonian(4)
	res1, _, err := s.Run(ctx, c, SubmitOptions{Hamiltonian: good})
	if err != nil {
		t.Fatal(err)
	}
	good.Terms[0].Ops[0] = observable.X // caller mutation
	res2, info, err := s.Run(ctx, c, SubmitOptions{Hamiltonian: expTestHamiltonian(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached || *res2.ExpValue != *res1.ExpValue {
		t.Fatal("caller mutation leaked into the cached hamiltonian")
	}
}

// TestExpectationHTTP drives the job kind through the real JSON API.
func TestExpectationHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := expTestCircuit(0, 6)
	h := expTestHamiltonian(6)

	submit := func(req SubmitRequest) (*http.Response, JobInfo) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var info JobInfo
		_ = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		return resp, info
	}

	resp, info := submit(SubmitRequest{
		Kind: "expectation", Circuit: FromCircuit(c), Hamiltonian: FromHamiltonian(h),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	ctx := context.Background()
	if _, err := s.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/v1/results/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var out ResultResponse
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if out.ExpValue == nil || out.ExpTerms != len(h.Terms) {
		t.Fatalf("result response missing expval: %+v", out)
	}
	if len(out.Top) != 0 || len(out.Counts) != 0 {
		t.Fatal("expectation response carries probabilities/counts")
	}
	ref, err := backend.RunExpectation(c, h, s.execOptions())
	if err != nil {
		t.Fatal(err)
	}
	if *out.ExpValue != *ref.ExpValue {
		t.Fatalf("HTTP ⟨H⟩ %.17g != reference %.17g", *out.ExpValue, *ref.ExpValue)
	}

	// Wire-format validation errors.
	for _, bad := range []SubmitRequest{
		{Kind: "expectation", Circuit: FromCircuit(c)},                               // missing hamiltonian
		{Kind: "simulate", Circuit: FromCircuit(c), Hamiltonian: FromHamiltonian(h)}, // contradictory
		{Kind: "bogus", Circuit: FromCircuit(c)},                                     // unknown kind
		{Kind: "expectation", Circuit: FromCircuit(c), Hamiltonian: &WireHamiltonian{Qubits: 6, Terms: []WireTerm{{Coef: 1, Paulis: []WirePauli{{Q: 0, P: "Q"}}}}}}, // bad pauli
	} {
		resp, _ := submit(bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %+v: HTTP %d", bad, resp.StatusCode)
		}
	}
}
