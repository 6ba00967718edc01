package service

import (
	"context"
	"testing"

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

// TestExpectationEndToEnd: an expectation job's cache key is the
// operator, not its spelling — a term-reordered, map-rebuilt Hamiltonian
// hits — and a different observable on the same circuit misses the
// result cache but reuses the compiled plan. What every kind's result
// says, and that an identical resubmission hits, is TestKindConformance's.
func TestExpectationEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{WorkerPool: 2})
	ctx := context.Background()
	c := expTestCircuit(0, 8)
	h := expTestHamiltonian(8)
	if _, _, err := s.Run(ctx, c, SubmitOptions{Hamiltonian: h}); err != nil {
		t.Fatal(err)
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
}
