package qgear_test

import (
	"context"
	"math"
	"testing"

	"qgear"
)

// The public expectation-value surface: RunExpectation on a known
// state, cache-key semantics, and the embedded server path.
func TestPublicRunExpectation(t *testing.T) {
	n := 6
	c := qgear.GHZ(n, false)
	// On GHZ: <Z_i Z_j> = 1 for all pairs, <X_i> = 0, so
	// TFIM(J, g) has energy -J·(n-1).
	h := qgear.TransverseFieldIsing(n, 1.5, 0.8)
	res, err := qgear.RunExpectation(c, h, qgear.RunOptions{Target: qgear.TargetNvidia})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpValue == nil {
		t.Fatal("nil ExpValue")
	}
	want := -1.5 * float64(n-1)
	if math.Abs(*res.ExpValue-want) > 1e-12 {
		t.Fatalf("GHZ TFIM energy %g, want %g", *res.ExpValue, want)
	}

	// Cache keys: same operator spelled differently shares a key;
	// different coefficients do not.
	h2 := qgear.TransverseFieldIsing(n, 1.5, 0.8)
	opts := qgear.RunOptions{Target: qgear.TargetNvidia}
	if qgear.ExpectationCacheKey(c, h, opts) != qgear.ExpectationCacheKey(c, h2, opts) {
		t.Fatal("equal hamiltonians produced different expectation keys")
	}
	h3 := qgear.TransverseFieldIsing(n, 1.5, 0.8000000001)
	if qgear.ExpectationCacheKey(c, h, opts) == qgear.ExpectationCacheKey(c, h3, opts) {
		t.Fatal("different hamiltonians share an expectation key")
	}

	// Compiled reuse: one compile, two observables.
	comp, err := qgear.Compile(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := qgear.RunExpectationCompiled(comp, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if *r1.ExpValue != *res.ExpValue {
		t.Fatal("compiled path differs from one-shot path")
	}
}

func TestPublicServerExpectationJob(t *testing.T) {
	srv, err := qgear.NewServer(qgear.ServerConfig{WorkerPool: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := qgear.GHZ(8, false)
	h := qgear.TransverseFieldIsing(8, 1, 0.5)
	ctx := context.Background()
	res, info, err := srv.Run(ctx, c, qgear.SubmitOptions{Hamiltonian: h})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached || res.ExpValue == nil {
		t.Fatalf("first expectation job: cached=%v res=%+v", info.Cached, res)
	}
	res2, info2, err := srv.Run(ctx, c, qgear.SubmitOptions{Hamiltonian: h})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Cached || *res2.ExpValue != *res.ExpValue {
		t.Fatal("repeat expectation job missed the cache or drifted")
	}
	st := srv.Stats()
	if st.ExpectationJobs != 2 || st.ExpectationExecuted != 1 {
		t.Fatalf("stats: jobs=%d executed=%d", st.ExpectationJobs, st.ExpectationExecuted)
	}
}
