package service

import (
	"context"
	"math"
	"testing"

	"qgear/internal/backend"
	"qgear/internal/circuit"
)

// TestPlanCacheReusedAcrossSubmissions checks the compiled-plan cache:
// resubmitting a known circuit with different shot options misses the
// result cache (different content address) but reuses the compiled
// TilePlan, and the replayed plan produces the identical distribution.
func TestPlanCacheReusedAcrossSubmissions(t *testing.T) {
	srv := newTestServer(t, Config{
		Target:     backend.TargetNvidia,
		Workers:    2,
		WorkerPool: 1,
		TileBits:   4, // force real planning on the 8-qubit circuit
		MaxBatch:   1, // no coalescing: each submission resolves the plan itself
	})

	c := circuit.GHZ(8, false)
	c.RY(0.3, 3).CX(3, 7)

	var probs [][]float64
	for i, opts := range []SubmitOptions{
		{},                   // probabilities only
		{Shots: 64, Seed: 1}, // different content address, same circuit
		{Shots: 64, Seed: 2}, // and again
	} {
		res, _, err := srv.Run(context.Background(), c, opts)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if res.PlanStats == nil || res.TileBits != 4 {
			t.Fatalf("submission %d: expected a planned run (tile=4), got tile=%d stats=%v", i, res.TileBits, res.PlanStats)
		}
		probs = append(probs, res.Probabilities)
	}

	st := srv.Stats()
	if st.PlanCacheMisses != 1 {
		t.Errorf("plan cache misses = %d, want 1 (one fingerprint)", st.PlanCacheMisses)
	}
	if st.PlanCacheHits < 2 {
		t.Errorf("plan cache hits = %d, want >= 2", st.PlanCacheHits)
	}
	if st.PlanCacheLen != 1 {
		t.Errorf("plan cache len = %d, want 1", st.PlanCacheLen)
	}
	// The cached plan must replay to the identical distribution.
	for i := 1; i < len(probs); i++ {
		for j := range probs[0] {
			if math.Abs(probs[0][j]-probs[i][j]) != 0 {
				t.Fatalf("submission %d: cached-plan distribution differs at %d", i, j)
			}
		}
	}

	// A different circuit gets its own plan cache entry.
	c2 := circuit.GHZ(8, false)
	c2.RZ(0.7, 0)
	if _, _, err := srv.Run(context.Background(), c2, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.PlanCacheLen != 2 || st.PlanCacheMisses != 2 {
		t.Errorf("after second circuit: len=%d misses=%d, want 2/2", st.PlanCacheLen, st.PlanCacheMisses)
	}
}

// TestPlanCacheDisabled ensures PlanCacheSize < 0 keeps everything a
// miss without breaking execution.
func TestPlanCacheDisabled(t *testing.T) {
	srv := newTestServer(t, Config{
		Target:        backend.TargetNvidia,
		Workers:       1,
		WorkerPool:    1,
		TileBits:      4,
		PlanCacheSize: -1,
		MaxBatch:      1,
	})
	c := circuit.GHZ(8, false)
	for seed := uint64(0); seed < 2; seed++ {
		if _, _, err := srv.Run(context.Background(), c, SubmitOptions{Shots: 16, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.PlanCacheHits != 0 || st.PlanCacheLen != 0 {
		t.Errorf("disabled plan cache recorded hits=%d len=%d", st.PlanCacheHits, st.PlanCacheLen)
	}
	if st.PlanCacheMisses != 2 {
		t.Errorf("misses = %d, want 2", st.PlanCacheMisses)
	}
}
