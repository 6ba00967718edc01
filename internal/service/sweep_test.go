package service

import (
	"context"
	"math"
	"os"
	"strconv"
	"testing"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/observable"
)

// sweepAnsatz is a small parameterized circuit: RY layer, CX ladder,
// RZ/RX layer — enough structure to exercise tile, global, and
// exchange binding sites on every engine.
func sweepAnsatz(nq int) *circuit.Circuit {
	c := circuit.New(nq, 0)
	for q := 0; q < nq; q++ {
		c.RY(0.1*float64(q+1), q)
	}
	for q := 0; q+1 < nq; q++ {
		c.CX(q, q+1)
	}
	for q := 0; q < nq; q++ {
		c.RZ(0.2*float64(q+1), q)
	}
	return c
}

func angleGrid(nParams, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pt := make([]float64, nParams)
		for j := range pt {
			pt[j] = 0.05*float64(i+1) + 0.01*float64(j)
		}
		pts[i] = pt
	}
	return pts
}

// TestServiceSweepAllEngines: the sweep job kind through the full
// service path on all four engines, differenced against individually
// submitted expectation jobs at the same points — values bit-identical.
func TestServiceSweepAllEngines(t *testing.T) {
	const nq, points = 5, 8
	h := observable.TransverseFieldIsing(nq, 1.0, 0.7)
	for _, tc := range []struct {
		target  backend.Target
		devices int
	}{
		{backend.TargetAer, 1},
		{backend.TargetNvidia, 1},
		{backend.TargetNvidiaMQPU, 2},
		{backend.TargetNvidiaMGPU, 2},
	} {
		t.Run(string(tc.target), func(t *testing.T) {
			c := sweepAnsatz(nq)
			pts := angleGrid(c.NumParams(), points)
			sweepSrv := newTestServer(t, Config{Target: tc.target, Devices: tc.devices, Workers: 2, TileBits: 3})
			res, info, err := sweepSrv.Run(context.Background(), c, SubmitOptions{Hamiltonian: h, SweepPoints: pts})
			if err != nil {
				t.Fatal(err)
			}
			if info.State != StateDone {
				t.Fatalf("info = %+v", info)
			}
			if len(res.SweepValues) != points || res.SweepPoints != points {
				t.Fatalf("%d values / %d points recorded for %d submitted", len(res.SweepValues), res.SweepPoints, points)
			}
			// Individual expectation jobs on a separate server (so the
			// sweep server's caches can't serve them).
			indSrv := newTestServer(t, Config{Target: tc.target, Devices: tc.devices, Workers: 2, TileBits: 3})
			for i, pt := range pts {
				bound, err := c.BindParams(pt)
				if err != nil {
					t.Fatal(err)
				}
				ind, _, err := indSrv.Run(context.Background(), bound, SubmitOptions{Hamiltonian: h})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(res.SweepValues[i]) != math.Float64bits(*ind.ExpValue) {
					t.Fatalf("point %d: sweep %v != individual job %v", i, res.SweepValues[i], *ind.ExpValue)
				}
			}
		})
	}
}

// TestServiceSweepCompileOnce is the compile-once acceptance check: an
// N-point TFIM sweep performs exactly one plan compile, and the same N
// points submitted as individual expectation jobs afterwards still
// compile nothing — every one rebinds the structurally-cached plan to
// bit-identical values. N defaults small for test runs;
// QGEAR_SWEEP_ACCEPTANCE_POINTS=1000 scales it up for make ci-sweep.
func TestServiceSweepCompileOnce(t *testing.T) {
	points := 48
	if v := os.Getenv("QGEAR_SWEEP_ACCEPTANCE_POINTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad QGEAR_SWEEP_ACCEPTANCE_POINTS %q", v)
		}
		points = n
	}
	const nq = 5
	c := sweepAnsatz(nq)
	h := observable.TransverseFieldIsing(nq, 1.0, 0.7)
	pts := angleGrid(c.NumParams(), points)

	s := newTestServer(t, Config{Target: backend.TargetNvidia, Workers: 2, TileBits: 3})
	res, _, err := s.Run(context.Background(), c, SubmitOptions{Hamiltonian: h, SweepPoints: pts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebinds != points || res.SweepCompiles != 0 {
		t.Fatalf("sweep: want %d rebinds / 0 per-point compiles, got %d/%d", points, res.Rebinds, res.SweepCompiles)
	}
	st := s.Stats()
	if st.PlanCacheMisses != 1 {
		t.Fatalf("after the sweep: plan compiles = %d, want exactly 1", st.PlanCacheMisses)
	}

	// The same points as individual expectation jobs: every submission
	// has a distinct exact fingerprint but the same structural one, so
	// the plan cache serves all of them by rebinding — still 1 compile.
	for i, pt := range pts {
		bound, err := c.BindParams(pt)
		if err != nil {
			t.Fatal(err)
		}
		ind, _, err := s.Run(context.Background(), bound, SubmitOptions{Hamiltonian: h})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.SweepValues[i]) != math.Float64bits(*ind.ExpValue) {
			t.Fatalf("point %d: sweep %v != rebound-plan job %v", i, res.SweepValues[i], *ind.ExpValue)
		}
	}
	st = s.Stats()
	if st.PlanCacheMisses != 1 {
		t.Errorf("after %d individual jobs: plan compiles = %d, want still 1", points, st.PlanCacheMisses)
	}
	if st.PlanRebinds < uint64(points) {
		t.Errorf("plan rebinds = %d, want >= %d (one per structural cache hit)", st.PlanRebinds, points)
	}
}

// TestServiceSweepUnderPruning: a pruning server's transform depends on
// the angles, so no plan can be rebound and its sweep and gradient jobs
// compile every point from the source circuit. They still answer what
// backend.RunSweep and backend.RunGradient answer under the server's own
// configuration, bit for bit, and report no rebind. The server knows
// this up front, so they never touch the plan cache: three sweeps and a
// gradient of one circuit leave it empty, with no hit and no miss. Each
// sweep's first point lies below the prune threshold, so pruning really
// drops gates.
func TestServiceSweepUnderPruning(t *testing.T) {
	const nq, points = 4, 6
	c := sweepAnsatz(nq)
	h := observable.TransverseFieldIsing(nq, 1.0, 0.7)
	s := newTestServer(t, Config{Target: backend.TargetNvidia, Workers: 2, TileBits: 3, PruneAngle: 1e-3})
	if s.rebindable {
		t.Fatal("a pruning server reports rebindable plans")
	}

	for k := 0; k < 3; k++ {
		pts := angleGrid(c.NumParams(), points)
		for i := range pts {
			for j := range pts[i] {
				pts[i][j] += 0.3 * float64(k)
			}
		}
		for j := range pts[0] {
			pts[0][j] = 1e-4
		}
		res, _, err := s.Run(context.Background(), c, SubmitOptions{Hamiltonian: h, SweepPoints: pts})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := backend.RunSweep(c, h, pts, s.execOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(res, ref) {
			t.Errorf("sweep %d: %v, backend.RunSweep %v", k, res.SweepValues, ref.SweepValues)
		}
		if res.SweepCompiles != points || res.Rebinds != 0 {
			t.Errorf("sweep %d: %d per-point compiles / %d rebinds, want %d/0", k, res.SweepCompiles, res.Rebinds, points)
		}
	}

	grad, _, err := s.Run(context.Background(), c, SubmitOptions{Hamiltonian: h, Gradient: true})
	if err != nil {
		t.Fatal(err)
	}
	gref, err := backend.RunGradient(c, h, c.ParamValues(), s.execOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswer(grad, gref) {
		t.Errorf("gradient %v at ⟨H⟩ %v, backend.RunGradient %v at %v", grad.Gradient, *grad.ExpValue, gref.Gradient, *gref.ExpValue)
	}
	if want := 1 + 2*c.NumParams(); grad.SweepCompiles != want || grad.Rebinds != 0 {
		t.Errorf("gradient: %d per-point compiles / %d rebinds, want %d/0", grad.SweepCompiles, grad.Rebinds, want)
	}
	if st := s.Stats(); st.PlanCacheMisses != 0 || st.PlanCacheHits != 0 || st.PlanCacheLen != 0 {
		t.Errorf("plan cache misses %d, hits %d, len %d; want no plan compiled or cached",
			st.PlanCacheMisses, st.PlanCacheHits, st.PlanCacheLen)
	}
}
