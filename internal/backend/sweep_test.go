package backend

import (
	"math"
	"math/rand"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/observable"
)

// sweepTestCircuit is a small VQE-flavored ansatz: parameterized
// rotations interleaved with an entangling ladder.
func sweepTestCircuit(nq int) *circuit.Circuit {
	c := circuit.New(nq, 0)
	for q := 0; q < nq; q++ {
		c.RY(0.1*float64(q+1), q)
	}
	for q := 0; q+1 < nq; q++ {
		c.CX(q, q+1)
	}
	for q := 0; q < nq; q++ {
		c.RZ(0.2*float64(q+1), q)
		c.RX(0.05*float64(q+1), q)
	}
	return c
}

func sweepTestPoints(nParams, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pt := make([]float64, nParams)
		for j := range pt {
			pt[j] = rng.Float64() * 6
		}
		pts[i] = pt
	}
	return pts
}

// sweepEngines is every engine the differential suite runs, with
// device counts exercising the distributed and device-parallel paths.
var sweepEngines = []Config{
	{Target: TargetAer, Workers: 1},
	{Target: TargetNvidia, Workers: 2, TileBits: 3},
	{Target: TargetNvidiaMQPU, Workers: 2, Devices: 2, TileBits: 3},
	{Target: TargetNvidiaMGPU, Workers: 2, Devices: 2, TileBits: 3},
}

// TestRunSweepDifferential: per-point sweep values must be
// bit-identical to submitting every point as its own expectation job,
// on all four engines — and, since both sides of that run plans, within
// 1e-12 of the oracle's ⟨H⟩ at the point.
func TestRunSweepDifferential(t *testing.T) {
	const nq = 5
	c := sweepTestCircuit(nq)
	sweepDifferential(t, c, observable.TransverseFieldIsing(nq, 1.0, 0.7), sweepTestPoints(c.NumParams(), 12, 21))
}

// TestRunSweepGroupedDiagonals is the differential suite on an ansatz
// whose rz layers and cp ladders are diagonal groups: a group's members
// keep their binding sites, so every point is still a rebind, and the
// rebound table runs bit-identical to a fresh compile of the point.
func TestRunSweepGroupedDiagonals(t *testing.T) {
	const nq = 6
	c := circuit.New(nq, 0)
	for layer := 0; layer < 2; layer++ {
		for q := 0; q < nq; q++ {
			c.RY(0.1*float64(q+1), q)
		}
		for q := 0; q < nq; q++ {
			c.RZ(0.2*float64(q+1), q)
		}
		for q := 0; q+1 < nq; q++ {
			c.CP(0.3, q, q+1)
		}
	}
	sweepDifferential(t, c, observable.TransverseFieldIsing(nq, 1.0, 0.7), sweepTestPoints(c.NumParams(), 8, 22))
}

// sweepDifferential runs the sweep of c on every engine and holds each
// point to an individual expectation job, bit for bit, and to the
// oracle within 1e-12; every point must be a rebind.
func sweepDifferential(t *testing.T, c *circuit.Circuit, h *observable.Hamiltonian, pts [][]float64) {
	t.Helper()
	for _, cfg := range sweepEngines {
		res, err := RunSweep(c, h, pts, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Target, err)
		}
		if len(res.SweepValues) != len(pts) || res.SweepPoints != len(pts) {
			t.Fatalf("%s: %d values for %d points", cfg.Target, len(res.SweepValues), len(pts))
		}
		if res.Rebinds != len(pts) || res.SweepCompiles != 0 {
			t.Errorf("%s: want %d rebinds / 0 compiles, got %d/%d",
				cfg.Target, len(pts), res.Rebinds, res.SweepCompiles)
		}
		for i, pt := range pts {
			bound, err := c.BindParams(pt)
			if err != nil {
				t.Fatal(err)
			}
			ind, err := RunExpectation(bound, h, cfg)
			if err != nil {
				t.Fatalf("%s point %d: %v", cfg.Target, i, err)
			}
			if math.Float64bits(res.SweepValues[i]) != math.Float64bits(*ind.ExpValue) {
				t.Fatalf("%s point %d: sweep value %v != individual job %v",
					cfg.Target, i, res.SweepValues[i], *ind.ExpValue)
			}
			if want := oracleExpectation(bound, h); math.Abs(res.SweepValues[i]-want) > 1e-12 {
				t.Fatalf("%s point %d: sweep value %.17g, oracle %.17g", cfg.Target, i, res.SweepValues[i], want)
			}
		}
	}
}

// TestRunSweepCountsDifferential: sampling sweeps (no Hamiltonian)
// must reproduce, histogram for histogram, individually-submitted jobs
// run at the derived per-point seed.
func TestRunSweepCountsDifferential(t *testing.T) {
	const nq = 4
	c := sweepTestCircuit(nq)
	pts := sweepTestPoints(c.NumParams(), 6, 33)
	for _, base := range sweepEngines {
		cfg := base
		cfg.Shots, cfg.Seed = 256, 99
		res, err := RunSweep(c, nil, pts, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Target, err)
		}
		if len(res.SweepCounts) != len(pts) {
			t.Fatalf("%s: %d histograms for %d points", cfg.Target, len(res.SweepCounts), len(pts))
		}
		for i, pt := range pts {
			bound, err := c.BindParams(pt)
			if err != nil {
				t.Fatal(err)
			}
			icfg := cfg
			icfg.Seed = SweepPointSeed(cfg.Seed, i)
			ind, err := Run(bound, icfg)
			if err != nil {
				t.Fatalf("%s point %d: %v", cfg.Target, i, err)
			}
			if len(ind.Counts) != len(res.SweepCounts[i]) {
				t.Fatalf("%s point %d: %d keys vs %d", cfg.Target, i, len(res.SweepCounts[i]), len(ind.Counts))
			}
			for k, n := range ind.Counts {
				if res.SweepCounts[i][k] != n {
					t.Fatalf("%s point %d key %b: sweep %d != individual %d",
						cfg.Target, i, k, res.SweepCounts[i][k], n)
				}
			}
		}
	}
}

// TestRunSweepFallback: a value-dependent transform (pruning) cannot
// rebind — RunSweepCompiled surfaces ErrNotRebindable, RunSweep falls
// back to per-point compiles with identical values.
func TestRunSweepFallback(t *testing.T) {
	const nq = 4
	c := sweepTestCircuit(nq)
	h := observable.TransverseFieldIsing(nq, 1.0, 0.7)
	pts := sweepTestPoints(c.NumParams(), 4, 5)

	exact := Config{Target: TargetNvidia, Workers: 1, TileBits: 3}
	pruned := exact
	pruned.PruneAngle = 1e-3
	if pruned.Rebindable() {
		t.Fatal("pruning config claims rebindable")
	}
	comp, err := Compile(c, pruned)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweepCompiled(comp, h, pts, pruned); err != ErrNotRebindable {
		t.Fatalf("RunSweepCompiled under pruning: %v, want ErrNotRebindable", err)
	}
	res, err := RunSweep(c, h, pts, pruned)
	if err != nil {
		t.Fatal(err)
	}
	if res.SweepCompiles != len(pts) || res.Rebinds != 0 {
		t.Errorf("fallback: want %d compiles / 0 rebinds, got %d/%d",
			len(pts), res.SweepCompiles, res.Rebinds)
	}
	for i, pt := range pts {
		bound, err := c.BindParams(pt)
		if err != nil {
			t.Fatal(err)
		}
		ind, err := RunExpectation(bound, h, pruned)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.SweepValues[i]) != math.Float64bits(*ind.ExpValue) {
			t.Fatalf("fallback point %d: %v != %v", i, res.SweepValues[i], *ind.ExpValue)
		}
	}
}

// TestRunSweepValidation covers the sweep-shape admission rules.
func TestRunSweepValidation(t *testing.T) {
	const nq = 3
	c := sweepTestCircuit(nq)
	h := observable.TransverseFieldIsing(nq, 1.0, 0.7)
	cfg := Config{Target: TargetAer}
	n := c.NumParams()
	good := sweepTestPoints(n, 2, 1)

	if _, err := RunSweep(c, h, nil, cfg); err == nil {
		t.Error("empty sweep accepted")
	}
	bad := [][]float64{make([]float64, n+1)}
	if _, err := RunSweep(c, h, bad, cfg); err == nil {
		t.Error("wrong-arity point accepted")
	}
	if _, err := RunSweep(c, nil, good, cfg); err == nil {
		t.Error("sampling sweep without shots accepted")
	}
	// Hamiltonian sweeps follow the expectation-job convention: Shots
	// and Seed are ignored, never rejected, and never shape the values.
	shotCfg := cfg
	shotCfg.Shots, shotCfg.Seed = 10, 7
	withShots, err := RunSweep(c, h, good, shotCfg)
	if err != nil {
		t.Fatalf("Hamiltonian sweep with shots: %v", err)
	}
	without, err := RunSweep(c, h, good, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		if math.Float64bits(withShots.SweepValues[i]) != math.Float64bits(without.SweepValues[i]) {
			t.Errorf("point %d: shots changed an exact sweep value", i)
		}
	}
}

// TestRunGradient: the parameter-shift gradient must match a central
// finite difference, and the base value must match a plain expectation
// job bit for bit.
func TestRunGradient(t *testing.T) {
	const nq = 4
	c := sweepTestCircuit(nq)
	h := observable.TransverseFieldIsing(nq, 1.0, 0.7)
	base := c.ParamValues()
	cfg := Config{Target: TargetNvidia, Workers: 1, TileBits: 3}

	res, err := RunGradient(c, h, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gradient) != len(base) {
		t.Fatalf("gradient has %d entries for %d params", len(res.Gradient), len(base))
	}
	if res.SweepPoints != 2*len(base)+1 {
		t.Errorf("gradient ran %d points, want %d", res.SweepPoints, 2*len(base)+1)
	}
	ind, err := RunExpectation(c, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(*res.ExpValue) != math.Float64bits(*ind.ExpValue) {
		t.Fatalf("gradient base value %v != expectation job %v", *res.ExpValue, *ind.ExpValue)
	}

	const eps = 1e-5
	for j := range base {
		plus := append([]float64(nil), base...)
		minus := append([]float64(nil), base...)
		plus[j] += eps
		minus[j] -= eps
		cp, err := c.BindParams(plus)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := c.BindParams(minus)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := RunExpectation(cp, h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := RunExpectation(cm, h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fd := (*rp.ExpValue - *rm.ExpValue) / (2 * eps)
		if d := math.Abs(fd - res.Gradient[j]); d > 1e-6 {
			t.Errorf("param %d: parameter-shift %v vs finite difference %v (Δ %g)",
				j, res.Gradient[j], fd, d)
		}
	}
}

// TestRunGradientAtCoefficientBound: the largest coefficient sum
// Hamiltonian.Validate accepts, MaxFloat64/4, on ry(π/2)|0⟩ puts the
// two shifted values at ∓MaxFloat64/4; the gradient, half their
// difference, is finite and exact.
func TestRunGradientAtCoefficientBound(t *testing.T) {
	const c = math.MaxFloat64 / 4
	circ := circuit.New(1, 0)
	circ.RY(math.Pi/2, 0)
	h := &observable.Hamiltonian{NumQubits: 1}
	h.Add(observable.NewTerm(c, map[int]observable.Pauli{0: observable.Z}))
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := RunGradient(circ, h, circ.ParamValues(), Config{Target: TargetNvidia, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g := res.Gradient[0]; math.IsInf(g, 0) || math.Abs(g+c) > c*1e-12 {
		t.Fatalf("gradient %v, want -%v", g, c)
	}
	if v := *res.ExpValue; math.IsInf(v, 0) || math.Abs(v) > c*1e-12 {
		t.Fatalf("⟨H⟩ %v, want about 0", v)
	}
}
