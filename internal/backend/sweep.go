package backend

import (
	"errors"
	"fmt"
	"math"
	"time"

	"qgear/internal/circuit"
	"qgear/internal/observable"
	"qgear/internal/sampling"
	"qgear/internal/telemetry"
)

// Parameter sweeps: one circuit shape, many angle settings. The
// compiled artifact (kernel + TilePlan) is built once and *rebound*
// per point — only the value-derived matrices are patched, with the
// identical gate.Matrix1 derivations a fresh compile makes, so each
// point's output is bit-identical to submitting that point as its own
// job. The mqpu target fans points across its simulated QPUs (the
// circuit-level parallelism of §3, applied to sweep points); every
// other target runs points in order. Per-point results aggregate into
// one artifact: an ⟨H⟩ vector for Hamiltonian sweeps, a histogram
// vector for sampling sweeps. Parameter-shift gradients ride the same
// machinery as a derived 2k+1-point sweep.

// ErrNotRebindable reports a configuration whose transform entangles
// parameter values with kernel structure (angle pruning drops gates by
// their values), so a compiled artifact cannot be rebound to new
// values. Circuit-level sweeps (RunSweep) fall back to compiling every
// point; compiled-only entry points surface it.
var ErrNotRebindable = errors.New("backend: angle pruning entangles parameter values with the kernel; sweep points must compile individually")

// Rebindable reports whether this configuration supports compile-once
// rebinding: no angle pruning. Under it the kernel maps 1:1 from the
// circuit, compiled structure is value-independent and a rebound
// artifact is bit-identical to a fresh compile — the predicate the
// service's structural plan-cache keying is gated on.
func (c Config) Rebindable() bool {
	return c.PruneAngle == 0
}

// BindParams returns a copy of the compiled artifact rebound to a new
// flat parameter vector. Only the plan — what executes — is rebound; the
// kernel, like the plan's structure, is shared with the receiver, which
// stays immutable and safe for concurrent execution.
func (c *Compiled) BindParams(params []float64) (*Compiled, error) {
	p, err := c.Plan.Bind(params)
	if err != nil {
		return nil, err
	}
	return &Compiled{Kernel: c.Kernel, Plan: p, TransformStats: c.TransformStats}, nil
}

// SweepPointSeed derives the sampling seed of sweep point i from the
// job seed. The odd 64-bit golden-gamma stride keeps per-point streams
// disjoint from the per-device stream derivation (+d·0x9e3779b9) the
// mqpu sampler applies within one point; an individually-submitted job
// with this seed reproduces the point's histogram bit for bit.
func SweepPointSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9e3779b97f4a7c15
}

// RunSweep compiles the circuit once and executes it at every
// parameter point. Configurations whose transform is value-dependent
// (pruning) compile every point from the rebound circuit
// instead — same results, none of the compile-once savings.
func RunSweep(c *circuit.Circuit, h *observable.Hamiltonian, points [][]float64, cfg Config) (*Result, error) {
	if !cfg.Target.Valid() {
		return nil, fmt.Errorf("backend: unknown target %q", cfg.Target)
	}
	if !cfg.Rebindable() {
		return runSweepPerPoint(c, h, points, cfg)
	}
	comp, err := Compile(c, cfg)
	if err != nil {
		return nil, err
	}
	return RunSweepCompiled(comp, h, points, cfg)
}

// RunSweepCompiled executes a precompiled circuit at every parameter
// point — the serving layer's path: one cached compile serves the
// whole sweep through per-point rebinds. Returns ErrNotRebindable for
// configurations whose kernel cannot be rebound (callers holding the
// source circuit should fall back to RunSweep).
func RunSweepCompiled(comp *Compiled, h *observable.Hamiltonian, points [][]float64, cfg Config) (*Result, error) {
	if !cfg.Target.Valid() {
		return nil, fmt.Errorf("backend: unknown target %q", cfg.Target)
	}
	if !cfg.Rebindable() {
		return nil, ErrNotRebindable
	}
	if err := validateSweep(h, points, cfg, comp.Kernel.NumParams(), comp.Kernel.NumQubits); err != nil {
		return nil, err
	}
	// Every point patches the compiled plan's value-derived matrices
	// (copy-on-write): every plan has a binding site per parameterized
	// gate, and the decoder refuses one whose slots are not the kernel's.
	res := comp.newResult(cfg.Target)
	res.SweepPoints, res.Rebinds = len(points), len(points)
	return runSweepPoints(res, h, points, cfg, func(i int) (*Compiled, error) { return comp.BindParams(points[i]) })
}

// runSweepPerPoint is the value-dependent-transform fallback: every
// point binds the source circuit and compiles from scratch.
func runSweepPerPoint(c *circuit.Circuit, h *observable.Hamiltonian, points [][]float64, cfg Config) (*Result, error) {
	nParams := c.NumParams()
	if err := validateSweep(h, points, cfg, nParams, c.NumQubits); err != nil {
		return nil, err
	}
	res := &Result{Target: cfg.Target, SweepPoints: len(points), SweepCompiles: len(points), NumQubits: c.NumQubits}
	bindPoint := func(i int) (*Compiled, error) {
		bc, err := c.BindParams(points[i])
		if err != nil {
			return nil, err
		}
		return Compile(bc, cfg)
	}
	return runSweepPoints(res, h, points, cfg, bindPoint)
}

// validateSweep checks the sweep request shape shared by both entry
// paths.
func validateSweep(h *observable.Hamiltonian, points [][]float64, cfg Config, nParams, nQubits int) error {
	if len(points) == 0 {
		return errors.New("backend: sweep needs at least one parameter point")
	}
	for i, pt := range points {
		if len(pt) != nParams {
			return fmt.Errorf("backend: sweep point %d has %d values, circuit has %d parameter slots", i, len(pt), nParams)
		}
	}
	if h != nil {
		if err := h.Validate(); err != nil {
			return err
		}
		if h.NumQubits > nQubits {
			return fmt.Errorf("backend: hamiltonian spans %d qubits, circuit has %d", h.NumQubits, nQubits)
		}
		return nil
	}
	if cfg.Shots <= 0 {
		return errors.New("backend: a sweep without an observable must sample (Shots > 0); per-point probability vectors are unbounded")
	}
	return nil
}

// runSweepPoints executes every point through bindPoint under runEach's
// budget rule and aggregates per-point results into the prepared res;
// per-point stage spans are summed by stage into one aggregated trace.
func runSweepPoints(res *Result, h *observable.Hamiltonian, points [][]float64, cfg Config, bindPoint func(i int) (*Compiled, error)) (*Result, error) {
	start := time.Now()
	// Fire the fault-injection hook once for the whole sweep, not once
	// per point, and strip it from per-point configs.
	cfg.execHook()

	results := make([]*Result, len(points))
	rebinds := make([]time.Duration, len(points))
	err := cfg.runEach(len(points), "sweep point", func(i, workers int) (err error) {
		if err = cfg.Cancel.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		bound, err := bindPoint(i)
		if err != nil {
			return err
		}
		rebinds[i] = time.Since(t0)
		pc := cfg
		pc.ExecHook, pc.Workers = nil, workers
		if h != nil {
			results[i], err = RunExpectationCompiled(bound, h, pc)
		} else {
			pc.Seed = SweepPointSeed(cfg.Seed, i)
			results[i], err = RunCompiled(bound, pc)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	if h != nil {
		res.SweepValues = make([]float64, len(points))
		res.ExpTerms = len(h.Terms)
	} else {
		res.SweepCounts = make([]sampling.Counts, len(points))
	}
	agg := make(map[string]int64)
	for i, r := range results {
		if h != nil {
			res.SweepValues[i] = *r.ExpValue
		} else {
			res.SweepCounts[i] = r.Counts
		}
		res.Exchanges += r.Exchanges
		res.BytesSent += r.BytesSent
		if r.Trace != nil {
			for _, sp := range r.Trace.Spans {
				agg[sp.Stage] += sp.DurationNS
			}
		}
		agg[telemetry.StageRebind] += int64(rebinds[i])
		// Per-point-compile fallbacks carry plan geometry the caller
		// could not know up front.
		if res.PlanStats == nil {
			stats := *r.PlanStats
			res.PlanStats = &stats
			res.TileBits = r.TileBits
		}
	}
	tr := &telemetry.Trace{}
	for _, stage := range telemetry.Stages() {
		if ns := agg[stage]; ns > 0 {
			tr.Add(stage, time.Duration(ns))
		}
	}
	res.Trace = tr
	res.Duration = time.Since(start)
	return res, nil
}

// shiftAngle is the parameter-shift offset. Every parameterized gate
// in the gate set is generated by an operator with eigenvalue gap 1 —
// rotations exp(-iθP/2) with P ∈ {X,Y,Z} (eigenvalues ±1/2 of P/2) and
// phases exp(iλ|1⟩⟨1|) (eigenvalues {0,1}) — so the two-point rule
// with shift π/2 is exact: ∂E/∂θ = (E(θ+π/2) − E(θ−π/2)) / 2.
const shiftAngle = math.Pi / 2

// gradientPoints lays out the 2k+1 evaluations of a parameter-shift
// gradient: the base point first, then (θ_j+π/2, θ_j−π/2) per slot.
func gradientPoints(base []float64) [][]float64 {
	pts := make([][]float64, 1, 1+2*len(base))
	pts[0] = append([]float64(nil), base...)
	for j := range base {
		plus := append([]float64(nil), base...)
		plus[j] += shiftAngle
		minus := append([]float64(nil), base...)
		minus[j] -= shiftAngle
		pts = append(pts, plus, minus)
	}
	return pts
}

// gradientFromSweep converts the 2k+1 sweep values into a gradient
// result: ⟨H⟩ at the base point plus one shift-rule derivative per
// parameter slot. The raw per-point vector is dropped — the gradient
// is the artifact.
func gradientFromSweep(res *Result, n int) *Result {
	vals := res.SweepValues
	grad := make([]float64, n)
	for j := 0; j < n; j++ {
		grad[j] = (vals[1+2*j] - vals[2+2*j]) / 2
	}
	v := vals[0]
	res.ExpValue = &v
	res.Gradient = grad
	res.SweepValues = nil
	return res
}

// RunGradient evaluates the parameter-shift gradient of ⟨H⟩ at one
// base point: a derived 2k+1-point sweep (base plus θ_j±π/2 per slot)
// followed by the shift rule. Exact — no finite-difference error —
// because every parameterized gate has a gap-1 generator.
func RunGradient(c *circuit.Circuit, h *observable.Hamiltonian, base []float64, cfg Config) (*Result, error) {
	if h == nil {
		return nil, errors.New("backend: gradient jobs need an observable")
	}
	res, err := RunSweep(c, h, gradientPoints(base), cfg)
	if err != nil {
		return nil, err
	}
	return gradientFromSweep(res, len(base)), nil
}

// RunGradientCompiled is RunGradient for a precompiled circuit.
func RunGradientCompiled(comp *Compiled, h *observable.Hamiltonian, base []float64, cfg Config) (*Result, error) {
	if h == nil {
		return nil, errors.New("backend: gradient jobs need an observable")
	}
	res, err := RunSweepCompiled(comp, h, gradientPoints(base), cfg)
	if err != nil {
		return nil, err
	}
	return gradientFromSweep(res, len(base)), nil
}
