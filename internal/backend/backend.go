// Package backend exposes the execution targets of the paper's
// pipeline behind one interface, mirroring the CUDA-Q target strings
// the paper sets on the command line (§E.3):
//
//   - "aer"         — the Qiskit-Aer-on-CPU baseline: the same engine
//     forced serial (one worker, per-gate sweeps), the slow path of
//     Fig. 4a;
//   - "nvidia"      — one simulated GPU: the parallel sharded engine
//     running tiled plans, the fast path of Fig. 4a;
//   - "nvidia-mgpu" — pooled device memory over MPI ranks
//     (internal/mgpu), the capacity-extending path;
//   - "nvidia-mqpu" — devices used as independent QPUs for
//     circuit-level parallelism (§3's four-QPU note);
//   - "pennylane"   — the lightning.gpu-like baseline: same parallel
//     engine plus the per-gate high-level→kernel transpilation latency
//     §4 identifies as Pennylane's overhead.
package backend

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"qgear/internal/cancel"
	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/mgpu"
	"qgear/internal/qmath"
	"qgear/internal/sampling"
	"qgear/internal/statevec"
	"qgear/internal/telemetry"
)

// Target names an execution backend.
type Target string

// The supported targets.
const (
	TargetAer        Target = "aer"
	TargetNvidia     Target = "nvidia"
	TargetNvidiaMGPU Target = "nvidia-mgpu"
	TargetNvidiaMQPU Target = "nvidia-mqpu"
	TargetPennylane  Target = "pennylane"
)

// Targets lists every supported target.
func Targets() []Target {
	return []Target{TargetAer, TargetNvidia, TargetNvidiaMGPU, TargetNvidiaMQPU, TargetPennylane}
}

// Valid reports whether t is a known target.
func (t Target) Valid() bool {
	switch t {
	case TargetAer, TargetNvidia, TargetNvidiaMGPU, TargetNvidiaMQPU, TargetPennylane:
		return true
	}
	return false
}

// Config selects and tunes a target.
type Config struct {
	Target Target
	// Devices is the simulated device count for mgpu/mqpu targets
	// (must be a power of two for mgpu). Default 1.
	Devices int
	// Workers is the goroutine parallelism per device; 0 selects
	// NumCPU for GPU-class targets and 1 for aer.
	Workers int
	// Shots samples measurement outcomes from the final state; 0
	// returns probabilities only.
	Shots int
	// Seed drives shot sampling.
	Seed uint64
	// PruneAngle forwards to the kernel transformation.
	PruneAngle float64
	// TileBits is the tile width of the compiled plan: runs of gates
	// whose mixing operands sit below 2^TileBits amplitudes apply to
	// L2-resident tiles in one memory pass per run instead of one per
	// gate, with SWAPs absorbed into a qubit relabeling table, bit-
	// identical to the per-gate schedule — the width-0 plan. 0 selects
	// kernel.AutoTileBits (cache-geometry detected at startup, env
	// QGEAR_TILE_BITS override) on GPU-class targets and leaves aer
	// per-gate; negative selects the per-gate schedule on the
	// single-process targets and is rejected on nvidia-mgpu, whose rank
	// shards need a tile; positive forces that width on any target,
	// clamped strictly inside the rank shard or, single-process, the
	// state: a state that fits one tile runs as two tiles, and per-gate
	// only when half of it is under statevec.MinParallelWork (12 qubits
	// or fewer), where no per-gate sweep fans out.
	TileBits int
	// Cancel, when non-nil, is a cooperative cancellation flag the
	// executors poll at work boundaries (plan segment, expectation
	// block batch): a tripped flag stops the run with the flag's error.
	// Nil runs unbounded. Cancel never shapes the output of a run that
	// completes, so it is excluded from option signatures and cache
	// keys.
	Cancel *cancel.Flag
	// ExecHook, when non-nil, runs at the start of every execution
	// (RunCompiled / RunExpectationCompiled), before any state is
	// allocated. It exists for fault injection: chaos tests panic or
	// delay here to exercise the serving layer's isolation without
	// touching the engines. Like Cancel, it never shapes a completed
	// run's output and stays out of signatures.
	ExecHook func()
}

// execHook fires the injection point if one is configured.
func (c Config) execHook() {
	if c.ExecHook != nil {
		c.ExecHook()
	}
}

// pennylaneTranspileReps models the per-gate latency of Pennylane's
// high-level-to-kernel translation (§4): each gate's matrix is
// re-derived this many times before execution, making the overhead
// real work proportional to gate count rather than a timer sleep. The
// count is calibrated to ~1 ms per gate — the order of Python-object
// lowering the paper's diagnosis implies.
const pennylaneTranspileReps = 12000

// Result carries everything a run produces.
type Result struct {
	Target        Target
	Probabilities []float64
	Counts        sampling.Counts
	Duration      time.Duration
	// NumQubits is the simulated register width, recorded by every
	// constructor of a Result (expectation results carry no probability
	// vector to infer it from).
	NumQubits int
	// ExpValue is the exact ⟨H⟩ of an expectation job (RunExpectation);
	// nil on probability/sampling runs.
	ExpValue *float64
	// ExpTerms is the number of Pauli terms the expectation evaluated.
	ExpTerms int
	// SweepValues is the per-point ⟨H⟩ vector of a Hamiltonian sweep
	// (RunSweep with an observable), in point order; nil otherwise.
	SweepValues []float64
	// SweepCounts is the per-point sampled histogram of a sampling
	// sweep (RunSweep without an observable, Shots > 0); nil otherwise.
	SweepCounts []sampling.Counts
	// SweepPoints is the number of parameter points a sweep (or
	// gradient) job evaluated; 0 on non-sweep runs.
	SweepPoints int
	// Rebinds counts sweep points served by rebinding the compiled
	// plan; SweepCompiles counts points that needed a full per-point
	// compile (angle pruning configurations). Exactly one of
	// them is SweepPoints on a sweep run.
	Rebinds       int
	SweepCompiles int
	// Gradient is the parameter-shift gradient ∂⟨H⟩/∂θ of a gradient
	// job, one entry per parameter slot; nil otherwise. ExpValue then
	// carries ⟨H⟩ at the base point.
	Gradient []float64
	// KernelStats reports the circuit→kernel transformation.
	KernelStats kernel.Stats
	// PlanStats reports what the plan compiler did (tile runs, global
	// sweeps, relabeling swaps); on the per-gate
	// schedule Global is the gate count and the rest are zero.
	PlanStats *kernel.PlanStats
	// TileBits is the tile width of the plan the run executed; 0 is the
	// per-gate schedule.
	TileBits int
	// Exchanges/BytesSent are the mgpu communication counters (zero for
	// single-device targets): exchanges paid and bytes shipped.
	Exchanges int
	BytesSent int64
	// AvoidedExchanges is always 0: no gate batches onto an exchange
	// any more (a rank-bit target is relabeled into the tile). It stays
	// declared, and in the store's result layout, for benchmark/.
	AvoidedExchanges int
	// Trace is the per-stage timing breakdown of the run (execute,
	// readout, sample, ... — see the telemetry.Stage* constants). The
	// service layer prepends its own spans (queue wait, plan-cache
	// resolution) and returns the whole trace in /v1/results; spans are
	// sequential, so their sum never exceeds Duration plus the serving
	// overhead. Not persisted: a store-loaded result carries a fresh
	// store_load span instead.
	Trace *telemetry.Trace
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	if c.Target == TargetAer {
		return 1
	}
	return runtime.NumCPU()
}

// SampleWorkers is the worker budget SampleShots draws shots on: the
// run's — Devices × Workers on nvidia-mgpu, Workers on the other
// single-device targets — and one per simulated QPU on mqpu, whose
// QPUs sample side by side.
func (c Config) SampleWorkers() int {
	switch c.Target {
	case TargetNvidiaMQPU:
		return 1
	case TargetNvidiaMGPU:
		return c.devices() * c.workers()
	}
	return c.workers()
}

// ShotSplit is how many simulated QPUs a run's shots are split over
// (SampleShots): every device on mqpu when each gets a shot, else one.
func (c Config) ShotSplit() int {
	if d := c.devices(); c.Target == TargetNvidiaMQPU && c.Shots >= d {
		return d
	}
	return 1
}

func (c Config) devices() int {
	if c.Devices > 0 {
		return c.Devices
	}
	return 1
}

// tileBits resolves the plan's tile width, 0 being the per-gate
// schedule: explicit widths win, negative disables, and the zero default
// enables tiling on GPU-class targets while keeping aer on the per-gate
// sweep baseline. The auto width
// comes from the cache geometry detected at startup.
func (c Config) tileBits() int {
	switch {
	case c.TileBits > 0:
		return c.TileBits
	case c.TileBits < 0:
		return 0
	case c.Target == TargetAer:
		return 0
	default:
		return kernel.AutoTileBits()
	}
}

// Signature returns the output-affecting option encoding core.CacheKey
// folds into the content address: the transform's prune angle, target,
// device/worker sizing, the shot budget and seed, and the plan-shaping
// tile width. It starts with "f0" and ends in "|pffalse", the slots of
// the gate fusion window and of a plan fusion option, neither of which
// exists any more: every signature, cache key and store address stays
// the one the default configuration always had, and one written with
// either option on no longer matches.
func (c Config) Signature() string {
	return fmt.Sprintf("f0|p%x|t%s|d%d|w%d|s%d|r%d|b%d|pffalse",
		math.Float64bits(c.PruneAngle), c.Target,
		c.Devices, c.Workers, c.Shots, c.Seed, c.TileBits)
}

// StoreSignature is the per-job-normalized signature a persistent
// artifact store records with each entry: Workers changes wall-clock
// only and Shots/Seed are already part of the entry's cache key, so
// all three are zeroed. TileBits is resolved to the *effective* width
// (tileBits: "0 = auto" differs across machines and QGEAR_TILE_BITS
// environments), so artifacts written under one effective tiling are
// rejected by a server running another. A
// warm-starting server compares this against its own configuration
// before trusting an on-disk artifact.
//
// A single-process width above the fan-out threshold ends in "|split":
// under it kernel.Plan splits a 13-qubit-or-wider state that fits one
// tile into two tiles, where stores written before that rule hold the
// per-gate plan (slower to run) and its result under the bare
// signature.
//
// Every signature ends in "|dt": every plan runs a group of two or more
// adjacent diagonal gates as one phase table, whose factors are
// multiplied together before they meet an amplitude, so results agree
// with those of stores written before the rule to rounding, not bit for
// bit, and such a store's plans run its groups gate by gate.
func (c Config) StoreSignature() string {
	c.Workers, c.Shots, c.Seed = 0, 0, 0
	c.TileBits = c.tileBits()
	sig := c.Signature()
	if c.Target != TargetNvidiaMGPU && 1<<c.TileBits>>1 >= statevec.MinParallelWork {
		sig += "|split"
	}
	return sig + "|dt"
}

// Validate rejects what no circuit can run under: an unknown target
// and, on nvidia-mgpu — whose engine pools device memory over a
// hypercube of ranks, each shard at least one tile — a device count
// that is not a power of two or a negative TileBits. Compile calls it
// for every circuit and the service once at startup, so a bad geometry
// fails where it is configured rather than on every job.
func (c Config) Validate() error {
	if !c.Target.Valid() {
		return fmt.Errorf("backend: unknown target %q", c.Target)
	}
	if c.Target != TargetNvidiaMGPU {
		return nil
	}
	if !qmath.IsPow2(uint64(c.devices())) {
		return fmt.Errorf("backend: nvidia-mgpu needs a power-of-two device count, got %d", c.devices())
	}
	if c.TileBits < 0 {
		return fmt.Errorf("backend: nvidia-mgpu executes tiled plans only: TileBits %d (per-gate sweeps) is for the single-process targets", c.TileBits)
	}
	return nil
}

// globalBits is the rank-index bit count of the distributed target (0
// on single-device targets).
func (c Config) globalBits() int {
	if c.Target != TargetNvidiaMGPU {
		return 0
	}
	return int(qmath.Log2Ceil(uint64(c.devices())))
}

// Compiled is a circuit lowered all the way to the execution IR: the
// transformed kernel plus the TilePlan every engine executes — tiled,
// distributed, or the width-0 per-gate schedule (aer, disabled tiling,
// a state of 12 qubits or fewer that fits one tile). A Compiled is
// immutable and safe to execute concurrently — the service layer caches
// them across submissions so repeat work skips transformation and
// planning entirely.
type Compiled struct {
	Kernel *kernel.Kernel
	// Plan is the compiled execution schedule, never nil; its TileBits
	// is the effective tile width, 0 for the per-gate schedule.
	Plan *kernel.TilePlan
	// TransformStats reports the circuit→kernel conversion.
	TransformStats kernel.Stats
}

// newResult starts the Result of a run of c on target with what the
// compile already knows.
func (c *Compiled) newResult(target Target) *Result {
	stats := c.Plan.Stats
	return &Result{Target: target, KernelStats: c.TransformStats, PlanStats: &stats, TileBits: c.Plan.TileBits, NumQubits: c.Kernel.NumQubits}
}

// Compile transforms a circuit for the configured target and compiles
// its execution plan, without running anything; kernel.Plan picks the
// shape (width 0, and a state of 12 qubits or fewer that fits one tile,
// plan as the per-gate schedule).
func Compile(c *circuit.Circuit, cfg Config) (*Compiled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k, stats, err := kernel.FromCircuit(c, kernel.Options{PruneAngle: cfg.PruneAngle})
	if err != nil {
		return nil, err
	}
	tb := cfg.tileBits()
	g := cfg.globalBits()
	if cfg.Target == TargetNvidiaMGPU {
		n := k.NumQubits
		if n < 2 || n-g < 1 {
			return nil, fmt.Errorf("backend: nvidia-mgpu on %d devices cannot hold a %d-qubit circuit: it needs at least 2 qubits and one per rank shard", cfg.devices(), n)
		}
		if g == 0 {
			// A one-rank world runs a single-process plan, which the
			// scheduler leaves per-gate below the fan-out threshold:
			// keep the tile inside the state the way it keeps one
			// inside a shard.
			tb = min(tb, n-1)
		}
	}
	plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: tb, GlobalBits: g})
	if err != nil {
		return nil, err
	}
	return &Compiled{Kernel: k, Plan: plan, TransformStats: stats}, nil
}

// Run transforms the circuit for the configured target and executes it
// — Compile followed by RunCompiled.
func Run(c *circuit.Circuit, cfg Config) (*Result, error) {
	comp, err := Compile(c, cfg)
	if err != nil {
		return nil, err
	}
	return RunCompiled(comp, cfg)
}

// RunCompiled executes a compiled circuit. Every engine consumes the
// same plan: the single-process statevec executor runs it directly and
// the distributed engine runs it against each rank shard.
func RunCompiled(comp *Compiled, cfg Config) (*Result, error) {
	if !cfg.Target.Valid() {
		return nil, fmt.Errorf("backend: unknown target %q", cfg.Target)
	}
	start := time.Now()
	res := comp.newResult(cfg.Target)
	tr := &telemetry.Trace{}
	cfg.execHook()

	switch cfg.Target {
	case TargetNvidiaMGPU:
		t0 := time.Now()
		out, err := mgpu.SimulateCompiledCancel(comp.Kernel, comp.Plan, cfg.devices(), cfg.workers(), cfg.Cancel)
		if err != nil {
			return nil, err
		}
		res.Probabilities = out.Probabilities
		res.Exchanges = out.Exchanges
		res.BytesSent = out.BytesSent
		addDistSpans(tr, time.Since(t0), out.ExchangeTime)
	case TargetPennylane:
		t0 := time.Now()
		pennylaneTranspile(comp.Kernel)
		tr.Add(telemetry.StageTranspile, time.Since(t0))
		fallthrough
	default: // aer, nvidia, pennylane, and mqpu-with-one-circuit all run the local engine
		probs, err := runSingleTraced(comp, cfg.workers(), tr, cfg.Cancel)
		if err != nil {
			return nil, err
		}
		res.Probabilities = probs
	}

	if cfg.Shots > 0 {
		t0 := time.Now()
		counts, err := SampleShots(res.Probabilities, cfg)
		if err != nil {
			return nil, err
		}
		res.Counts = counts
		tr.Add(telemetry.StageSample, time.Since(t0))
	}
	res.Duration = time.Since(start)
	res.Trace = tr
	return res, nil
}

// addDistSpans splits a distributed execution's wall time into compute
// and exchange spans. The exchange share is the root rank's measured
// wait; it is clamped below the whole so the span sum stays an exact
// partition of the measured wall time.
func addDistSpans(tr *telemetry.Trace, wall, exchange time.Duration) {
	if exchange > 0 && exchange < wall {
		tr.Add(telemetry.StageExchange, exchange)
		wall -= exchange
	}
	tr.Add(telemetry.StageExecute, wall)
}

// SampleShots draws measurement shots from a probability vector exactly
// as RunCompiled does for cfg, so schedulers that defer sampling (the
// service layer) still match a standalone Run bit for bit.
//
// A large draw runs on the run's own worker budget (SampleWorkers):
// every nvidia-mgpu rank's workers, or the device's on the other
// single-device targets, one for every 2^14 shots at most
// (sampling.SampleParallel). The workers share out fixed subtrees of
// the sampler's sum tree, each drawn on random streams keyed by its
// nodes and the seed, so the counts are the same at every budget and
// equal sampling.Sample's for the same seed. On the mqpu target the
// shot budget is instead split across the simulated QPUs, each on a
// seed of its own, and sampled side by side on statevec's pool — the
// multi-shot parallelism of the paper's ref. [23] (and the reason §3
// notes mqpu "significantly improves the execution time"); results
// merge into one Counts and stay deterministic under a fixed seed.
func SampleShots(probs []float64, cfg Config) (sampling.Counts, error) {
	devices := cfg.ShotSplit()
	if devices == 1 {
		return sampling.SampleParallel(probs, cfg.Shots, cfg.SampleWorkers(), qmath.NewRNG(cfg.Seed))
	}
	per := cfg.Shots / devices
	rem := cfg.Shots % devices
	parts := make([]sampling.Counts, devices)
	errs := make([]error, devices)
	statevec.ParallelFor(devices, devices, func(d, _ int) { // one device a chunk
		shots := per
		if d < rem {
			shots++
		}
		parts[d], errs[d] = sampling.Sample(probs, shots, qmath.NewRNG(cfg.Seed+uint64(d)*0x9e3779b9))
	})
	merged := make(sampling.Counts)
	for d := 0; d < devices; d++ {
		if errs[d] != nil {
			return nil, errs[d]
		}
		for k, v := range parts[d] {
			merged[k] += v
		}
	}
	return merged, nil
}

// runSingleTraced executes a compiled circuit's plan on one in-memory
// device, recording execute and readout spans into tr. The state goes
// back to the slab free list once its probabilities are read out.
func runSingleTraced(comp *Compiled, workers int, tr *telemetry.Trace, flag *cancel.Flag) ([]float64, error) {
	t0 := time.Now()
	s, err := runSingleState(comp, workers, flag)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	tr.Add(telemetry.StageExecute, time.Since(t0))
	t1 := time.Now()
	probs := s.Probabilities()
	tr.Add(telemetry.StageReadout, time.Since(t1))
	return probs, nil
}

// runSingleState executes a compiled circuit and returns the resident
// state itself — possibly with a pending qubit permutation, which the
// expectation evaluator materializes in place, with no copy of the
// state. The caller releases it; a run that fails releases it here.
func runSingleState(comp *Compiled, workers int, flag *cancel.Flag) (*statevec.State, error) {
	s, err := statevec.New(comp.Kernel.NumQubits, workers)
	if err != nil {
		return nil, err
	}
	if err := comp.Plan.ExecuteCancel(s, flag); err != nil {
		s.Release()
		return nil, err
	}
	return s, nil
}

// pennylaneTranspile burns the per-gate translation cost §4 describes:
// every gate's unitary is re-derived pennylaneTranspileReps times, the
// moral equivalent of re-lowering a Python object per invocation.
func pennylaneTranspile(k *kernel.Kernel) {
	sink := complex(0, 0)
	for _, in := range k.Instrs {
		if in.Kind != kernel.KGate || !in.Gate.IsUnitary() {
			continue
		}
		for rep := 0; rep < pennylaneTranspileReps; rep++ {
			switch in.Gate.Arity() {
			case 1:
				m := gate.Matrix1(in.Gate, in.Params)
				sink += m[0]
			case 2:
				m := gate.Matrix2(in.Gate, in.Params)
				sink += m[0]
			}
		}
	}
	_ = sink
}

// RunBatch executes a batch of circuits: compile each, then execute
// the compiled batch.
func RunBatch(circuits []*circuit.Circuit, cfg Config) ([]*Result, error) {
	comps := make([]*Compiled, len(circuits))
	for i, c := range circuits {
		comp, err := Compile(c, cfg)
		if err != nil {
			return nil, fmt.Errorf("backend: circuit %d: %w", i, err)
		}
		comps[i] = comp
	}
	return RunBatchCompiled(comps, cfg)
}

// RunBatchCompiled executes a batch of compiled circuits. On the mqpu
// target the batch is spread across cfg.Devices simulated QPUs running
// side by side (the §3 four-QPU mode); every other target runs it in
// order. Plans compiled under the mqpu target are valid on the
// per-device engine — both are single-process plan consumers.
func RunBatchCompiled(comps []*Compiled, cfg Config) ([]*Result, error) {
	out := make([]*Result, len(comps))
	err := cfg.runEach(len(comps), "circuit", func(i, workers int) (err error) {
		cfgi := cfg
		if cfg.Target == TargetNvidiaMQPU {
			cfgi.Target, cfgi.Workers, cfgi.Seed = TargetNvidia, workers, cfg.Seed+uint64(i)
		}
		if out[i], err = RunCompiled(comps[i], cfgi); err == nil {
			out[i].Target = cfg.Target
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runEach runs run(i, workers) for each of n independent items under
// the per-device budget rule: on mqpu, min(devices, n) items run side by
// side on equal shares of the workers; other targets run them in order
// on every worker. A free device takes the next index, and none does
// once a run has failed, so every item below a failure has run and the
// error returned, wrapped as "backend: <item> <i>", is the first by index.
func (c Config) runEach(n int, item string, run func(i, workers int) error) error {
	conc := 1
	if c.Target == TargetNvidiaMQPU && n > 1 {
		conc = min(c.devices(), n)
	}
	workers := max(1, c.workers()/conc)
	errs := make([]error, n)
	var next atomic.Int64
	statevec.ParallelFor(conc, conc, func(int, int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if errs[i] = run(i, workers); errs[i] != nil {
				next.Store(int64(n)) // hand out no further index
			}
		}
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("backend: %s %d: %w", item, i, err)
		}
	}
	return nil
}
