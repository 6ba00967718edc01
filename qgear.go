// Package qgear is the public API of the Q-GEAR reproduction: a
// framework that transforms Qiskit-style quantum circuit objects into
// CUDA-Q-style GPU kernels and executes them on CPU-baseline,
// single-device, pooled-memory multi-device, and multi-QPU simulation
// targets, as described in "Q-GEAR: Improving quantum simulation
// framework" (Guo, Balewski, Pan — ICPP 2025, arXiv:2504.03967).
//
// Quickstart (the paper's Fig. 2b GHZ example):
//
//	c := qgear.GHZ(20, false)
//	res, err := qgear.Run(c, qgear.RunOptions{Target: qgear.TargetNvidia})
//	// res.Probabilities[0] ≈ 0.5, res.Probabilities[2^20-1] ≈ 0.5
//
// The package re-exports the stable subset of the internal layers:
// circuit building, the kernel transformation, execution targets, the
// workload generators used in the paper's evaluation (random CX-block
// unitaries, QFT, QCrank image encoding), the circuit-list and tensor
// file formats, and the calibrated Perlmutter performance model used
// to extrapolate paper-scale figures.
package qgear

import (
	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/cluster"
	"qgear/internal/core"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/qasm"
	"qgear/internal/qcrank"
	"qgear/internal/qft"
	"qgear/internal/qimage"
	"qgear/internal/randcirc"
	"qgear/internal/sampling"
	"qgear/internal/service"
)

// Circuit is a Qiskit-like object circuit (builder API: H, CX, RY,
// CP, MeasureAll, ...).
type Circuit = circuit.Circuit

// Op is one circuit operation.
type Op = circuit.Op

// Kernel is a CUDA-Q-style kernel: the transformation target.
type Kernel = kernel.Kernel

// TransformStats reports what the circuit→kernel transformation did.
type TransformStats = kernel.Stats

// Target selects an execution backend.
type Target = backend.Target

// Execution targets (the paper's CUDA-Q target strings plus the two
// baselines).
const (
	TargetAer        = backend.TargetAer
	TargetNvidia     = backend.TargetNvidia
	TargetNvidiaMGPU = backend.TargetNvidiaMGPU
	TargetNvidiaMQPU = backend.TargetNvidiaMQPU
	TargetPennylane  = backend.TargetPennylane
)

// Result carries probabilities, sampled counts, timing, transformation
// stats and multi-device communication counters.
type Result = backend.Result

// Counts maps basis states to observed shot counts.
type Counts = sampling.Counts

// RunOptions configures transformation and execution.
type RunOptions = core.Options

// PlanStats reports what the plan compiler did (tile runs, full-sweep
// fallbacks, relabeling swaps) — carried on
// Result.PlanStats for every planned execution.
type PlanStats = kernel.PlanStats

// TilePlan is the compiled execution IR every engine consumes: tile
// runs, relabeling bit-swaps (on the distributed target, across the
// rank boundary too) and full-sweep fallbacks.
type TilePlan = kernel.TilePlan

// Compiled is a circuit lowered to the execution IR (kernel + plan),
// reusable across executions.
type Compiled = backend.Compiled

// DefaultTileBits is the cache-blocked executor's compile-time default
// tile width: runs of gates whose mixing operands fit under
// 2^DefaultTileBits amplitudes execute in one memory pass per run
// instead of one per gate (see RunOptions.TileBits to tune or
// disable).
const DefaultTileBits = kernel.DefaultTileBits

// AutoTileBits is the startup-detected default tile width: sized from
// the machine's cache geometry (QGEAR_TILE_BITS overrides), falling
// back to DefaultTileBits when detection is unavailable.
func AutoTileBits() int { return kernel.AutoTileBits() }

// Compile lowers a circuit to its execution IR without running it;
// the Compiled artifact is immutable and safe for concurrent reuse.
func Compile(c *Circuit, opts RunOptions) (*Compiled, error) { return backend.Compile(c, opts) }

// RunCompiled executes a precompiled circuit.
func RunCompiled(comp *Compiled, opts RunOptions) (*Result, error) {
	return backend.RunCompiled(comp, opts)
}

// NewCircuit returns an empty circuit with nq qubits and nc classical
// bits.
func NewCircuit(nq, nc int) *Circuit { return circuit.New(nq, nc) }

// GHZ builds the n-qubit GHZ preparation circuit of Fig. 2b.
func GHZ(n int, measure bool) *Circuit { return circuit.GHZ(n, measure) }

// Transform converts a circuit into a kernel — the Q-GEAR step
// (§2.2) — with optional small-angle pruning.
func Transform(c *Circuit, opts RunOptions) (*Kernel, TransformStats, error) {
	ks, sts, err := core.Transform([]*Circuit{c}, opts)
	if err != nil {
		return nil, TransformStats{}, err
	}
	return ks[0], sts[0], nil
}

// Run transforms and executes one circuit.
func Run(c *Circuit, opts RunOptions) (*Result, error) { return backend.Run(c, opts) }

// Fingerprint returns the stable content hash of a circuit (register
// sizes, ops, exact parameter bits) — the basis of the serving layer's
// content-addressed result cache.
func Fingerprint(c *Circuit) string { return c.Fingerprint() }

// CacheKey returns the content address of a (circuit, options) pair:
// two submissions with equal keys produce identical results.
func CacheKey(c *Circuit, opts RunOptions) string { return core.CacheKey(c, opts) }

// Server is the embeddable simulation service: a bounded job queue and
// worker pool over the pipeline, with single-flight deduplication, one
// shared run for the queued jobs of one circuit, and a
// content-addressed LRU result cache. The `qgear serve` command exposes
// the same server over HTTP.
type Server = service.Server

// ServerConfig sizes a Server (zero values select documented defaults).
type ServerConfig = service.Config

// SubmitOptions are the per-job knobs of a Server submission.
type SubmitOptions = service.SubmitOptions

// JobInfo is a snapshot of a submitted job's lifecycle.
type JobInfo = service.JobInfo

// JobState is a job lifecycle phase.
type JobState = service.JobState

// Job lifecycle states.
const (
	JobQueued  = service.StateQueued
	JobRunning = service.StateRunning
	JobDone    = service.StateDone
	JobFailed  = service.StateFailed
)

// ServerStats is a snapshot of a Server's counters: queue depth, cache
// hit rate, batching, and per-target latency histograms.
type ServerStats = service.Stats

// NewServer starts a simulation server with its worker pool running;
// Close it to drain in-flight jobs and stop.
func NewServer(cfg ServerConfig) (*Server, error) { return service.New(cfg) }

// RunBatch transforms and executes a circuit batch (device-parallel on
// the nvidia-mqpu target).
func RunBatch(cs []*Circuit, opts RunOptions) ([]*Result, error) { return backend.RunBatch(cs, opts) }

// SaveQPY / LoadQPY persist circuit lists in the QPY-like interchange
// format of the paper's pipeline (Fig. 2c).
func SaveQPY(path string, cs []*Circuit) error { return core.SaveQPY(path, cs) }

// LoadQPY reads a circuit list saved by SaveQPY.
func LoadQPY(path string) ([]*Circuit, error) { return core.LoadQPY(path) }

// SaveTensors tensor-encodes circuits (§2.1) into a deflated tensor
// file; capacity <= 0 auto-sizes per Lemma B.2.
func SaveTensors(path string, cs []*Circuit, capacity int) error {
	return core.SaveTensors(path, cs, capacity)
}

// LoadTensors reads circuits back from a tensor file.
func LoadTensors(path string) ([]*Circuit, error) { return core.LoadTensors(path) }

// RandomUnitarySpec configures the Appendix D.1 random CX-block
// generator.
type RandomUnitarySpec = randcirc.Spec

// Paper workload sizes: 'short' (100 blocks), Fig. 4b 'intermediate'
// (3,000) and 'long' (10,000).
const (
	ShortBlocks        = randcirc.ShortBlocks
	IntermediateBlocks = randcirc.IntermediateBlocks
	LongBlocks         = randcirc.LongBlocks
)

// RandomUnitary generates one random CX-block circuit (Algorithm 1).
func RandomUnitary(spec RandomUnitarySpec) (*Circuit, error) { return randcirc.Generate(spec) }

// RandomUnitaryList generates a batch with independent seeds.
func RandomUnitaryList(qubits, blocks, count int, seed uint64) ([]*Circuit, error) {
	return randcirc.GenerateList(qubits, blocks, count, seed)
}

// QFT builds the n-qubit quantum Fourier transform (Appendix D.2);
// reverse appends the bit-order swaps.
func QFT(n int, reverse bool) (*Circuit, error) { return qft.Circuit(n, reverse) }

// Image is a grayscale image normalized to [-1, 1].
type Image = qimage.Image

// ImageMetrics summarizes reconstruction quality (Fig. 6).
type ImageMetrics = qimage.Metrics

// SyntheticImage generates one of the paper's test-image stand-ins
// ("finger", "shoes", "building", "zebra") at the given size.
func SyntheticImage(kind string, w, h int, seed uint64) (*Image, error) {
	return qimage.Synthetic(kind, w, h, seed)
}

// CompareImages computes reconstruction metrics.
func CompareImages(ref, reco *Image) (ImageMetrics, error) { return qimage.Compare(ref, reco) }

// QCrankPlan fixes a QCrank encoding layout (address/data qubits,
// shot budget).
type QCrankPlan = qcrank.Plan

// NewQCrankPlan sizes a plan for pixels and address qubits;
// shotsPerAddr = 0 selects the paper's s = 3000.
func NewQCrankPlan(pixels, addrQubits, shotsPerAddr int) (QCrankPlan, error) {
	return qcrank.NewPlan(pixels, addrQubits, shotsPerAddr)
}

// QCrankEncode builds the image-encoding circuit (one CX per pixel).
func QCrankEncode(values []float64, plan QCrankPlan, measure bool) (*Circuit, error) {
	return qcrank.Encode(values, plan, measure)
}

// QCrankDecodeCounts reconstructs pixel values from measured shots.
func QCrankDecodeCounts(counts Counts, plan QCrankPlan) ([]float64, []int, error) {
	return qcrank.DecodeCounts(counts, plan)
}

// QCrankDecodeProbs reconstructs pixel values exactly from a
// probability vector (the infinite-shot limit).
func QCrankDecodeProbs(probs []float64, plan QCrankPlan) ([]float64, error) {
	return qcrank.DecodeProbs(probs, plan)
}

// PerformanceModel is the calibrated Perlmutter hardware model used
// for paper-scale estimates (Figs. 1, 4, 5 at qubit counts beyond
// local memory).
type PerformanceModel = cluster.Cluster

// Perlmutter returns the §2.3 hardware model.
func Perlmutter() *PerformanceModel { return cluster.Perlmutter() }

// Targets lists the supported execution targets.
func Targets() []Target { return backend.Targets() }

// ExportQASM renders a circuit as an OpenQASM 2.0 program.
func ExportQASM(c *Circuit) (string, error) { return qasm.Export(c) }

// ParseQASM reads an OpenQASM 2.0 program back into a circuit.
func ParseQASM(src string) (*Circuit, error) { return qasm.Parse(src) }

// Pauli is a single-qubit Pauli factor for observables.
type Pauli = observable.Pauli

// Pauli factors.
const (
	PauliX = observable.X
	PauliY = observable.Y
	PauliZ = observable.Z
)

// Hamiltonian is a real-weighted sum of Pauli strings — the Fig. 2c
// "distinct Hamiltonians" workload structure.
type Hamiltonian = observable.Hamiltonian

// PauliTerm is one weighted Pauli string.
type PauliTerm = observable.Term

// NewPauliTerm builds a weighted Pauli string from qubit→factor pairs.
func NewPauliTerm(coef float64, factors map[int]Pauli) PauliTerm {
	return observable.NewTerm(coef, factors)
}

// TransverseFieldIsing builds the TFIM chain Hamiltonian benchmark.
func TransverseFieldIsing(n int, j, g float64) *Hamiltonian {
	return observable.TransverseFieldIsing(n, j, g)
}

// RunExpectation executes one circuit on the configured target and
// returns the exact ⟨H⟩ on its final state as a first-class job
// result: the compiled plan runs once, every Pauli term is evaluated
// against the resident statevector (no readout materialization), and
// Result.ExpValue carries the value. All engines — per-gate, tiled,
// term-parallel mqpu, and distributed mgpu — return bit-identical
// values. Shots/Seed in opts are ignored (expectation is exact).
func RunExpectation(c *Circuit, h *Hamiltonian, opts RunOptions) (*Result, error) {
	return backend.RunExpectation(c, h, opts)
}

// RunExpectationCompiled evaluates ⟨H⟩ on a precompiled circuit: same
// circuit, many observables = one compile, one execute per call.
func RunExpectationCompiled(comp *Compiled, h *Hamiltonian, opts RunOptions) (*Result, error) {
	return backend.RunExpectationCompiled(comp, h, opts)
}

// ExpectationCacheKey returns the content address of an expectation
// job — (circuit fingerprint, hamiltonian hash, output-affecting
// options); equal keys are guaranteed to produce bit-identical ⟨H⟩.
func ExpectationCacheKey(c *Circuit, h *Hamiltonian, opts RunOptions) string {
	return core.ExpectationCacheKey(c, h, opts)
}

// RunSweep evaluates one parameterized circuit at many parameter
// points under a single job: the circuit compiles once (when the
// configured transform is value-independent — see
// RunOptions.Rebindable) and the compiled plan is rebound per point.
// With h non-nil each point yields an exact ⟨H⟩ in
// Result.SweepValues[i]; with h nil and Shots > 0 each point yields
// sampled counts in Result.SweepCounts[i] under a per-point derived
// seed. Per-point values are bit-identical to submitting each point
// as its own job.
func RunSweep(c *Circuit, h *Hamiltonian, points [][]float64, opts RunOptions) (*Result, error) {
	return backend.RunSweep(c, h, points, opts)
}

// RunSweepCompiled is RunSweep against an already-compiled circuit:
// the plan skeleton is rebound per point with zero re-planning.
func RunSweepCompiled(comp *Compiled, h *Hamiltonian, points [][]float64, opts RunOptions) (*Result, error) {
	return backend.RunSweepCompiled(comp, h, points, opts)
}

// RunGradient computes the exact parameter-shift gradient of ⟨H⟩ at
// the given base parameters: 2k+1 sweep points (base plus ±π/2 shifts
// per parameter) executed as one compile-once sweep.
// Result.ExpValue is ⟨H⟩ at base and Result.Gradient[j] = ∂⟨H⟩/∂θj.
func RunGradient(c *Circuit, h *Hamiltonian, base []float64, opts RunOptions) (*Result, error) {
	return backend.RunGradient(c, h, base, opts)
}

// RunGradientCompiled is RunGradient against a precompiled circuit.
func RunGradientCompiled(comp *Compiled, h *Hamiltonian, base []float64, opts RunOptions) (*Result, error) {
	return backend.RunGradientCompiled(comp, h, base, opts)
}

// StructuralFingerprint returns the circuit's value-erased shape hash:
// two circuits that differ only in the rotation angles of
// parameterized gates share it. It keys the serving layer's
// compile-once plan cache.
func StructuralFingerprint(c *Circuit) string { return c.StructuralFingerprint() }

// SweepCacheKey returns the content address of a sweep job; equal keys
// are guaranteed to produce bit-identical per-point results.
func SweepCacheKey(c *Circuit, h *Hamiltonian, points [][]float64, opts RunOptions) string {
	return core.SweepCacheKey(c, h, points, opts)
}

// GradientCacheKey returns the content address of a parameter-shift
// gradient job.
func GradientCacheKey(c *Circuit, h *Hamiltonian, base []float64, opts RunOptions) string {
	return core.GradientCacheKey(c, h, base, opts)
}

// Typed HTTP wire structs for the versioned /v1/jobs API, re-exported
// so Go clients can build requests and parse responses without
// importing internal packages. SubmitRequest is the polymorphic job
// envelope (kind "simulate" | "expectation" | "sweep" | "gradient"),
// ResultResponse the job/result body, and ErrorResponse the uniform
// error envelope every non-2xx status carries.
type (
	SubmitRequest   = service.SubmitRequest
	ResultResponse  = service.ResultResponse
	ErrorResponse   = service.ErrorResponse
	APIError        = service.APIError
	WireCircuit     = service.WireCircuit
	WireHamiltonian = service.WireHamiltonian
)
