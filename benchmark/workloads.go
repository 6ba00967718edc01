package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/qmath"
	"qgear/internal/sampling"
	"qgear/internal/statevec"
)

// sizes fixes how much work one op (or one round) of each workload is.
// They are constants of the benchmark, timed once on the 2-core
// reference host (see README.md) and never derived from the host the
// benchmark runs on: the only host-derived quantity is W.
type sizes struct {
	// WarmupOps run in set-up before the timed region of the three
	// library workloads.
	WarmupOps int

	QFTQubits int
	QFTShots  int

	TFIMQubits int

	QCrankAddrQubits   int
	QCrankDataQubits   int
	QCrankShotsPerAddr int
	// QCrankMinCorrelation is the DecodeCounts reconstruction floor; it
	// falls with the shots per address.
	QCrankMinCorrelation float64

	ServeQubits       int
	ServeBlocks       int // CX blocks of a fresh random circuit
	ServeShots        int
	ServeOpsPerClient int // ops of one client in one round (and in the warm-up round)
	ServeRepeatGap    int // a repeat refers to a request at least this many of the client's ops back
	ServeSweepPoints  int

	StoreArtifacts int // distinct results generated in set-up
	StoreSaves     int // results saved in phase A, cycling through the artifacts; phases B and C scale with it
	StorePlans     int
	StoreWarmupOps int
}

// fullSizes are the benchmark's workloads.
var fullSizes = sizes{
	WarmupOps: 2,

	QFTQubits: 21,
	QFTShots:  4096,

	TFIMQubits: 20,

	QCrankAddrQubits:     9,
	QCrankDataQubits:     6,
	QCrankShotsPerAddr:   3000,
	QCrankMinCorrelation: 0.99,

	ServeQubits:       12,
	ServeBlocks:       100,
	ServeShots:        1000,
	ServeOpsPerClient: 100,
	ServeRepeatGap:    50,
	ServeSweepPoints:  16,

	StoreArtifacts: 60,
	StoreSaves:     200,
	StorePlans:     20,
	StoreWarmupOps: 50,
}

// miniSizes are the in-test miniatures: every oracle runs, in a few
// seconds on any core count.
var miniSizes = sizes{
	WarmupOps: 1,

	QFTQubits: 12,
	QFTShots:  512,

	TFIMQubits: 10,

	QCrankAddrQubits:     4,
	QCrankDataQubits:     2,
	QCrankShotsPerAddr:   3000,
	QCrankMinCorrelation: 0.99,

	ServeQubits:       8,
	ServeBlocks:       20,
	ServeShots:        200,
	ServeOpsPerClient: 20,
	ServeRepeatGap:    5,
	ServeSweepPoints:  4,

	StoreArtifacts: 20,
	StoreSaves:     20,
	StorePlans:     4,
	StoreWarmupOps: 4,
}

func newWorkload(name string, seed uint64, e env) (workload, error) {
	switch name {
	case "qft_exec":
		return newQFTExec(seed, e), nil
	case "tfim_expect":
		return newTFIMExpect(seed, e), nil
	case "qcrank_mgpu":
		return newQCrankMGPU(seed, e), nil
	case "serve_mix":
		return newServeMix(seed, e), nil
	case "store_cycle":
		return newStoreCycle(seed, e), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stream returns the seed's independent random stream for one purpose,
// so adding a consumer never shifts the inputs of another.
func stream(seed uint64, purpose string) *qmath.RNG {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return qmath.NewRNG(seed ^ h.Sum64())
}

// noPrep is embedded by workloads whose rounds need no fresh inputs
// and no deferred checks.
type noPrep struct{}

func (noPrep) Prepare() error   { return nil }
func (noPrep) Finish(*recorder) {}

// warmUp runs n checked rounds of a library workload before its timed
// region.
func warmUp(w workload, n int) error {
	warm := newRecorder()
	for i := 0; i < n; i++ {
		w.Round(warm)
		w.Check(warm)
		if warm.failed > 0 {
			return fmt.Errorf("warm-up op %d: %w", i, warm.firstErr)
		}
	}
	return nil
}

// sameBits reports whether two vectors are bit-identical, and where
// they first differ.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("entry %d = %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return nil
}

func sameCounts(got, want sampling.Counts) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d distinct outcomes, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("outcome %d counted %d times, want %d", k, got[k], v)
		}
	}
	return nil
}

// decomposed is one single-device execution taken apart into the
// exported calls backend.Run makes, a span around each.
type decomposed struct {
	Kernel *kernel.Kernel
	Plan   *kernel.TilePlan // nil when the state is too small to tile
	State  *statevec.State
}

// executeDecomposed transforms, plans, allocates and executes c the way
// backend.Run does for a single-device GPU-class target, recording
// kernel.transform, kernel.plan, statevec.alloc and statevec.execute
// spans under parent.
func executeDecomposed(tr *tracer, parent, op int, c *circuit.Circuit, workers int) (*decomposed, error) {
	var d decomposed
	var err error
	tr.timed("kernel.transform", parent, op, func() {
		d.Kernel, _, err = kernel.FromCircuit(c, kernel.Options{})
	})
	if err != nil {
		return nil, err
	}
	tr.timed("kernel.plan", parent, op, func() {
		d.Plan, err = kernel.Plan(d.Kernel, kernel.PlanConfig{TileBits: kernel.AutoTileBits()})
	})
	if errors.Is(err, kernel.ErrNoTiling) {
		d.Plan, err = nil, nil
	}
	if err != nil {
		return nil, err
	}
	tr.timed("statevec.alloc", parent, op, func() {
		d.State, err = statevec.New(d.Kernel.NumQubits, workers)
	})
	if err != nil {
		return nil, err
	}
	tr.timed("statevec.execute", parent, op, func() {
		if d.Plan != nil {
			err = d.Plan.Execute(d.State)
		} else {
			err = kernel.Execute(d.Kernel, d.State)
		}
	})
	if err != nil {
		return nil, err
	}
	return &d, nil
}

// planCounters copies a plan's counters into m, with the computed
// passes over the state and bytes swept: every tile run, bit swap and
// global gate is one pass over all 2^n complex128 amplitudes. The
// bytes are computed from the array size, not measured, so cache
// misses and write-allocate traffic are not in them.
func planCounters(m map[string]float64, st *kernel.PlanStats, qubits int) {
	if st == nil {
		return
	}
	m["kernel.plan_runs"] = float64(st.Runs)
	m["kernel.plan_global_gates"] = float64(st.Global)
	m["kernel.plan_bit_swaps"] = float64(st.BitSwaps)
	m["kernel.plan_exchange_segments"] = float64(st.ExchangeSegs)
	m["kernel.plan_exchange_gates"] = float64(st.ExchangeGates)
	m["kernel.plan_fused_ops"] = float64(st.FusedOps)
	passes := float64(st.Runs + st.Global + st.BitSwaps)
	m["statevec.passes_computed"] = passes
	m["statevec.bytes_swept_computed"] = passes * 16 * math.Exp2(float64(qubits))
}

// medianOf times fn reps times and returns the median in seconds.
func medianOf(reps int, fn func() error) (float64, error) {
	var d []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d = append(d, time.Since(start).Seconds())
	}
	return median(d), nil
}

// samePlan asserts that the plan the decomposed op compiles is, byte
// for byte, the one backend.Compile produces: the decomposition is of
// the same program.
func samePlan(c *circuit.Circuit, cfg backend.Config, opts kernel.Options, globalBits int) (*backend.Compiled, error) {
	comp, err := backend.Compile(c, cfg)
	if err != nil {
		return nil, err
	}
	k, _, err := kernel.FromCircuit(c, opts)
	if err != nil {
		return nil, err
	}
	plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: kernel.AutoTileBits(), GlobalBits: globalBits})
	if errors.Is(err, kernel.ErrNoTiling) {
		plan, err = nil, nil
	}
	if err != nil {
		return nil, err
	}
	if (plan == nil) != (comp.Plan == nil) {
		return nil, errors.New("direct kernel.Plan and backend.Compile disagree on whether the circuit tiles")
	}
	if plan == nil {
		return comp, nil
	}
	var a, b bytes.Buffer
	if err := kernel.EncodePlan(&a, plan); err != nil {
		return nil, err
	}
	if err := kernel.EncodePlan(&b, comp.Plan); err != nil {
		return nil, err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return nil, errors.New("direct kernel.Plan encodes differently from backend.Compile's plan")
	}
	return comp, nil
}

func planStats(comp *backend.Compiled) *kernel.PlanStats {
	if comp.Plan == nil {
		return nil
	}
	return &comp.Plan.Stats
}

// statevecLayers fills the statevec timings and the computed bandwidth
// figures shared by the single-device circuit workloads.
func statevecLayers(tr *tracer, m map[string]float64, qubits, w int) {
	spanMedians(tr, m, "kernel.transform", "kernel.plan", "statevec.alloc", "statevec.execute", "statevec.readout")
	m["statevec.execute_gbps_computed"] = ratio(m["statevec.bytes_swept_computed"], m["statevec.execute_s"]) / 1e9
	m["host.triad_gbps_state_sized"] = triadGBps(16<<uint(qubits), w, 5)
	m["statevec.execute_roofline_share"] = ratio(m["statevec.execute_gbps_computed"], m["host.triad_gbps_state_sized"])
}

// layerShare is the share of all op time spent in the self time of the
// spans whose names start with one of the prefixes.
func layerShare(tr *tracer, prefixes ...string) float64 {
	var in, total float64
	for name, s := range tr.selfSeconds() {
		total += s
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				in += s
				break
			}
		}
	}
	return ratio(in, total)
}
