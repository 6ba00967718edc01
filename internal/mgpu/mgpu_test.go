package mgpu

import (
	"errors"
	"math"
	"runtime/debug"
	"testing"
	"time"

	"qgear/internal/cancel"
	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/mpi"
	"qgear/internal/observable"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// singleDeviceProbs runs the kernel on one in-memory state as the
// reference.
func singleDeviceProbs(t testing.TB, k *kernel.Kernel) []float64 {
	t.Helper()
	s := statevec.MustNew(k.NumQubits, 1)
	if err := kernel.Execute(k, s); err != nil {
		t.Fatal(err)
	}
	return s.Probabilities()
}

// planFor compiles k's plan for a world of ranks devices — the only
// thing the distributed engine executes. One rank is a single-process
// plan (GlobalBits 0), which needs tileBits < n.
func planFor(t testing.TB, k *kernel.Kernel, ranks, tileBits int) *kernel.TilePlan {
	t.Helper()
	plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: tileBits, GlobalBits: log2ranks(ranks)})
	if err != nil {
		t.Fatalf("plan for %d ranks: %v", ranks, err)
	}
	return plan
}

// simulate plans k for the world and runs it.
func simulate(t testing.TB, k *kernel.Kernel, ranks, tileBits, workers int) *Result {
	t.Helper()
	res, err := SimulateCompiled(k, planFor(t, k, ranks, tileBits), ranks, workers)
	if err != nil {
		t.Fatalf("ranks=%d: %v", ranks, err)
	}
	return res
}

// norm is the 2-norm of the state behind a probability vector.
func norm(probs []float64) float64 {
	var sum float64
	for _, p := range probs {
		sum += p
	}
	return math.Sqrt(sum)
}

func TestGHZAcrossDevices(t *testing.T) {
	// GHZ entangles across the device boundary: the cx fan-out from
	// qubit 0 hits every global qubit. Each rank-bit target is swapped
	// into the tile (the first one evicting the control itself) and
	// handed back at the end: four half-shard swaps, the bytes of the
	// two full-shard exchanges exchange segments paid.
	n := 6
	c := circuit.New(n, 0)
	c.H(0)
	for i := 1; i < n; i++ {
		c.CX(0, i)
	}
	_, res := runRelabeled(t, "ghz", c, 4, 2, 2048)
	p := res.Probabilities
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[len(p)-1]-0.5) > 1e-12 {
		t.Fatalf("GHZ probs wrong: p0=%g pN=%g", p[0], p[len(p)-1])
	}
	for i := 1; i < len(p)-1; i++ {
		if p[i] > 1e-12 {
			t.Fatalf("unexpected probability mass at %d", i)
		}
	}
	if res.Exchanges != 4*4 {
		t.Fatalf("exchanges = %d, want 16", res.Exchanges)
	}
}

func TestControlGlobalTargetLocalNeedsNoComm(t *testing.T) {
	// The control-on-rank-bit case must be communication-free: the
	// controlled gates add no exchange to what the H on the global qubit
	// pays (one swap into the tile and one back, per rank).
	h := circuit.New(4, 0)
	h.H(3) // put amplitude into the |c=1> half (global qubit)
	c := circuit.New(4, 0)
	c.H(3)
	c.CX(3, 0)       // control global, target local
	c.CRY(0.5, 2, 1) // control global, target local
	_, alone := runRelabeled(t, "h", h, 4, 1, 256)
	plan, res := runRelabeled(t, "controlled", c, 4, 1, 256)
	if res.Exchanges != alone.Exchanges || res.Exchanges != 2*4 || plan.Stats.Global != 0 {
		t.Fatalf("exchanges = %d (%d sweeps), the H alone %d; want 8 and no sweep (controlled ops should be free)",
			res.Exchanges, plan.Stats.Global, alone.Exchanges)
	}
}

func TestExchangeAccounting(t *testing.T) {
	// One single-qubit gate on a global qubit = the qubit swapped into
	// the tile and back: two exchanges per rank.
	c := circuit.New(4, 0)
	c.RY(0.5, 3)
	plan, res := runRelabeled(t, "ry", c, 4, 1, 256)
	if res.Exchanges != 2*4 {
		t.Fatalf("exchanges = %d, want 8", res.Exchanges)
	}
	// local = 2 qubits => half a shard, 2 amplitudes × 16 bytes, per
	// rank per swap whose outgoing half is not known to be zero: on the
	// way in every half is zero, on the way back rank 0's ry'd half is
	// the only live one.
	if live, unproven := halfBytes(t, plan); res.BytesSent != 2*16 || live != res.BytesSent || unproven != res.BytesSent {
		t.Fatalf("bytes = %d, want %d (one live half; a dense replay finds %d live, %d unproven)", res.BytesSent, 2*16, live, unproven)
	}
	// Local gates are free.
	k2 := kernel.New("loc", 4).Ry(0.5, 0).XCtrl(0, 1)
	res2 := simulate(t, k2, 4, 1, 1)
	if res2.Exchanges != 0 {
		t.Fatalf("local gates exchanged %d times", res2.Exchanges)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	k := kernel.New("k", 3).H(0)
	plan := planFor(t, k, 4, 1)
	if _, err := SimulateCompiled(k, plan, 3, 1); err == nil {
		t.Fatal("non-power-of-two world accepted")
	}
	if _, err := SimulateCompiled(k, plan, 8, 1); err == nil {
		t.Fatal("world leaving 0 local qubits accepted")
	}
	// 4 ranks on 3 qubits => local = 1, allowed: one tile per shard.
	if plan.TileBits != 1 {
		t.Fatalf("1-qubit shard planned with tile width %d, want 1", plan.TileBits)
	}
	if _, err := SimulateCompiled(k, plan, 4, 1); err != nil {
		t.Fatal(err)
	}
}

// TestNilPlanIsAnError: the distributed engine has no executor but the
// plan's, so a plan-less artifact fails cleanly on both entry points.
func TestNilPlanIsAnError(t *testing.T) {
	k := kernel.New("k", 4).H(0).XCtrl(0, 3)
	if _, err := SimulateCompiled(k, nil, 2, 1); err == nil {
		t.Error("SimulateCompiled ran without a plan")
	}
	h := &observable.Hamiltonian{NumQubits: 4}
	h.Add(observable.NewTerm(1, map[int]observable.Pauli{3: observable.Z}))
	if _, err := ExpectationCompiledCancel(k, nil, h, 2, 1, nil); err == nil {
		t.Error("ExpectationCompiledCancel ran without a plan")
	}
}

// TestKernelSizeMismatch: a plan compiled for another register width
// is refused by every rank before it touches the shard.
func TestKernelSizeMismatch(t *testing.T) {
	plan := planFor(t, kernel.New("wrong", 3).H(0), 2, 1)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		d, err := NewDist(c, 4, 1)
		if err != nil {
			return err
		}
		defer d.Release()
		if err := d.ExecutePlanCancel(plan, nil); err == nil {
			t.Error("plan size mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCancelledWorldReleasesEachSlabOnce: a world stopped part-way —
// after some exchanges have swapped send buffers between ranks — gives
// back shards and buffers that are all distinct memory (no slab with
// two owners on the free list), and the run after it, on those recycled
// slabs, is bit-identical to the single-process reference. Under -race
// a rank releasing what its partner still reads is a reported race. A
// simulation and an expectation with X/Y factors on rank bits (whose
// exchanges follow the plan's) are each stopped at every budget: a run
// either reports ErrCancelled or returns the exact result. The
// expectation of |0…0⟩ runs an empty plan, so every poll it makes — the
// one the zero budget trips included — is one of the expectation's own.
func TestCancelledWorldReleasesEachSlabOnce(t *testing.T) {
	// No GC cycle may age a released slab away before it is counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, ranks = 11, 4
	local := n - log2ranks(ranks)
	c := oracle.Soup(n, 400, qmath.NewRNG(77))
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: 4, GlobalBits: log2ranks(ranks)})
	if err != nil {
		t.Fatal(err)
	}
	ref := statevec.MustNew(n, 1)
	if err := kernel.Execute(k, ref); err != nil {
		t.Fatal(err)
	}
	want := ref.Probabilities()
	h := observable.TransverseFieldIsing(n, 1, 0.7)
	h.Add(observable.NewTerm(0.3, map[int]observable.Pauli{n - 1: observable.Y, 0: observable.Z}))
	// A leg runs a world under flag and fails the test on a finished run
	// that is not exact.
	type leg struct {
		name string
		run  func(flag *cancel.Flag) error
	}
	expLeg := func(name string, k *kernel.Kernel) leg {
		plan := planFor(t, k, ranks, 4)
		want := singleDeviceExpectation(t, k, h)
		return leg{name, func(flag *cancel.Flag) error {
			res, err := ExpectationCompiledCancel(k, plan, h, ranks, 1, flag)
			if err == nil && math.Float64bits(res.Value) != math.Float64bits(want) {
				t.Fatalf("%s: %.17g, want the reference's %.17g", name, res.Value, want)
			}
			return err
		}}
	}
	legs := []leg{
		{"simulate", func(flag *cancel.Flag) error {
			res, err := SimulateCompiledCancel(k, plan, ranks, 1, flag)
			if err == nil && maxDiff(res.Probabilities, want) != 0 {
				t.Fatal("simulate: probabilities differ from the reference")
			}
			return err
		}},
		expLeg("expectation", k),
		expLeg("expectation of |0…0⟩", &kernel.Kernel{Name: "empty", NumQubits: n}),
	}

	// freeSlabs takes every shard-sized slab off the free list.
	freeSlabs := func() [][]complex128 {
		var free [][]complex128
		for {
			before := statevec.SlabStats().Hits
			slab := statevec.TakeSlab(local)
			if statevec.SlabStats().Hits == before {
				return free
			}
			free = append(free, slab)
		}
	}
	freeSlabs()
	for _, leg := range legs {
		stopped := 0
		for _, budget := range []time.Duration{0, 20 * time.Microsecond, 100 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond, time.Hour} {
			if err := leg.run(cancel.WithDeadline(time.Now().Add(budget))); err != nil {
				if !errors.Is(err, cancel.ErrCancelled) {
					t.Fatalf("%s, budget %v: %v", leg.name, budget, err)
				}
				stopped++
			}
			free := freeSlabs()
			seen := make(map[*complex128]bool, len(free))
			for _, slab := range free {
				if seen[&slab[0]] {
					t.Fatalf("%s, budget %v: one slab is on the free list twice", leg.name, budget)
				}
				seen[&slab[0]] = true
			}
			if len(free) < ranks || len(free) > 2*ranks {
				t.Fatalf("%s, budget %v: %d slabs came back from %d ranks, want a shard each and at most a buffer each", leg.name, budget, len(free), ranks)
			}
			for _, slab := range free[:ranks] { // the next world runs on recycled memory
				statevec.PutSlab(slab)
			}
			if err := leg.run(nil); err != nil {
				t.Fatalf("%s after budget %v: %v", leg.name, budget, err)
			}
			freeSlabs()
		}
		if stopped == 0 {
			t.Fatalf("%s: no world was stopped; the zero budget must always cancel", leg.name)
		}
	}
}
