package backend

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"

	"qgear/internal/artifact/artifacttest"
	"qgear/internal/cancel"
	"qgear/internal/circuit"
	"qgear/internal/observable"
	"qgear/internal/oracle"
	"qgear/internal/qft"
	"qgear/internal/qmath"
	"qgear/internal/sampling"
	"qgear/internal/statevec"
)

// The statevector slab free list, seen from a run: what a warmed run
// allocates, that a recycled slab changes no bit, and that no way out
// of a run — success, error, cancellation, panic — leaves a slab with
// two owners or lost to the free list.

// drainSlabs takes every free n-qubit slab off the free list (and drops
// it), so the next New of that size is a fresh allocation.
func drainSlabs(n int) {
	for {
		before := statevec.SlabStats().Hits
		statevec.TakeSlab(n)
		if statevec.SlabStats().Hits == before {
			return
		}
	}
}

// noGC holds the collector off for one test, so the free list ages only
// when nobody is counting: with cycles running, slabs other tests left
// behind drop out of RetainedBytes mid-assertion.
func noGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestWarmedRunAllocatesWhatItReturns: a warmed 16-qubit sampled
// RunCompiled allocates its 8·2^n probability vector plus a term linear
// in the shots — no second state, no outcome-sized table — and every
// such run is a free-list hit that leaves exactly its slab behind. With
// enough shots for the alias table, the table is one more hit (on one
// device, the slab the run's state just released) and the run adds only
// the table's worklist and the Counts it returns.
func TestWarmedRunAllocatesWhatItReturns(t *testing.T) {
	noGC(t)
	const n = 16
	c, err := qft.Circuit(n, true)
	if err != nil {
		t.Fatal(err)
	}
	c.MeasureAll()
	hits := map[Target]uint64{} // slab takes of a cumulative-path run
	for _, tc := range []struct {
		target Target
		shots  int
		probs  int // bytes of probabilities per outcome a run allocates
	}{
		{TargetNvidia, 1000, 8},
		{TargetAer, 1000, 8},
		{TargetNvidiaMGPU, 1000, 8}, // every rank reads out into its slice of the one vector
		{TargetNvidia, 3 << n, 8},
		{TargetNvidiaMGPU, 3 << n, 8},
	} {
		alias := tc.shots > 1000
		what := fmt.Sprintf("%s shots=%d", tc.target, tc.shots)
		cfg := Config{Target: tc.target, Devices: 2, Workers: 2, Shots: tc.shots, Seed: 7}
		comp, err := Compile(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunCompiled(comp, cfg); err != nil { // warm: the slab exists now
			t.Fatal(err)
		}
		before := statevec.SlabStats()
		var res *Result
		grew := artifacttest.AllocBytes(func() { res, err = RunCompiled(comp, cfg) })
		if err != nil {
			t.Fatal(err)
		}
		after := statevec.SlabStats()
		if after.Misses != before.Misses || after.Hits == before.Hits {
			t.Errorf("%s: warmed run was not a free-list hit: %+v, before %+v", what, after, before)
		}
		if !alias {
			hits[tc.target] = after.Hits - before.Hits
		} else if got := after.Hits - before.Hits; got != hits[tc.target]+1 {
			t.Errorf("%s: %d slab hits, want %d: the state's and one for the alias table", what, got, hits[tc.target]+1)
		}
		if after.RetainedBytes != before.RetainedBytes {
			t.Errorf("%s: retained bytes moved %d → %d over a run", what, before.RetainedBytes, after.RetainedBytes)
		}
		// The probabilities; per shot the sorted draw (8 B) and at worst a
		// Counts entry of its own — or, on the alias path, the worklist
		// (8·2^n) and the Counts as returned; 128 KiB for the result, its
		// trace, tile scratch and the rank mailboxes.
		limit := uint64(tc.probs<<n + 160*tc.shots + 128<<10)
		if alias {
			counts := artifacttest.AllocBytes(func() { _ = make(sampling.Counts, len(res.Counts)) })
			limit = uint64(tc.probs<<n+8<<n+128<<10) + counts
		}
		if grew > limit {
			t.Errorf("%s: warmed run allocated %d bytes, want ≤ %d (%d·2^n = %d)", what, grew, limit, tc.probs, tc.probs<<n)
		}
		if res.Counts.Total() != tc.shots || len(res.Probabilities) != 1<<n {
			t.Errorf("%s: %d probabilities, %d shots", what, len(res.Probabilities), res.Counts.Total())
		}
	}
}

// TestDirtySlabComesBackZero: run QFT-14 (every amplitude non-zero, a
// pending permutation), then a second circuit on the slab it released.
// The second run's probabilities equal, bit for bit, the aer path's on
// a slab that was freshly allocated.
func TestDirtySlabComesBackZero(t *testing.T) {
	noGC(t)
	const n = 14
	second := oracle.Soup(n, 120, qmath.NewRNG(5))
	drainSlabs(n)
	before := statevec.SlabStats()
	ref, err := Run(second, Config{Target: TargetAer})
	if err != nil {
		t.Fatal(err)
	}
	if got := statevec.SlabStats(); got.Misses != before.Misses+1 {
		t.Fatalf("reference run did not allocate its state: %+v, before %+v", got, before)
	}
	drainSlabs(n)

	dirty, err := qft.Circuit(n, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []Target{TargetNvidia, TargetAer, TargetPennylane} {
		if _, err := Run(dirty, Config{Target: TargetNvidia, Workers: 2}); err != nil {
			t.Fatal(err)
		}
		before = statevec.SlabStats()
		got, err := Run(second, Config{Target: target, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if after := statevec.SlabStats(); after.Hits != before.Hits+1 {
			t.Fatalf("%s: second run did not take the dirtied slab: %+v, before %+v", target, after, before)
		}
		if !probsClose(got.Probabilities, ref.Probabilities, 0) {
			t.Fatalf("%s: probabilities on a recycled slab differ from a fresh one", target)
		}
	}
	// The distributed engine recycles shards and exchange buffers alike.
	for i := 0; i < 2; i++ {
		got, err := Run(second, Config{Target: TargetNvidiaMGPU, Devices: 4, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !probsClose(got.Probabilities, ref.Probabilities, 0) {
			t.Fatalf("mgpu run %d: probabilities differ from the single-device reference", i)
		}
	}
}

// TestExpectationRecyclesState: the expectation path releases after the
// reduce — value bits unchanged run over run, every run after the first
// a hit.
func TestExpectationRecyclesState(t *testing.T) {
	noGC(t)
	const n = 12
	c := soupCircuit(n, 90, 3)
	h := observable.TransverseFieldIsing(n, 1, 0.6)
	for _, cfg := range []Config{
		{Target: TargetNvidia, Workers: 2},
		{Target: TargetNvidiaMQPU, Devices: 3, Workers: 2},
		{Target: TargetNvidiaMGPU, Devices: 2},
	} {
		first, err := RunExpectation(c, h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := statevec.SlabStats()
		for i := 0; i < 3; i++ {
			r, err := RunExpectation(c, h, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if *r.ExpValue != *first.ExpValue {
				t.Fatalf("%s: ⟨H⟩ changed on a recycled slab: %v vs %v", cfg.Target, *r.ExpValue, *first.ExpValue)
			}
		}
		after := statevec.SlabStats()
		if after.Misses != before.Misses || after.RetainedBytes != before.RetainedBytes {
			t.Errorf("%s: repeated expectation runs missed or leaked: %+v, before %+v", cfg.Target, after, before)
		}
	}
}

// TestSweepPointsRecycleOneSlab: a sequential sweep's points take and
// release like every other run, so the whole sweep holds one slab.
func TestSweepPointsRecycleOneSlab(t *testing.T) {
	noGC(t)
	c := sweepTestCircuit(9)
	h := observable.TransverseFieldIsing(9, 1, 0.7)
	points := sweepTestPoints(c.NumParams(), 12, 4)
	cfg := Config{Target: TargetNvidia, Workers: 2}
	if _, err := RunSweep(c, h, points[:1], cfg); err != nil {
		t.Fatal(err)
	}
	before := statevec.SlabStats()
	if _, err := RunSweep(c, h, points, cfg); err != nil {
		t.Fatal(err)
	}
	after := statevec.SlabStats()
	if after.Misses != before.Misses || after.Hits != before.Hits+uint64(len(points)) {
		t.Errorf("sweep of %d points: %d hits, %d misses; want one hit per point",
			len(points), after.Hits-before.Hits, after.Misses-before.Misses)
	}
	if after.RetainedBytes != before.RetainedBytes {
		t.Errorf("retained bytes moved %d → %d over a sweep", before.RetainedBytes, after.RetainedBytes)
	}
}

// TestMqpuFanOutSharesNoSlab: concurrent devices at mixed sizes (run
// under -race in `make test`) produce what sequential runs produce, bit
// for bit, each result labeled with the mqpu target.
func TestMqpuFanOutSharesNoSlab(t *testing.T) {
	var comps []*Compiled
	var want [][]float64
	for i := 0; i < 12; i++ {
		c := oracle.Soup(8+i%3, 60, qmath.NewRNG(uint64(100+i)))
		comp, err := Compile(c, Config{Target: TargetNvidiaMQPU})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Run(c, Config{Target: TargetAer})
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, comp)
		want = append(want, ref.Probabilities)
	}
	for round := 0; round < 3; round++ {
		out, err := RunBatchCompiled(comps, Config{Target: TargetNvidiaMQPU, Devices: 4, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range out {
			if !probsClose(r.Probabilities, want[i], 0) || r.Target != TargetNvidiaMQPU {
				t.Fatalf("round %d circuit %d: mqpu probabilities (labeled %s) differ from the sequential run", round, i, r.Target)
			}
		}
	}
}

// TestFailedRunsLeakNoSlab: a cancelled run gives its slab back (on
// every engine), a run whose ExecHook panics never took one, and the
// runs that follow are hits with the right bits.
func TestFailedRunsLeakNoSlab(t *testing.T) {
	noGC(t)
	const n = 12
	c := oracle.Soup(n, 200, qmath.NewRNG(9))
	c.H(n - 1) // an exchange on the distributed engine
	ref, err := Run(c, Config{Target: TargetAer})
	if err != nil {
		t.Fatal(err)
	}
	h := observable.TransverseFieldIsing(n, 1, 0.5)
	for _, cfg := range []Config{
		{Target: TargetNvidia, Workers: 2},
		{Target: TargetAer},
		{Target: TargetNvidiaMGPU, Devices: 4},
	} {
		what := string(cfg.Target)
		if _, err := Run(c, cfg); err != nil { // warm
			t.Fatal(err)
		}
		warm := statevec.SlabStats()

		cancelled := cfg
		cancelled.Cancel = &cancel.Flag{}
		cancelled.Cancel.Cancel()
		if _, err := Run(c, cancelled); !errors.Is(err, cancel.ErrCancelled) {
			t.Fatalf("%s: cancelled run returned %v", what, err)
		}
		if _, err := RunExpectation(c, h, cancelled); !errors.Is(err, cancel.ErrCancelled) {
			t.Fatalf("%s: cancelled expectation returned %v", what, err)
		}
		if got := statevec.SlabStats(); got.Misses != warm.Misses || got.RetainedBytes != warm.RetainedBytes {
			t.Errorf("%s: cancelled runs missed or leaked: %+v, warm %+v", what, got, warm)
		}

		panicking := cfg
		panicking.ExecHook = func() { panic("injected") }
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ExecHook panic did not propagate", what)
				}
			}()
			_, _ = Run(c, panicking)
		}()
		before := statevec.SlabStats()
		if before.Misses != warm.Misses || before.RetainedBytes != warm.RetainedBytes {
			t.Errorf("%s: a run that panicked in its hook moved the free list: %+v, warm %+v", what, before, warm)
		}

		got, err := Run(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if after := statevec.SlabStats(); after.Misses != before.Misses {
			t.Errorf("%s: the run after the failures allocated a state", what)
		}
		if !probsClose(got.Probabilities, ref.Probabilities, 0) {
			t.Fatalf("%s: probabilities after failed runs differ from the reference", what)
		}
	}
	// A failure every rank raises (a plan swapping a rank bit beyond the
	// world: each rank panics naming a peer that does not exist)
	// releases every shard exactly once.
	wide := circuit.New(n+1, 0)
	wide.H(0).H(n)
	compWide, err := Compile(wide, Config{Target: TargetNvidiaMGPU, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The ranks allocate n, the rank-bit swap addresses n+1.
	compWide.Kernel.NumQubits, compWide.Plan.NumQubits = n, n
	warm := statevec.SlabStats()
	if _, err := RunCompiled(compWide, Config{Target: TargetNvidiaMGPU, Devices: 2}); err == nil {
		t.Fatal("mis-sized plan ran")
	}
	if got := statevec.SlabStats(); got.RetainedBytes < warm.RetainedBytes {
		t.Errorf("rank errors lost slabs: retained %d → %d", warm.RetainedBytes, got.RetainedBytes)
	}
	got, err := Run(c, Config{Target: TargetNvidiaMGPU, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !probsClose(got.Probabilities, ref.Probabilities, 0) {
		t.Fatal("mgpu probabilities after rank errors differ from the reference")
	}
}
