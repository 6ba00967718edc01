package backend

import (
	"sync"
	"testing"

	"qgear/internal/observable"
	"qgear/internal/qft"
)

// TestCompiledMGPUPlannedMatchesPerGate is the backend-level check of
// the shared-IR pipeline on the distributed target: the planned mgpu
// run must produce bit-identical fixed-seed shot counts to the
// single-device per-gate engine (aer), while reporting its plan stats
// and paying one exchange per rank per swap across the rank boundary.
func TestCompiledMGPUPlannedMatchesPerGate(t *testing.T) {
	c, err := qft.Circuit(9, true)
	if err != nil {
		t.Fatal(err)
	}
	perGate, err := Run(c, Config{Target: TargetAer, Shots: 1500, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	// One sweep per gate, but per cr1 ladder: QFT-9's seven ladders of 2
	// to 8 gates are a diagonal group each, 28 gates fewer.
	if st := perGate.PlanStats; st == nil || perGate.TileBits != 0 || st.Global != perGate.KernelStats.EmittedOps-perGate.KernelStats.Measurements-28 || st.Runs != 0 || st.PermSwaps != 0 {
		t.Fatalf("per-gate run did not report the width-0 plan: tile=%d stats=%+v", perGate.TileBits, st)
	}

	const devices = 4
	planned, err := Run(c, Config{Target: TargetNvidiaMGPU, Devices: devices, Workers: 2, Shots: 1500, Seed: 99, TileBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if planned.PlanStats == nil || planned.TileBits != 4 {
		t.Fatalf("planned run missing plan stats (tile=%d)", planned.TileBits)
	}
	if st := planned.PlanStats; planned.Exchanges == 0 || planned.Exchanges != devices*st.ExchangeSegs || st.ExchangeGates != 0 {
		t.Errorf("planned run paid %d exchanges for %d rank-bit swaps on %d devices (%d exchange gates)", planned.Exchanges, st.ExchangeSegs, devices, st.ExchangeGates)
	}
	if !probsClose(planned.Probabilities, perGate.Probabilities, 0) {
		t.Fatal("planned mgpu probabilities differ from the single-device per-gate engine's")
	}
	if len(planned.Counts) != len(perGate.Counts) {
		t.Fatalf("distinct outcomes differ: %d vs %d", len(planned.Counts), len(perGate.Counts))
	}
	for key, n := range perGate.Counts {
		if planned.Counts[key] != n {
			t.Fatalf("outcome %b: %d vs %d — not bit-identical", key, n, planned.Counts[key])
		}
	}
}

// TestMGPUExecutesPlansOnly: the two things the distributed target
// cannot run fail with an error where they are configured or loaded —
// per-gate sweeps at Compile, a width-0 plan at execution — and a
// geometry no plan exists for (three devices; more rank bits than the
// circuit leaves room for) is refused by Compile, not compiled into a
// plan that can never run.
func TestMGPUExecutesPlansOnly(t *testing.T) {
	c, err := qft.Circuit(6, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Target: TargetNvidiaMGPU, Devices: 2, TileBits: -1},
		{Target: TargetNvidiaMGPU, Devices: 3},
		{Target: TargetNvidiaMGPU, Devices: 64},
	} {
		if err := cfg.Validate(); (err == nil) != (cfg.Devices == 64) {
			t.Errorf("Validate(%+v) = %v", cfg, err)
		}
		if comp, err := Compile(c, cfg); err == nil {
			t.Errorf("Compile accepted %+v (plan %v)", cfg, comp.Plan != nil)
		}
	}
	// Every Compiled carries a plan; the per-gate schedule is one no rank
	// shard can run.
	cfg := Config{Target: TargetNvidiaMGPU, Devices: 2}
	perGate, err := Compile(c, Config{Target: TargetAer})
	if err != nil || perGate.Plan == nil || perGate.Plan.TileBits != 0 {
		t.Fatalf("aer compile: plan %+v, err %v", perGate.Plan, err)
	}
	if _, err := RunCompiled(perGate, cfg); err == nil {
		t.Error("RunCompiled ran a width-0 plan on nvidia-mgpu")
	}
	if _, err := RunExpectationCompiled(perGate, observable.TransverseFieldIsing(6, 1, 0.7), cfg); err == nil {
		t.Error("RunExpectationCompiled ran a width-0 plan on nvidia-mgpu")
	}
	// Everything that ran per-gate on mgpu before — a one-device world,
	// 1-qubit shards — compiles to a plan now.
	for _, cfg := range []Config{{Target: TargetNvidiaMGPU}, {Target: TargetNvidiaMGPU, Devices: 32}} {
		comp, err := Compile(c, cfg)
		if err != nil || comp.Plan == nil {
			t.Fatalf("%+v: plan %v, err %v", cfg, comp != nil && comp.Plan != nil, err)
		}
		got, err := RunCompiled(comp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(c, Config{Target: TargetAer})
		if err != nil {
			t.Fatal(err)
		}
		if !probsClose(got.Probabilities, want.Probabilities, 0) {
			t.Errorf("%+v: probabilities differ from the single-device per-gate engine's", cfg)
		}
	}
}

// TestCompiledReplaysConcurrently checks the Compiled contract the
// service's plan cache depends on: one compiled artifact executed many
// times, concurrently, always yields the identical distribution.
func TestCompiledReplaysConcurrently(t *testing.T) {
	c, err := qft.Circuit(8, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Target: TargetNvidia, Workers: 2, TileBits: 4}
	comp, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Plan == nil {
		t.Fatal("expected a compiled plan")
	}
	ref, err := RunCompiled(comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const replays = 8
	results := make([]*Result, replays)
	errs := make([]error, replays)
	var wg sync.WaitGroup
	for i := 0; i < replays; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunCompiled(comp, cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < replays; i++ {
		if errs[i] != nil {
			t.Fatalf("replay %d: %v", i, errs[i])
		}
		for j := range ref.Probabilities {
			if results[i].Probabilities[j] != ref.Probabilities[j] {
				t.Fatalf("replay %d diverged at index %d", i, j)
			}
		}
	}
}
