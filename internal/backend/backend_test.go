package backend

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qgear/internal/circuit"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
	"qgear/internal/sampling"
)

func probsClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestUnknownTargetRejected(t *testing.T) {
	if _, err := Run(circuit.GHZ(2, false), Config{Target: "tpu"}); err == nil {
		t.Fatal("unknown target accepted")
	}
	if Target("tpu").Valid() {
		t.Fatal("tpu valid")
	}
	if len(Targets()) != 5 {
		t.Fatal("target list wrong")
	}
}

func TestShotSampling(t *testing.T) {
	c := circuit.GHZ(3, true)
	res, err := Run(c, Config{Target: TargetNvidia, Shots: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 4000 {
		t.Fatalf("total shots %d", res.Counts.Total())
	}
	// GHZ: only |000> and |111>.
	if res.Counts[0]+res.Counts[7] != 4000 {
		t.Fatalf("non-GHZ outcomes sampled: %v", res.Counts)
	}
	if res.Counts[0] < 1700 || res.Counts[0] > 2300 {
		t.Fatalf("GHZ balance off: %v", res.Counts)
	}
	// Same seed reproduces identical counts.
	res2, err := Run(c, Config{Target: TargetNvidia, Shots: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Counts[0] != res.Counts[0] {
		t.Fatal("sampling not deterministic under fixed seed")
	}
}

// TestSampledCountsIgnoreTheWorkerBudget: a large seeded draw runs on
// the run's worker budget — nvidia at 1, 2 and 4 workers, nvidia-mgpu at
// 2×1 and 4×1 — and every budget gives the counts of the one-worker
// draw of the same probabilities.
func TestSampledCountsIgnoreTheWorkerBudget(t *testing.T) {
	const shots = 300000 // past 2^14 shots for each of four workers
	c := oracle.Soup(12, 150, qmath.NewRNG(8))
	c.MeasureAll()
	var want sampling.Counts
	for _, cfg := range []Config{
		{Target: TargetNvidia, Workers: 1},
		{Target: TargetNvidia, Workers: 2},
		{Target: TargetNvidia, Workers: 4},
		{Target: TargetNvidiaMGPU, Devices: 2, Workers: 1},
		{Target: TargetNvidiaMGPU, Devices: 4, Workers: 1},
	} {
		cfg.Shots, cfg.Seed = shots, 21
		res, err := Run(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			if want, err = sampling.Sample(res.Probabilities, shots, qmath.NewRNG(21)); err != nil {
				t.Fatal(err)
			}
		}
		if w := max(1, cfg.Devices) * cfg.Workers; cfg.SampleWorkers() != w {
			t.Errorf("%s %d×%d: a sampling budget of %d workers, want %d", cfg.Target, cfg.Devices, cfg.Workers, cfg.SampleWorkers(), w)
		}
		if !reflect.DeepEqual(res.Counts, want) {
			t.Errorf("%s %d×%d: counts differ from the serial draw", cfg.Target, cfg.Devices, cfg.Workers)
		}
	}
	if w := (Config{Target: TargetNvidiaMQPU, Devices: 4, Workers: 8}).SampleWorkers(); w != 1 {
		t.Errorf("mqpu draws each QPU's share on %d workers, want 1", w)
	}
}

func TestKernelStatsSurface(t *testing.T) {
	c := oracle.Soup(5, 60, qmath.NewRNG(3))
	res, err := Run(c, Config{Target: TargetNvidia})
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelStats.SourceOps != 60 || res.KernelStats.EmittedOps == 0 {
		t.Fatalf("stats not surfaced: %+v", res.KernelStats)
	}
}

func TestMGPUCommCountersSurface(t *testing.T) {
	c := circuit.GHZ(6, false)
	res, err := Run(c, Config{Target: TargetNvidiaMGPU, Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exchanges == 0 || res.BytesSent == 0 {
		t.Fatal("mgpu counters missing")
	}
}

func TestRunBatchPropagatesErrors(t *testing.T) {
	// An mgpu config whose device count exceeds the circuit must fail.
	bad := []*circuit.Circuit{circuit.GHZ(2, false)}
	if _, err := RunBatch(bad, Config{Target: TargetNvidiaMGPU, Devices: 8}); err == nil {
		t.Fatal("expected error")
	}
}

// TestRunEachBudget: on mqpu, min(devices, n) items run at once on equal
// shares of the workers, a lone item getting all of them; other targets
// run items one at a time. The error returned is the first by index, and
// every item below it has run.
func TestRunEachBudget(t *testing.T) {
	for _, tc := range []struct {
		cfg              Config
		n, conc, workers int
	}{
		{Config{Target: TargetNvidiaMQPU, Devices: 4, Workers: 8}, 1, 1, 8},
		{Config{Target: TargetNvidiaMQPU, Devices: 4, Workers: 8}, 2, 2, 4},
		{Config{Target: TargetNvidiaMQPU, Devices: 4, Workers: 8}, 6, 4, 2},
		{Config{Target: TargetNvidiaMQPU, Devices: 4, Workers: 2}, 6, 4, 1},
		{Config{Target: TargetNvidia, Devices: 4, Workers: 8}, 6, 1, 8},
	} {
		var running, peak atomic.Int64
		ran := make([]atomic.Bool, tc.n)
		err := tc.cfg.runEach(tc.n, "item", func(i, workers int) error {
			ran[i].Store(true)
			if workers != tc.workers {
				t.Errorf("%s n=%d: item %d got %d workers, want %d", tc.cfg.Target, tc.n, i, workers, tc.workers)
			}
			r := running.Add(1)
			for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return nil
		})
		if err != nil || peak.Load() > int64(tc.conc) {
			t.Fatalf("%s n=%d: err %v, %d items at once, want at most %d", tc.cfg.Target, tc.n, err, peak.Load(), tc.conc)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Fatalf("%s n=%d: item %d never ran", tc.cfg.Target, tc.n, i)
			}
		}
	}

	for _, cfg := range []Config{{Target: TargetNvidia}, {Target: TargetNvidiaMQPU, Devices: 4}} {
		for trial := 0; trial < 20; trial++ {
			ran := make([]atomic.Bool, 12)
			err := cfg.runEach(len(ran), "item", func(i, _ int) error {
				ran[i].Store(true)
				if i == 5 || i == 7 {
					return errors.New("fail")
				}
				return nil
			})
			if err == nil || err.Error() != "backend: item 5: fail" {
				t.Fatalf("%s: err %v, want item 5's", cfg.Target, err)
			}
			for i := range ran {
				if below := i <= 5; ran[i].Load() != below && (below || cfg.Target == TargetNvidia) {
					t.Fatalf("%s: item %d ran %v around the first failure at 5", cfg.Target, i, ran[i].Load())
				}
			}
		}
	}
}

// TestChaosBatchPanicReachesCaller: an mqpu batch runs its circuits on
// statevec's pool, and a panic in any one of them is re-raised on the
// caller of RunBatch, where recover catches it; the pool then runs the
// next batch.
func TestChaosBatchPanicReachesCaller(t *testing.T) {
	batch := []*circuit.Circuit{
		oracle.Soup(4, 30, qmath.NewRNG(1)),
		oracle.Soup(4, 30, qmath.NewRNG(2)),
		oracle.Soup(4, 30, qmath.NewRNG(3)),
		oracle.Soup(4, 30, qmath.NewRNG(4)),
	}
	const msg = "chaos: injected execution panic"
	for k := int64(1); k <= int64(len(batch)); k++ {
		var calls atomic.Int64
		cfg := Config{Target: TargetNvidiaMQPU, Devices: 2, ExecHook: func() {
			if calls.Add(1) == k {
				panic(msg)
			}
		}}
		got := func() (v any) {
			defer func() { v = recover() }()
			_, _ = RunBatch(batch, cfg)
			return nil
		}()
		if got != msg {
			t.Fatalf("panic in execution %d: the caller recovered %v", k, got)
		}
	}
	if _, err := RunBatch(batch, Config{Target: TargetNvidiaMQPU, Devices: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestMqpuParallelShotSampling(t *testing.T) {
	// A single circuit on the mqpu target splits its shot budget
	// across devices; the merged counts must be complete and sane.
	c := circuit.GHZ(4, true)
	const shots = 40001 // odd: exercises the remainder split
	res, err := Run(c, Config{Target: TargetNvidiaMQPU, Devices: 4, Shots: shots, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != shots {
		t.Fatalf("merged shots %d != %d", res.Counts.Total(), shots)
	}
	if res.Counts[0]+res.Counts[15] != shots {
		t.Fatalf("non-GHZ outcomes: %v", res.Counts)
	}
	if res.Counts[0] < shots/2-800 || res.Counts[0] > shots/2+800 {
		t.Fatalf("GHZ balance off: %d", res.Counts[0])
	}
	// Deterministic under a fixed seed.
	res2, err := Run(c, Config{Target: TargetNvidiaMQPU, Devices: 4, Shots: shots, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Counts[0] != res.Counts[0] {
		t.Fatal("parallel sampling not deterministic")
	}
	// Tiny budgets fall back to single-device sampling.
	res3, err := Run(c, Config{Target: TargetNvidiaMQPU, Devices: 4, Shots: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Counts.Total() != 2 {
		t.Fatal("small-budget fallback broken")
	}
}

func TestWorkersDefaults(t *testing.T) {
	if w := (Config{Target: TargetAer}).workers(); w != 1 {
		t.Fatalf("aer default workers %d", w)
	}
	if w := (Config{Target: TargetNvidia}).workers(); w < 1 {
		t.Fatalf("nvidia default workers %d", w)
	}
	if w := (Config{Target: TargetNvidia, Workers: 3}).workers(); w != 3 {
		t.Fatalf("explicit workers %d", w)
	}
	if d := (Config{}).devices(); d != 1 {
		t.Fatalf("default devices %d", d)
	}
}

// TestTinyRegistersRunEverywhere: nothing about a plan needs a qubit to
// block. 0- and 1-qubit circuits compile (to the width-0 plan), run and
// read out on every single-process target; nvidia-mgpu, whose rank shards
// need a qubit each besides the rank bits, keeps its own refusal.
func TestTinyRegistersRunEverywhere(t *testing.T) {
	ry := circuit.New(1, 0)
	ry.RY(2*math.Pi/3, 0) // cos²(π/3), sin²(π/3)
	for _, tc := range []struct {
		c    *circuit.Circuit
		want []float64
	}{
		{circuit.New(0, 0), []float64{1}},
		{ry, []float64{0.25, 0.75}},
	} {
		for _, target := range []Target{TargetAer, TargetNvidia, TargetPennylane, TargetNvidiaMQPU} {
			cfg := Config{Target: target, Devices: 2}
			comp, err := Compile(tc.c, cfg)
			if err != nil {
				t.Errorf("%s, %d qubits: compile: %v", target, tc.c.NumQubits, err)
				continue
			}
			if comp.Plan.TileBits != 0 || comp.Plan.Stats.Global != len(tc.c.Ops) {
				t.Errorf("%s, %d qubits: plan %+v, want the width-0 plan", target, tc.c.NumQubits, comp.Plan)
			}
			res, err := RunCompiled(comp, cfg)
			if err != nil {
				t.Errorf("%s, %d qubits: run: %v", target, tc.c.NumQubits, err)
				continue
			}
			if !probsClose(res.Probabilities, tc.want, 1e-15) {
				t.Errorf("%s, %d qubits: probabilities %v, want %v", target, tc.c.NumQubits, res.Probabilities, tc.want)
			}
		}
		if _, err := Compile(tc.c, Config{Target: TargetNvidiaMGPU}); err == nil || !strings.Contains(err.Error(), "at least 2 qubits") {
			t.Errorf("nvidia-mgpu, %d qubits: err = %v, want its at-least-2-qubits refusal", tc.c.NumQubits, err)
		}
	}
}
