package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/oracle"
	"qgear/internal/qcrank"
	"qgear/internal/qmath"
	"qgear/internal/randcirc"
	"qgear/internal/statevec"
)

// The arena layout's contract: a plan costs what its ops cost — to
// hold, to compile and to rebind.

// TestSegmentSize pins the segment header: a run of one op must cost
// about what the op costs, not a 168-byte segment on top of it.
func TestSegmentSize(t *testing.T) {
	if sz := unsafe.Sizeof(Segment{}); sz > 24 {
		t.Fatalf("Segment is %d bytes, want ≤ 24", sz)
	}
}

// qcrankKernel is the benchmark's qcrank_mgpu circuit shape: an a9_d6
// image encoding, 15 qubits, 6160 instructions.
func qcrankKernel(tb testing.TB) *Kernel { return qcrankKernelOf(tb, 9, 6) }

// qcrankKernelOf is an a<addr>_d<data> image encoding of seeded random
// values: addr+data qubits.
func qcrankKernelOf(tb testing.TB, addr, data int) *Kernel {
	tb.Helper()
	cplan, err := qcrank.NewPlan(data<<addr, addr, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rng := qmath.NewRNG(2026)
	values := make([]float64, data<<addr)
	for i := range values {
		values[i] = 2*rng.Float64() - 1
	}
	c, err := qcrank.Encode(values, cplan, true)
	if err != nil {
		tb.Fatal(err)
	}
	k, _, err := FromCircuit(c, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

// qcrankPlanConfig is what backend.Compile asks for on two mgpu ranks
// of a host whose L2 holds a 2^16-amplitude tile.
var qcrankPlanConfig = PlanConfig{TileBits: 16, GlobalBits: 1}

// TestPlanCompileAllocBound: compiling a plan allocates little more
// than the plan — the arenas are sized once from the instruction
// stream and written in place, so nothing is built in scratch and
// copied out, and nothing regrows. The counters are process-wide, so a
// compile's share is the mean over runs (TestPerGatePlanAllocBound has
// the reason).
func TestPlanCompileAllocBound(t *testing.T) {
	const runs = 64
	k := qcrankKernel(t)
	var p *TilePlan
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		p = mustPlan(t, k, qcrankPlanConfig)
	}
	runtime.ReadMemStats(&after)

	if got, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(p.SizeBytes())*3/2; got > limit {
		t.Errorf("compiling a %d-byte plan allocated %d bytes, want ≤ %d", p.SizeBytes(), got, limit)
	}
	// The compile this layout replaced made 160 allocations here, and 94
	// while each qubit's use list grew by append; one arena for all the
	// lists leaves 14.
	if got := (after.Mallocs - before.Mallocs) / runs; got >= 20 {
		t.Errorf("compile made %d allocations, want fewer than 20", got)
	}
	if p.Stats.ExchangeSegs == 0 || p.Stats.Runs == 0 || len(p.Binds) == 0 {
		t.Fatalf("plan %+v relabels no rank bit or has no run", p.Stats)
	}
	// Every gate got an op slot and only the global sweeps left theirs
	// unused; the binding sites were counted exactly.
	if cap(p.Ops) != len(p.Ops)+len(p.Globals) || cap(p.Binds) != len(p.Binds) {
		t.Errorf("arenas were not sized once: ops %d/%d (+%d globals), binding sites %d/%d",
			len(p.Ops), cap(p.Ops), len(p.Globals), len(p.Binds), cap(p.Binds))
	}
}

// TestSizeBytesTracksHeap: the figure the plan cache charges is what a
// plan keeps alive — within 15 % of the heap growth across decoding one,
// tiled or width-0 (a decoded width-0 plan owns its instructions; one
// compiled beside its kernel is charged by SizeBytesBeside). HeapAlloc
// is process-wide, so one plan's share is the mean over copies held
// together: an OS thread the scheduler starts meanwhile, as it does on a
// loaded host, puts 5,248 B of runtime structures on the heap, which a
// single copy would be charged with.
func TestSizeBytesTracksHeap(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *TilePlan
	}{
		{"qcrank", mustPlan(t, qcrankKernel(t), qcrankPlanConfig)},
		{"serve", mustPlan(t, serveKernel(t), PlanConfig{TileBits: 16})},
	} {
		enc := encodePlanBytes(t, tc.plan)
		var before, after runtime.MemStats
		plans := make([]*TilePlan, 16)
		for i := 0; i < 3; i++ { // earlier tests' state slabs outlive two cycles
			runtime.GC()
		}
		runtime.ReadMemStats(&before)
		for i := range plans {
			var err error
			if plans[i], err = DecodePlan(bytes.NewReader(enc)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		held := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(plans))
		charged := float64(plans[0].SizeBytes())
		t.Logf("%s: SizeBytes %.0f, heap growth %.0f", tc.name, charged, held)
		if held < 0.85*charged || held > 1.15*charged {
			t.Errorf("%s: SizeBytes charges %.0f bytes for a plan that keeps %.0f alive", tc.name, charged, held)
		}
		runtime.KeepAlive(plans)
		runtime.KeepAlive(enc) // or its collection is counted against the plan
	}
}

// TestBindSharesNothingMutable executes a plan while it is being
// rebound and the rebound copies execute beside it: Bind writes only
// into the arenas it copied, so under -race this is silent, and the
// source plan still encodes to the bytes it had — and the kernel, whose
// instruction slice the width-0 plan executes in place, still equals a
// fresh compile of its circuit.
func TestBindSharesNothingMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nq = 7
	k, _, err := FromCircuit(paramCircuit(nq, rng), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKernel, _, err := FromCircuit(paramCircuit(nq, rand.New(rand.NewSource(9))), Options{})
	if err != nil || !reflect.DeepEqual(k, wantKernel) {
		t.Fatalf("two compiles of one circuit differ (err %v)", err)
	}
	for _, cfg := range []PlanConfig{{TileBits: 3}, {}} {
		plan := mustPlan(t, k, cfg)
		if len(plan.Globals) == 0 || len(plan.Binds) == 0 {
			t.Fatalf("plan %+v has no global sweep or no binding site to patch", plan.Stats)
		}
		if cfg.TileBits == 0 && &plan.Globals[0] != &k.Instrs[0] {
			t.Fatal("the width-0 plan does not share the kernel's instructions")
		}
		want := encodePlanBytes(t, plan)
		wantAmps := ampsOf(t, plan, nq)

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			vals := make([]float64, plan.BindSlots)
			for i := range vals {
				vals[i] = rng.Float64() * 6
			}
			wg.Add(1)
			go func(rebind bool) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					p := plan
					if rebind {
						var err error
						if p, err = plan.Bind(vals); err != nil {
							t.Error(err)
							return
						}
					}
					s := statevec.MustNew(nq, 1)
					if err := p.Execute(s); err != nil {
						t.Error(err)
						return
					}
					if !rebind && !sameAmps(s.Amplitudes(), wantAmps) {
						t.Error("the source plan executed differently while being rebound")
						return
					}
				}
			}(w%2 == 0)
		}
		wg.Wait()
		if !bytes.Equal(encodePlanBytes(t, plan), want) {
			t.Fatalf("tile width %d: Bind mutated the plan it copied", cfg.TileBits)
		}
		if !reflect.DeepEqual(k, wantKernel) {
			t.Fatalf("tile width %d: Bind wrote into the kernel's parameters", cfg.TileBits)
		}
	}
}

// TestBindOwnsOneParamCopy: a rebind's global sites are windows of one
// owned copy of the parameter vector — not a slice apiece, and not the
// caller's, which it may go on to reuse.
func TestBindOwnsOneParamCopy(t *testing.T) {
	k, _, err := FromCircuit(paramCircuit(6, rand.New(rand.NewSource(3))), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, k, PlanConfig{})
	vals := make([]float64, plan.BindSlots)
	for i := range vals {
		vals[i] = float64(i)
	}
	bound, err := plan.Bind(vals)
	if err != nil {
		t.Fatal(err)
	}
	clear(vals)
	slot := 0
	for _, in := range bound.Globals {
		if !parameterized(in) {
			continue
		}
		if cap(in.Params) != len(in.Params) {
			t.Fatalf("slot %d: a %d-value window with room for %d", slot, len(in.Params), cap(in.Params))
		}
		for _, v := range in.Params {
			if v != float64(slot) {
				t.Fatalf("slot %d holds %v", slot, v)
			}
			slot++
		}
	}
	if slot != plan.BindSlots {
		t.Fatalf("%d of %d slots bound", slot, plan.BindSlots)
	}
	// The Globals copy (Ops is empty), the plan and the vector.
	if got := testing.AllocsPerRun(20, func() { planSink, _ = plan.Bind(vals) }); got > 3 {
		t.Errorf("a width-0 rebind made %v allocations, want ≤ 3", got)
	}
}

// serveKernel is the benchmark's serve_mix circuit shape: a measured
// 12-qubit, 100-block random circuit — 300 gates, then 12 measurements.
func serveKernel(tb testing.TB) *Kernel { return randKernel(tb, 12) }

// randKernel is the serve_mix circuit shape on n qubits.
func randKernel(tb testing.TB, n int) *Kernel {
	tb.Helper()
	c, err := randcirc.Generate(randcirc.Spec{Qubits: n, Blocks: 100, Seed: 7, Measure: true})
	if err != nil {
		tb.Fatal(err)
	}
	k, _, err := FromCircuit(c, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

// TestPerGatePlan pins the width-0 plan's shape — compiled at width 0,
// and at every width a state of 12 qubits or fewer fits in (the auto
// width 16 among them): one SegGlobal per planned instruction or
// diagonal group over an
// arena that is the kernel's own instruction slice exactly when nothing
// unplanned sits among the gates, no op, no relabeling, nothing
// absorbed — and DeepEqual to its decoded self either way.
func TestPerGatePlan(t *testing.T) {
	interior := New("interior", 4).H(0).Barrier().Ry(0.3, 1).XCtrl(0, 1).Swap(1, 3).Mz()
	identity := New("identity", 3).H(2).gate1(gate.I, 0).CR1(0.7, 2, 0).Rz(0.2, 1)
	trailing := New("trailing", 3).Rx(0.1, 0).ZCtrl(0, 2).Swap(0, 1).Barrier().Mz()
	soup, _, err := FromCircuit(oracle.Soup(6, 60, qmath.NewRNG(5)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		k      *Kernel
		shared bool
	}{
		{serveKernel(t), true},
		{trailing, true},
		{soup, true}, // nothing unplanned at all
		{interior, false},
		{identity, false},
		{New("empty", 2).Mz(), false}, // nothing planned: no arena to share
		{New("none", 0), false},
	} {
		for _, cfg := range []PlanConfig{{}, {TileBits: tc.k.NumQubits}, {TileBits: 16}, {TileBits: 30}} {
			p := mustPlan(t, tc.k, cfg)
			var want []Instr
			sites := 0 // a parameterized gate each
			for _, in := range tc.k.Instrs {
				if planned(in) {
					want = append(want, in)
					if parameterized(in) {
						sites++
					}
				}
			}
			// One sweep per planned instruction, or per diagonal group.
			var segs []Segment
			for i, at := 0, int32(0); i < len(tc.k.Instrs); {
				n := max(diagGroup(tc.k.Instrs[i:]), 1)
				if planned(tc.k.Instrs[i]) {
					segs = append(segs, Segment{Kind: SegGlobal, Lo: at, Hi: at + int32(n)})
					at += int32(n)
				}
				i += n
			}
			if tc.k == identity && len(segs) != 2 {
				t.Fatalf("identity: cr1 and rz are not one group: %+v", segs)
			}
			if !reflect.DeepEqual(p.Globals, want) || !reflect.DeepEqual(p.Segments, segs) {
				t.Fatalf("%s %+v: segments %+v over %d globals, want %+v over the %d planned instructions", tc.k.Name, cfg, p.Segments, len(p.Globals), segs, len(want))
			}
			if p.TileBits != 0 || p.GlobalBits != 0 || len(p.Ops) != 0 || p.FinalPerm != nil {
				t.Errorf("%s %+v: tile %d, %d rank bits, %d ops, final permutation %v; want none of them",
					tc.k.Name, cfg, p.TileBits, p.GlobalBits, len(p.Ops), p.FinalPerm)
			}
			if p.Stats != (PlanStats{Global: len(segs)}) {
				t.Errorf("%s %+v: stats %+v, want %d global sweeps and nothing else", tc.k.Name, cfg, p.Stats, len(segs))
			}
			if shared := len(want) > 0 && &p.Globals[0] == &tc.k.Instrs[0]; shared != tc.shared {
				t.Errorf("%s %+v: arena shared with the kernel = %v, want %v", tc.k.Name, cfg, shared, tc.shared)
			} else if shared && cap(p.Globals) != len(p.Globals) {
				t.Errorf("%s: the shared arena reaches %d instructions past the plan's", tc.k.Name, cap(p.Globals)-len(p.Globals))
			}
			if p.BindSlots != tc.k.NumParams() || len(p.Binds) != sites {
				t.Errorf("%s %+v: %d sites over %d slots (kernel has %d)", tc.k.Name, cfg, len(p.Binds), p.BindSlots, tc.k.NumParams())
			}
			got, err := DecodePlan(bytes.NewReader(encodePlanBytes(t, p)))
			if err != nil {
				t.Fatalf("%s %+v: %v", tc.k.Name, cfg, err)
			}
			if !reflect.DeepEqual(got, p) || !reflect.DeepEqual(p, got) {
				t.Errorf("%s %+v: plan drifted through encoding:\n%+v\n%+v", tc.k.Name, cfg, p, got)
			}
		}
	}
}

// TestPerGatePlanAllocBound: the width-0 plan of the serve_mix circuit
// is its segment headers, its binding sites and the plan value — one
// TileOp per gate would be four times the bytes in 74 allocations. The
// counters are process-wide, so a compile's share is the mean over
// runs: an OS thread the scheduler starts meanwhile, as it does on a
// loaded host, puts its runtime structures on the heap (five objects,
// 5,248 B), which a single run would charge to the compile.
func TestPerGatePlanAllocBound(t *testing.T) {
	const runs = 64
	k := serveKernel(t)
	var before, after runtime.MemStats
	var p *TilePlan
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		p = mustPlan(t, k, PlanConfig{TileBits: 16})
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 12<<10 {
		t.Errorf("compiling the per-gate plan of %d gates allocated %d bytes, want ≤ 12 KiB", p.Stats.Global, got)
	}
	if got := (after.Mallocs - before.Mallocs) / runs; got > 8 {
		t.Errorf("compile made %d allocations, want ≤ 8", got)
	}
	if p.Stats.Global != 300 || len(p.Binds) == 0 {
		t.Fatalf("plan %+v with %d binding sites is not the serve_mix shape", p.Stats, len(p.Binds))
	}
	// What an owner of kernel and plan is charged for the plan is what
	// the compile allocated: the shared instructions are the kernel's.
	if own, all := p.SizeBytesBeside(k), p.SizeBytes(); own > 12<<10 || all < 3*own {
		t.Errorf("the plan is charged %d bytes beside its kernel and %d alone", own, all)
	}
}

var planSink *TilePlan

func benchmarkPlan(b *testing.B, k *Kernel, cfg PlanConfig) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Plan(k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		planSink = p
	}
}

func BenchmarkPlanPerGate(b *testing.B) { benchmarkPlan(b, serveKernel(b), PlanConfig{TileBits: 16}) }

func BenchmarkPlanQCrank(b *testing.B) { benchmarkPlan(b, qcrankKernel(b), qcrankPlanConfig) }

func BenchmarkPlanQFT21(b *testing.B) {
	k, _, err := FromCircuit(qftCircuit(21), Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkPlan(b, k, PlanConfig{TileBits: 16})
}

// BenchmarkExecuteQFT21 runs QFT-21's per-gate plan (aer's: one sweep
// per gate or diagonal group) and its tile-16 plan on one worker, from
// a fresh |0…0⟩ each time; SetBytes is one pass over the state. Two
// more legs run the same two plan shapes: "basis", QFT-21 after X on
// seed-chosen qubits (the shape of benchmark/'s qft_exec), and
// "randcirc20", a random circuit of 20 qubits and 100 blocks (seed 7).
// The support (statevec.State) skips most of a QFT's sweeps until its
// last few Hadamards; randcirc20's state is dense from gate 112 of 300
// on, and its first 112 gates sweep about 26 states' worth.
func BenchmarkExecuteQFT21(b *testing.B) {
	basis := circuit.New(21, 0)
	rng := qmath.NewRNG(47)
	for q := 0; q < 21; q++ {
		if rng.Intn(2) == 1 {
			basis.X(q)
		}
	}
	basis.Ops = append(basis.Ops, qftCircuit(21).Ops...)
	dense, err := randcirc.Generate(randcirc.Spec{Qubits: 20, Blocks: 100, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		c    *circuit.Circuit
	}{{"", qftCircuit(21)}, {"basis/", basis}, {"randcirc20/", dense}} {
		k, _, err := FromCircuit(leg.c, Options{})
		if err != nil {
			b.Fatal(err)
		}
		n := leg.c.NumQubits
		for _, tb := range []int{0, 16} {
			p, err := Plan(k, PlanConfig{TileBits: tb})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%stile=%d", leg.name, tb), func(b *testing.B) {
				b.SetBytes(16 << n)
				for i := 0; i < b.N; i++ {
					s := statevec.MustNew(n, 1)
					if err := p.Execute(s); err != nil {
						b.Fatal(err)
					}
					s.Release()
				}
			})
		}
	}
}
