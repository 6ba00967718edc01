package kernel

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"qgear/internal/qcrank"
	"qgear/internal/qmath"
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
func qcrankKernel(tb testing.TB) *Kernel {
	tb.Helper()
	const addr, data = 9, 6
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
// copied out, and nothing regrows.
func TestPlanCompileAllocBound(t *testing.T) {
	k := qcrankKernel(t)
	var p *TilePlan
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p = mustPlan(t, k, qcrankPlanConfig)
	runtime.ReadMemStats(&after)

	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(p.SizeBytes())*3/2; got > limit {
		t.Errorf("compiling a %d-byte plan allocated %d bytes, want ≤ %d", p.SizeBytes(), got, limit)
	}
	// The compile this layout replaced made 160 allocations here.
	if got := after.Mallocs - before.Mallocs; got >= 160 {
		t.Errorf("compile made %d allocations, want fewer than 160", got)
	}
	if p.Stats.ExchangeGates == 0 || p.Stats.Runs == 0 || len(p.Binds) == 0 {
		t.Fatalf("plan %+v exercises neither arena", p.Stats)
	}
	// Every shard-local gate got an op slot and only the global sweeps
	// left theirs unused; the other two were counted exactly.
	if cap(p.Ops) != len(p.Ops)+len(p.Globals) || cap(p.XOps) != len(p.XOps) || cap(p.Binds) != len(p.Binds) {
		t.Errorf("arenas were not sized once: ops %d/%d (+%d globals), exchange ops %d/%d, binding sites %d/%d",
			len(p.Ops), cap(p.Ops), len(p.Globals), len(p.XOps), cap(p.XOps), len(p.Binds), cap(p.Binds))
	}
}

// TestSizeBytesTracksHeap: the figure the plan cache charges is what a
// plan keeps alive — within 15 % of the heap growth across decoding one.
func TestSizeBytesTracksHeap(t *testing.T) {
	enc := encodePlanBytes(t, mustPlan(t, qcrankKernel(t), qcrankPlanConfig))
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ { // earlier tests' state slabs outlive two cycles
		runtime.GC()
	}
	runtime.ReadMemStats(&before)
	p, err := DecodePlan(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held, charged := float64(after.HeapAlloc)-float64(before.HeapAlloc), float64(p.SizeBytes())
	t.Logf("SizeBytes %.0f, heap growth %.0f", charged, held)
	if held < 0.85*charged || held > 1.15*charged {
		t.Errorf("SizeBytes charges %.0f bytes for a plan that keeps %.0f alive", charged, held)
	}
	runtime.KeepAlive(p)
	runtime.KeepAlive(enc) // or its collection is counted against the plan
}

// TestBindSharesNothingMutable executes a plan while it is being
// rebound and the rebound copies execute beside it: Bind writes only
// into the arenas it copied, so under -race this is silent, and the
// source plan still encodes to the bytes it had.
func TestBindSharesNothingMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nq = 7
	k, _, err := FromCircuit(paramCircuit(nq, rng), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, k, PlanConfig{TileBits: 3})
	if len(plan.Globals) == 0 || len(plan.Binds) == 0 {
		t.Fatalf("plan %+v has no global sweep or no binding site to patch", plan.Stats)
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
		t.Fatal("Bind mutated the plan it copied")
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

func BenchmarkPlanQCrank(b *testing.B) { benchmarkPlan(b, qcrankKernel(b), qcrankPlanConfig) }

func BenchmarkPlanQFT21(b *testing.B) {
	k, _, err := FromCircuit(qftCircuit(21), Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkPlan(b, k, PlanConfig{TileBits: 16})
}
