package backend

import (
	"bytes"
	"runtime"
	"testing"

	"qgear/internal/randcirc"
)

func compileTestCircuit(t *testing.T, cfg Config) *Compiled {
	t.Helper()
	c, err := randcirc.Generate(randcirc.Spec{Qubits: 8, Blocks: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// TestSizeBytesAccounting: results are charged their probability
// vector; compiled artifacts their kernel + plan.
func TestSizeBytesAccounting(t *testing.T) {
	res := &Result{Probabilities: make([]float64, 1<<10)}
	if got := res.SizeBytes(); got < 8<<10 {
		t.Fatalf("1024-amplitude result accounted at %d B, want >= %d", got, 8<<10)
	}
	comp := compileTestCircuit(t, Config{Target: TargetNvidia, TileBits: 4})
	if comp.SizeBytes() <= comp.Kernel.SizeBytes() {
		t.Fatalf("compiled size %d should exceed its kernel alone (%d)", comp.SizeBytes(), comp.Kernel.SizeBytes())
	}
}

// TestCompiledSizeBytesTracksHeap: a width-0 plan executes the kernel's
// own instruction slice, so a Compiled is charged for it once — what the
// plan cache's byte budget sees is within 15 % of what compiling the
// serve_mix circuit shape keeps alive — while the decoded artifact, whose
// plan owns a second copy, is charged for both. HeapAlloc is
// process-wide, so what one compile keeps alive is the mean over copies
// held together: an OS thread the scheduler starts meanwhile, as it does
// on a loaded host, puts 5,248 B of runtime structures on the heap,
// which a single copy would be charged with.
func TestCompiledSizeBytesTracksHeap(t *testing.T) {
	c, err := randcirc.Generate(randcirc.Spec{Qubits: 12, Blocks: 100, Seed: 7, Measure: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Target: TargetNvidia, TileBits: -1}
	var before, after runtime.MemStats
	comps := make([]*Compiled, 16)
	for i := 0; i < 3; i++ { // earlier tests' state slabs outlive two cycles
		runtime.GC()
	}
	runtime.ReadMemStats(&before)
	for i := range comps {
		if comps[i], err = Compile(c, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	comp := comps[0]
	held := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(comps))
	charged := float64(comp.SizeBytes())
	t.Logf("SizeBytes %.0f, heap growth %.0f", charged, held)
	if held < 0.85*charged || held > 1.15*charged {
		t.Errorf("SizeBytes charges %.0f bytes for a compiled circuit that keeps %.0f alive", charged, held)
	}
	var buf bytes.Buffer
	if err := comp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCompiled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if own := comp.SizeBytes() - comp.Kernel.SizeBytes(); decoded.SizeBytes() < comp.SizeBytes()+2*own {
		t.Errorf("compiled: %d bytes (%d beside its kernel); decoded, with its own instruction copy: %d", comp.SizeBytes(), own, decoded.SizeBytes())
	}
	runtime.KeepAlive(comps)
	runtime.KeepAlive(c)
}
