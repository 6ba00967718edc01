package backend_test

import (
	"bytes"
	"reflect"
	"testing"

	"qgear/internal/artifact/artifacttest"
	. "qgear/internal/backend"
	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/statevec"
)

func encodeCompiled(tb testing.TB, c *Compiled) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeCompiled starts from what Compile really produces for one
// small circuit of each workload family, tiled and per-gate, from the
// three mixes of a width-0 plan the plan reader refuses — a tile run, a
// relabeling, rank bits — and from a plan with parameter slots the
// kernel does not have, and one marked not bindable.
func FuzzDecodeCompiled(f *testing.F) {
	var like []byte
	for i, c := range artifacttest.SeedCircuits(f) {
		comp, err := Compile(c, Config{Target: TargetNvidia, TileBits: 3 - 4*(i%2)}) // the second one per-gate
		if err != nil {
			f.Fatal(err)
		}
		like = encodeCompiled(f, comp)
		f.Add(artifacttest.Payload(f, like))
		slots, bare := *comp.Plan, *comp.Plan
		slots.BindSlots++
		bare.Binds, bare.BindSlots = nil, 0
		unbindable := bytes.Clone(artifacttest.Payload(f, like))
		// The plan's bindable byte precedes BindSlots, the site count, the
		// sites, the transform stats and the tile width.
		unbindable[len(artifacttest.Payload(f, encodeCompiled(f, &Compiled{Kernel: comp.Kernel, Plan: &bare})))-9-6*8-8] = 0
		for _, bad := range [][]byte{encodeCompiled(f, &Compiled{Kernel: comp.Kernel, Plan: &slots}), artifacttest.Forge(f, like, unbindable)} {
			if _, err := DecodeCompiled(bytes.NewReader(bad)); err == nil {
				f.Fatal("a plan with parameter slots its kernel lacks, or marked not bindable, decoded")
			}
			f.Add(artifacttest.Payload(f, bad))
		}
		if comp.Plan.TileBits != 0 {
			continue
		}
		for _, spoil := range []func(p *kernel.TilePlan){
			func(p *kernel.TilePlan) { p.Segments[0] = kernel.Segment{Kind: kernel.SegRun} },
			func(p *kernel.TilePlan) { p.Segments[0] = kernel.Segment{Kind: kernel.SegBitSwap, B: 1} },
			func(p *kernel.TilePlan) { p.GlobalBits = 1 },
		} {
			p := *comp.Plan
			p.Segments = append([]kernel.Segment(nil), p.Segments...)
			spoil(&p)
			bad := encodeCompiled(f, &Compiled{Kernel: comp.Kernel, Plan: &p})
			if _, err := DecodeCompiled(bytes.NewReader(bad)); err == nil {
				f.Fatal("an illegal width-0 mix decoded")
			}
			f.Add(artifacttest.Payload(f, bad))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		artifacttest.FuzzDecoder(t, like, payload, func(sealed []byte) (func() ([]byte, error), error) {
			comp, err := DecodeCompiled(bytes.NewReader(sealed))
			return func() ([]byte, error) {
				var buf bytes.Buffer
				err := comp.Encode(&buf)
				return buf.Bytes(), err
			}, err
		})
	})
}

// goldenCompiled is written out by hand so the committed bytes move
// only when a layout does (the kernel's, the plan's or this one's).
func goldenCompiled() *Compiled {
	return &Compiled{
		Kernel: &kernel.Kernel{Name: "golden", NumQubits: 2, NumClbits: 1, Instrs: []kernel.Instr{
			{Kind: kernel.KGate, Gate: gate.H, Qubits: []int{0}},
			{Kind: kernel.KMeasure, Qubits: []int{1}, Clbit: 0},
		}},
		Plan: &kernel.TilePlan{
			TileBits: 1, NumQubits: 2,
			Segments: []kernel.Segment{{Kind: kernel.SegRun, Lo: 0, Hi: 1}},
			Ops:      []statevec.TileOp{{Kind: statevec.TileMat1, M: [4]complex128{0.5, 0.5, 0.5, -0.5}}},
			Stats:    kernel.PlanStats{TileLocal: 1, Runs: 1},
		},
		TransformStats: kernel.Stats{SourceOps: 2, EmittedOps: 2, Measurements: 1},
	}
}

// TestGoldenCompiled pins the compiled-circuit layout to committed
// bytes, both ways.
func TestGoldenCompiled(t *testing.T) {
	want := artifacttest.Golden(t, "testdata/compiled.golden", encodeCompiled(t, goldenCompiled()))
	comp, err := DecodeCompiled(bytes.NewReader(want))
	if err != nil || !reflect.DeepEqual(comp, goldenCompiled()) {
		t.Fatalf("golden compiled circuit decodes to %+v (err %v)", comp, err)
	}
	// The writer is sized from this; short of the payload, it regrows.
	if got, want := comp.EncodedLen(), len(artifacttest.Payload(t, want)); got != want {
		t.Fatalf("EncodedLen %d, payload is %d bytes", got, want)
	}
}
