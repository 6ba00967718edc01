package backend_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"qgear/internal/artifact/artifacttest"
	. "qgear/internal/backend"
	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
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

// compiledRoundTrips compiles the circuits FuzzDecodeCompiled starts
// from and ten seeded gate soups, tiled and per gate, and calls check
// with each artifact, what it decodes to and its config.
func compiledRoundTrips(t *testing.T, check func(what string, comp, decoded *Compiled, cfg Config)) {
	circuits := artifacttest.SeedCircuits(t)
	for seed := uint64(0); seed < 10; seed++ {
		r := qmath.NewRNG(seed)
		circuits = append(circuits, oracle.Soup(5+r.Intn(4), 50, r))
	}
	for i, c := range circuits {
		for _, tile := range []int{3, -1} { // -1: per gate, the width-0 plan
			cfg := Config{Target: TargetNvidia, TileBits: tile, Workers: 1, Shots: 500, Seed: 13}
			comp, err := Compile(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("circuit %d, tile %d", i, tile)
			if comp.Plan == nil || comp.Plan.TileBits != max(tile, 0) {
				t.Fatalf("%s: compiled plan %+v", what, comp.Plan)
			}
			decoded, err := DecodeCompiled(bytes.NewReader(encodeCompiled(t, comp)))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			check(what, comp, decoded, cfg)
		}
	}
}

// TestCompiledRoundTrip: a Compiled encodes and decodes DeepEqual,
// tiled plan or per-gate schedule.
func TestCompiledRoundTrip(t *testing.T) {
	compiledRoundTrips(t, func(what string, comp, decoded *Compiled, _ Config) {
		if !reflect.DeepEqual(decoded, comp) {
			t.Fatalf("%s: compiled artifact drifted through encoding", what)
		}
	})
}

// TestDecodedCompiledRunsIdentically: executing the decoded artifact
// reproduces the original's probabilities bit for bit (max |Δp| = 0)
// and its fixed-seed shot counts exactly.
func TestDecodedCompiledRunsIdentically(t *testing.T) {
	compiledRoundTrips(t, func(what string, comp, decoded *Compiled, cfg Config) {
		a, err := RunCompiled(comp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunCompiled(decoded, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Probabilities, b.Probabilities) || !reflect.DeepEqual(a.Counts, b.Counts) {
			t.Fatalf("%s: the decoded artifact runs to other probabilities or counts", what)
		}
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
