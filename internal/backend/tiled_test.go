package backend

import (
	"fmt"
	"math"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/observable"
	"qgear/internal/qcrank"
	"qgear/internal/qft"
	"qgear/internal/qimage"
	"qgear/internal/qmath"
	"qgear/internal/randcirc"
)

// TestTiledCountsBitIdentical is the backend-level acceptance check:
// with a fixed seed, shot counts through the tiled executor must equal
// the per-gate path bit for bit, on both workloads the ablation names.
func TestTiledCountsBitIdentical(t *testing.T) {
	qftC, err := qft.Circuit(12, true)
	if err != nil {
		t.Fatal(err)
	}
	img, err := qimage.Synthetic("finger", 16, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := qcrank.NewPlan(img.Pixels(), 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	qcC, err := qcrank.Encode(img.Pix, plan, true)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
	}{
		{"qft12", qftC},
		{"qcrank", qcC},
	} {
		run := func(tileBits int) (map[uint64]int, error) {
			res, err := Run(tc.c, Config{
				Target: TargetNvidia, Workers: 4, Shots: 2000, Seed: 77,
				TileBits: tileBits,
			})
			if err != nil {
				return nil, err
			}
			return res.Counts, nil
		}
		perGate, err := run(-1) // tiling disabled
		if err != nil {
			t.Fatalf("%s per-gate: %v", tc.name, err)
		}
		tiled, err := run(6) // forced small tiles so blocking engages
		if err != nil {
			t.Fatalf("%s tiled: %v", tc.name, err)
		}
		if len(perGate) != len(tiled) {
			t.Fatalf("%s: %d vs %d distinct outcomes", tc.name, len(perGate), len(tiled))
		}
		for key, n := range perGate {
			if tiled[key] != n {
				t.Fatalf("%s: outcome %b count %d vs %d — not bit-identical", tc.name, key, n, tiled[key])
			}
		}
	}
}

// qcrankTestCircuit is a measured a<addr>_d<data> QCrank encoding of
// seeded random values: addr+data qubits.
func qcrankTestCircuit(tb testing.TB, addr, data int) *circuit.Circuit {
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
	return c
}

// splitStateCircuits are the 13- to 16-qubit circuits whose state fits
// a 16-qubit tile: the a9_d6 QCrank encoding (15 qubits, 6153 gates)
// and the serve_mix random circuit shape at 13 and 16 qubits.
func splitStateCircuits(t *testing.T) map[string]*circuit.Circuit {
	t.Helper()
	out := map[string]*circuit.Circuit{"qcrank_a9_d6": qcrankTestCircuit(t, 9, 6)}
	for _, n := range []int{13, 16} {
		c, err := randcirc.Generate(randcirc.Spec{Qubits: n, Blocks: 100, Seed: 7, Measure: true})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("randcirc%d", n)] = c
	}
	return out
}

// TestSplitStateBitIdentical: a state that fits the tile but is wider
// than 12 qubits runs as two tiles on nvidia, and its probabilities are
// those of aer's per-gate run bit for bit at every worker count.
func TestSplitStateBitIdentical(t *testing.T) {
	for name, c := range splitStateCircuits(t) {
		ref, err := Run(c, Config{Target: TargetAer})
		if err != nil {
			t.Fatal(err)
		}
		if ref.TileBits != 0 {
			t.Fatalf("%s: aer ran a tile width %d", name, ref.TileBits)
		}
		for _, w := range []int{1, 2, 3} {
			res, err := Run(c, Config{Target: TargetNvidia, Workers: w, TileBits: 16})
			if err != nil {
				t.Fatal(err)
			}
			if res.TileBits != c.NumQubits-1 {
				t.Fatalf("%s workers=%d: tile width %d, want the two-tile split %d", name, w, res.TileBits, c.NumQubits-1)
			}
			for i, p := range res.Probabilities {
				if math.Float64bits(p) != math.Float64bits(ref.Probabilities[i]) {
					t.Fatalf("%s workers=%d: p[%d] = %v, per-gate %v", name, w, i, p, ref.Probabilities[i])
				}
			}
		}
	}
}

// TestSplitStateExpectationBitIdentical: ⟨H⟩ of a 14-qubit RY+CX
// ansatz, and every point of a 4-point sweep that rebinds the split
// plan, equals its own aer per-gate evaluation at the same worker count
// bit for bit.
func TestSplitStateExpectationBitIdentical(t *testing.T) {
	const n = 14
	c := circuit.New(n, 0)
	for layer := 0; layer < 2; layer++ {
		for q := 0; q < n; q++ {
			c.RY(0.1*float64(q+layer+1), q)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
		}
	}
	h := observable.TransverseFieldIsing(n, 1, 0.7)
	pts := sweepTestPoints(c.NumParams(), 4, 14)
	for _, w := range []int{1, 2, 3} {
		split := Config{Target: TargetNvidia, Workers: w, TileBits: 16}
		perGate := Config{Target: TargetAer, Workers: w}
		got, err := RunExpectation(c, h, split)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunExpectation(c, h, perGate)
		if err != nil {
			t.Fatal(err)
		}
		if got.TileBits != n-1 || want.TileBits != 0 {
			t.Fatalf("workers=%d: tile widths %d and %d, want %d and 0", w, got.TileBits, want.TileBits, n-1)
		}
		if math.Float64bits(*got.ExpValue) != math.Float64bits(*want.ExpValue) {
			t.Fatalf("workers=%d: ⟨H⟩ %.17g, per-gate %.17g", w, *got.ExpValue, *want.ExpValue)
		}
		sw, err := RunSweep(c, h, pts, split)
		if err != nil {
			t.Fatal(err)
		}
		if sw.TileBits != n-1 || sw.Rebinds != len(pts) {
			t.Fatalf("workers=%d: sweep at tile width %d with %d rebinds, want %d and %d", w, sw.TileBits, sw.Rebinds, n-1, len(pts))
		}
		for i, pt := range pts {
			bound, err := c.BindParams(pt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunExpectation(bound, h, perGate)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(sw.SweepValues[i]) != math.Float64bits(*want.ExpValue) {
				t.Fatalf("workers=%d point %d: ⟨H⟩ %.17g, per-gate %.17g", w, i, sw.SweepValues[i], *want.ExpValue)
			}
		}
	}
}

// BenchmarkSmallStateSchedule is the crossover behind the split rule's
// threshold: backend.Run of an a(n−6)_d6 QCrank encoding on nvidia,
// per-gate (TileBits −1) against the default width and against two
// tiles of n−1 qubits forced, for n = 12…16 at 1 and 2 workers. At the
// auto width 16 the default is per-gate at 12 qubits and the two-tile
// split above.
func BenchmarkSmallStateSchedule(b *testing.B) {
	for n := 12; n <= 16; n++ {
		c := qcrankTestCircuit(b, n-6, 6)
		for _, w := range []int{1, 2} {
			for _, sched := range []struct {
				name     string
				tileBits int
			}{{"per-gate", -1}, {"default", 0}, {"two-tile", n - 1}} {
				cfg := Config{Target: TargetNvidia, Workers: w, TileBits: sched.tileBits}
				b.Run(fmt.Sprintf("n=%d/w=%d/%s", n, w, sched.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res, err := Run(c, cfg)
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(float64(res.TileBits), "tile_bits")
					}
				})
			}
		}
	}
}

// BenchmarkQCrankSchedule times the qcrank_mgpu benchmark's simulation
// (the a9_d6 QCrank encoding, 15 qubits, probabilities only, compiled
// once): on one nvidia device at 1 and 2 workers — at 2, the
// benchmark's single-device reference run — and on two nvidia-mgpu
// ranks of one worker each. Each row reports the plan's bit swaps. The
// planner evicts the address qubits right after their h layer (kernel's
// evictFloor), so both tiles or ranks are live for almost the whole
// plan and the w=2 and ranks=2 rows split the work in two. Nearly all
// of it is the multiplexed-ry chains: 3,072 ry→cx pairs on six targets,
// all but 24 (36 on two ranks, whose control sits at or above the tile)
// one pass each (statevec's FusesCX).
func BenchmarkQCrankSchedule(b *testing.B) {
	c := qcrankTestCircuit(b, 9, 6)
	for _, row := range []struct {
		name string
		cfg  Config
	}{
		{"one-device/w=1", Config{Target: TargetNvidia, Workers: 1}},
		{"one-device/w=2", Config{Target: TargetNvidia, Workers: 2}},
		{"ranks=2/w=1", Config{Target: TargetNvidiaMGPU, Devices: 2, Workers: 1}},
	} {
		comp, err := Compile(c, row.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunCompiled(comp, row.cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.PlanStats.BitSwaps), "bit_swaps")
			}
		})
	}
}
