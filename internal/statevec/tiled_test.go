package statevec

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
	"unsafe"

	"qgear/internal/gate"
	"qgear/internal/qmath"
)

// randomize drives the state to a generic entangled superposition.
func randomize(s *State, rng *qmath.RNG) {
	n := s.NumQubits()
	for q := 0; q < n; q++ {
		s.ApplyMat1(q, gate.Matrix1(gate.RY, []float64{rng.Angle()}))
		s.ApplyMat1(q, gate.Matrix1(gate.RZ, []float64{rng.Angle()}))
	}
	for q := 0; q+1 < n; q++ {
		s.ApplyCX(q, q+1)
	}
}

func statesEqual(t *testing.T, a, b *State, tol float64, what string) {
	t.Helper()
	for i := 0; i < a.Len(); i++ {
		if d := cmplx.Abs(a.Amp(uint64(i)) - b.Amp(uint64(i))); d > tol {
			t.Fatalf("%s: amplitude %d differs by %g", what, i, d)
		}
	}
}

// TestApplySwapMatchesCXDecomposition: the single-sweep SWAP kernel
// must be value-exact against the three-CX decomposition it replaced.
func TestApplySwapMatchesCXDecomposition(t *testing.T) {
	rng := qmath.NewRNG(31)
	for _, pair := range [][2]int{{0, 1}, {0, 7}, {3, 5}, {7, 2}} {
		a := MustNew(8, 1)
		randomize(a, qmath.NewRNG(5))
		b := a.Clone()
		a.ApplySwap(pair[0], pair[1])
		b.ApplyCX(pair[0], pair[1])
		b.ApplyCX(pair[1], pair[0])
		b.ApplyCX(pair[0], pair[1])
		for i := 0; i < a.Len(); i++ {
			if a.Amp(uint64(i)) != b.Amp(uint64(i)) {
				t.Fatalf("swap %v: amplitude %d not bit-identical", pair, i)
			}
		}
	}
	_ = rng
}

// TestDiagonalStrideEquivalence: the stride-iterating diagonal kernels
// must touch exactly the amplitudes the old full-scan loops touched.
func TestDiagonalStrideEquivalence(t *testing.T) {
	const n = 9
	phase := cmplx.Exp(complex(0, 0.37))
	ref := func(s *State, mask uint64) { // the old branchy reference
		for i := 0; i < s.Len(); i++ {
			if uint64(i)&mask == mask {
				s.SetAmp(uint64(i), s.Amp(uint64(i))*phase)
			}
		}
	}

	s1 := MustNew(n, 4)
	randomize(s1, qmath.NewRNG(11))
	s2 := s1.Clone()
	s1.applyPhase1(6, phase)
	ref(s2, 1<<6)
	statesEqual(t, s1, s2, 0, "applyPhase1")

	s3 := MustNew(n, 4)
	randomize(s3, qmath.NewRNG(12))
	s4 := s3.Clone()
	s3.applyControlledPhase(2, 8, phase)
	ref(s4, 1<<2|1<<8)
	statesEqual(t, s3, s4, 0, "applyControlledPhase")
}

// TestPermutationLifecycle exercises the lazy table: logical swaps are
// free, readout sees logical order, and materialization round-trips.
func TestPermutationLifecycle(t *testing.T) {
	const n = 6
	a := MustNew(n, 1)
	randomize(a, qmath.NewRNG(21))
	b := a.Clone()

	// Logical swap versus physical swap must agree on readout.
	a.SwapLogical(1, 4)
	if a.PermIsIdentity() {
		t.Fatal("perm should be pending after SwapLogical")
	}
	b.ApplySwap(1, 4)
	// Probabilities reads through the pending table without materializing.
	pa, pb := a.Probabilities(), b.Probabilities()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("probability %d through perm: %g vs %g", i, pa[i], pb[i])
		}
	}
	if a.PermIsIdentity() {
		t.Fatal("Probabilities materialized the permutation")
	}
	statesEqual(t, a, b, 0, "SwapLogical vs ApplySwap") // Amp materializes a
	if !a.PermIsIdentity() {
		t.Fatal("readout should have materialized the permutation")
	}

	// A longer cycle: three chained swaps equal their physical version.
	c := MustNew(n, 2)
	randomize(c, qmath.NewRNG(22))
	d := c.Clone()
	c.SwapLogical(0, 5)
	c.SwapLogical(5, 3)
	c.SwapLogical(2, 0)
	d.ApplySwap(0, 5)
	d.ApplySwap(5, 3)
	d.ApplySwap(2, 0)
	statesEqual(t, c, d, 0, "swap chain")
}

// TestProbabilitiesReadThroughPerm: the probability pass must resolve
// a pending permutation through the readout walk — bit-identical to a
// materialized readout of a clone — while leaving the table pending (no
// hidden bit-swap sweeps), over every layout, worker count and a range
// of widths (the walk's line bits, its hi/lo split and the fan-out
// threshold all change with n).
func TestProbabilitiesReadThroughPerm(t *testing.T) {
	widths := []int{1, 2, 3, 5, 8, 13, 14}
	if !testing.Short() {
		widths = append(widths, 21)
	}
	r := qmath.NewRNG(61)
	for _, n := range widths {
		for _, layout := range groupLayouts {
			for _, workers := range []int{1, 2, 3} {
				what := fmt.Sprintf("n=%d %s workers=%d", n, layout, workers)
				s := layoutState(t, n, workers, layout, r)
				perm := fmt.Sprint(s.Permutation())
				ref := s.Clone()
				ref.MaterializePerm()
				want := ref.Probabilities()
				ref.Release()
				got := s.Probabilities()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: probability %d = %v, materialized readout %v", what, i, got[i], want[i])
					}
				}
				if after := fmt.Sprint(s.Permutation()); after != perm {
					t.Fatalf("%s: readout changed the permutation %s to %s", what, perm, after)
				}
				s.Release()
			}
		}
	}
}

// TestApplyTileRunValidatesOps: malformed micro-ops must be rejected
// up front, not panic inside a worker.
func TestApplyTileRunValidatesOps(t *testing.T) {
	s := MustNew(8, 1)
	for _, ops := range [][]TileOp{
		{{Kind: TileMat1, T: 5}},                    // target above tile width
		{{Kind: TileCX, T: 1, C: 4, HasCtrl: true}}, // control above tile width
		{{Kind: TileCX, T: 1, C: 1, HasCtrl: true}}, // control == target
		{RelPhaseOp(1, 1, 6, 0)},                    // low relphase out of range
		{DiagOp(1, 1<<4, 0)},                        // low mask out of range
		{{Kind: TileFused}},                         // fused without a payload
		{{Kind: TileFused, Fused: &FusedBlock{Qubits: []uint{4}, Mat: nil}}},                       // fused qubit out of range
		{{Kind: TileFused, Fused: &FusedBlock{Qubits: []uint{0, 0}, Mat: make([]complex128, 16)}}}, // duplicate fused qubit
		{{Kind: TileMat1, T: 0, M: gate.Identity2(), HighMask: 1 << 2}},                            // predicate bit below tile width
		{DiagOp(1, 1, 1<<6|1<<3)}, // mixed-high mask dips low
		{{Kind: TileFused, Fused: &FusedBlock{Qubits: []uint{0, 1}, Mat: make([]complex128, 8)}}}, // short matrix
	} {
		if err := s.ApplyTileRun(4, 0, ops); err == nil {
			t.Errorf("ops %+v accepted at tile width 4", ops)
		}
	}
}

// TestSetPermutationValidates rejects malformed tables.
func TestSetPermutationValidates(t *testing.T) {
	s := MustNew(4, 1)
	if err := s.SetPermutation([]int{0, 1, 2}); err == nil {
		t.Fatal("short permutation accepted")
	}
	if err := s.SetPermutation([]int{0, 1, 1, 3}); err == nil {
		t.Fatal("duplicate permutation accepted")
	}
	if err := s.SetPermutation([]int{0, 1, 2, 4}); err == nil {
		t.Fatal("out-of-range permutation accepted")
	}
	if err := s.SetPermutation([]int{0, 1, 2, 3}); err != nil {
		t.Fatalf("identity rejected: %v", err)
	}
	if !s.PermIsIdentity() {
		t.Fatal("identity table should normalize to nil")
	}
}

// TestApplyTileRunDirect drives the tile micro-ops directly against
// their full-sweep counterparts on a mid-sized state.
func TestApplyTileRunDirect(t *testing.T) {
	const n, tileBits = 10, 4
	h := gate.Matrix1(gate.H, nil)
	ry := gate.Matrix1(gate.RY, []float64{1.1})
	phase := cmplx.Exp(complex(0, 0.61))

	tiled := MustNew(n, 4)
	randomize(tiled, qmath.NewRNG(33))
	naive := tiled.Clone()

	ops := []TileOp{
		{Kind: TileMat1, T: 2, M: h},                    // plain low 1q
		{Kind: TileMat1, T: 1, M: ry, HighMask: 1 << 8}, // high-controlled 1q
		{Kind: TileCX, T: 0, C: 3, HasCtrl: true},       // low-low cx
		{Kind: TileCX, T: 2, HighMask: 1 << 9},          // high-controlled cx
		DiagOp(phase, 1<<1, 1<<7),                       // split cr1
		DiagOp(phase, 0, 1<<6|1<<9),                     // both high
		RelPhaseOp(phase, cmplx.Conj(phase), 3, 0),      // low rz
		RelPhaseOp(phase, -phase, 0, 1<<5),              // high rz
	}
	if err := tiled.ApplyTileRun(tileBits, 0, ops); err != nil {
		t.Fatal(err)
	}

	naive.ApplyMat1(2, h)
	naive.applyControlled1(8, 1, ry)
	naive.ApplyCX(3, 0)
	naive.ApplyCX(9, 2)
	naive.applyControlledPhase(7, 1, phase)
	naive.applyControlledPhase(6, 9, phase)
	naive.ApplyGlobalAndRelativePhase(3, phase, cmplx.Conj(phase))
	naive.ApplyGlobalAndRelativePhase(5, phase, -phase)

	statesEqual(t, tiled, naive, 0, "tile micro-ops")
}

// TestApplyTileRunOneTile: a tile as wide as the state — a 1-qubit rank
// shard is the case that needs it — is one tile run on the caller's
// goroutine; one qubit wider is refused.
func TestApplyTileRunOneTile(t *testing.T) {
	h := gate.Matrix1(gate.H, nil)
	phase := cmplx.Exp(complex(0, 0.61))
	for n := 1; n <= 5; n++ {
		tiled := MustNew(n, 4)
		randomize(tiled, qmath.NewRNG(uint64(70+n)))
		naive := tiled.Clone()
		ops := []TileOp{
			{Kind: TileMat1, T: uint8(n - 1), M: h},
			{Kind: TileCX, T: 0},
			DiagOp(phase, 1, 0),
			DiagOp(phase, 0, 0), // every predicate bit in the base: the whole tile
			RelPhaseOp(phase, -phase, 0, 0),
		}
		if err := tiled.ApplyTileRun(n, 0, ops); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		naive.ApplyMat1(n-1, h)
		naive.ApplyMat1(0, gate.Matrix1(gate.X, nil))
		naive.applyPhase1(0, phase)
		naive.ApplyGlobalAndRelativePhase(0, phase, phase)
		naive.ApplyGlobalAndRelativePhase(0, phase, -phase)
		statesEqual(t, tiled, naive, 0, "one-tile run")
		if err := tiled.ApplyTileRun(n+1, 0, ops); err == nil {
			t.Fatalf("n=%d: tile width %d accepted", n, n+1)
		}
	}
}

// TestApplyTileRunFused checks the in-tile fused path against the
// global ApplyFused for k = 1..3 (the unrolled widths) and k = 4.
func TestApplyTileRunFused(t *testing.T) {
	const n, tileBits = 9, 5
	rng := qmath.NewRNG(44)
	for _, qubits := range [][]int{{3}, {4, 1}, {0, 2, 4}, {3, 1, 4, 0}} {
		dim := 1 << uint(len(qubits))
		// A random unitary-ish matrix is unnecessary: equivalence holds
		// for any matrix, so use random complex entries.
		m := make([]complex128, dim*dim)
		for i := range m {
			m[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		tiled := MustNew(n, 3)
		randomize(tiled, qmath.NewRNG(55))
		naive := tiled.Clone()

		uq := make([]uint, len(qubits))
		for i, q := range qubits {
			uq[i] = uint(q)
		}
		if err := tiled.ApplyTileRun(tileBits, 0, []TileOp{{Kind: TileFused, Fused: &FusedBlock{Qubits: uq, Mat: m}}}); err != nil {
			t.Fatal(err)
		}
		if err := naive.ApplyFused(qubits, m); err != nil {
			t.Fatal(err)
		}
		statesEqual(t, tiled, naive, 0, "tiled fused")
	}
}

func qmathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestTileOpSize pins the micro-op at 96 bytes: the tile loop streams a
// run's ops once per tile, so their size is memory traffic.
func TestTileOpSize(t *testing.T) {
	if sz := unsafe.Sizeof(TileOp{}); sz > 96 {
		t.Fatalf("TileOp is %d bytes, want ≤ 96", sz)
	}
}

// TestTileRunBaseMatchesFullState: a run applied to the 2^g shards of a
// state, each with its base rank << local, is the run applied to the
// whole state — every kind, with predicates on rank bits, and the
// relative phase whose *target* is a rank bit (the base picks the
// factor). This is what lets a distributed executor pass a plan's ops
// through untouched.
func TestTileRunBaseMatchesFullState(t *testing.T) {
	const n, tileBits = 9, 3
	h := gate.Matrix1(gate.H, nil)
	ry := gate.Matrix1(gate.RY, []float64{0.7})
	phase := cmplx.Exp(complex(0, 0.61))
	ident := []complex128{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
	for g := 1; g <= 3; g++ {
		local := n - g
		top, rank0 := uint64(1)<<(n-1), uint64(1)<<uint(local)
		ops := []TileOp{
			{Kind: TileMat1, T: 1, M: h},
			{Kind: TileMat1, T: 0, C: 2, HasCtrl: true, M: ry, HighMask: top},       // rank-bit control
			{Kind: TileMat1, T: 2, M: ry, HighMask: top | 1<<uint(tileBits)},        // rank and high local bit
			{Kind: TileCX, T: 1, HighMask: rank0},                                   // rank-bit control
			{Kind: TileCX, T: 0, C: 1, HasCtrl: true},                               //
			DiagOp(phase, 1<<2, top),                                                // cr1 across the boundary
			DiagOp(-phase, 0, top|rank0),                                            // both factors on rank bits (g = 1: one bit)
			DiagOp(phase, 1|1<<1, 0),                                                //
			RelPhaseOp(phase, -phase, 2, 0),                                         // low rz
			RelPhaseOp(phase, cmplx.Conj(phase), 0, 1<<uint(local-1)),               // rz on a high local bit
			RelPhaseOp(cmplx.Conj(phase), phase, 0, top),                            // rz on a rank bit
			{Kind: TileFused, Fused: &FusedBlock{Qubits: []uint{2, 0}, Mat: ident}}, //
			{Kind: TileMat1, T: 2, M: h},
		}
		full := MustNew(n, 2)
		randomize(full, qmath.NewRNG(uint64(90+g)))
		shards := make([]*State, 1<<uint(g))
		for r := range shards {
			shards[r] = MustNew(local, 1)
			copy(shards[r].AmplitudesRaw(), full.AmplitudesRaw()[r<<uint(local):])
		}
		if err := full.ApplyTileRun(tileBits, 0, ops); err != nil {
			t.Fatal(err)
		}
		for r, s := range shards {
			if err := s.ApplyTileRun(tileBits, uint64(r)<<uint(local), ops); err != nil {
				t.Fatalf("g=%d rank %d: %v", g, r, err)
			}
			bitsEqual(t, s.AmplitudesRaw(), full.AmplitudesRaw()[r<<uint(local):(r+1)<<uint(local)], fmt.Sprintf("g=%d rank %d", g, r))
		}
		if err := shards[1].ApplyTileRun(tileBits, 1, ops); err == nil {
			t.Fatal("a base inside the shard was accepted")
		}
	}
}

var tileRunShapes = []struct {
	name string
	op   TileOp
}{
	{"mat1", TileOp{Kind: TileMat1, T: 5, M: gate.Matrix1(gate.U3, []float64{0.3, 0.5, 0.7})}},
	{"mat1realT0", TileOp{Kind: TileMat1, T: 0, M: gate.Matrix1(gate.RY, []float64{0.3})}},
	{"mat1realT5", TileOp{Kind: TileMat1, T: 5, M: gate.Matrix1(gate.RY, []float64{0.3})}},
	{"mat1ctrl", TileOp{Kind: TileMat1, T: 5, C: 9, HasCtrl: true, M: gate.Matrix1(gate.RY, []float64{0.3})}},
	{"cx", TileOp{Kind: TileCX, T: 5, C: 9, HasCtrl: true}},
	{"diag1", DiagOp(1i, 1<<5, 0)},
	{"diag2", DiagOp(1i, 1<<5|1<<9, 0)},
	{"diag2lo", DiagOp(1i, 1<<1|1<<9, 0)}, // two-amplitude windows
	{"relphase", RelPhaseOp(1i, -1i, 5, 0)},
}

// BenchmarkTileRun is one micro-op of each lane-kernel shape over a
// 2^20-amplitude state in 2^14-amplitude tiles: MB/s is state bytes
// swept per second (each sweep reads and writes them once).
func BenchmarkTileRun(b *testing.B) {
	s := MustNew(20, 1)
	randomize(s, qmath.NewRNG(5))
	for _, shape := range tileRunShapes {
		ops := []TileOp{shape.op}
		b.Run(shape.name, func(b *testing.B) {
			b.SetBytes(16 << 20)
			for i := 0; i < b.N; i++ {
				if err := s.ApplyTileRun(14, 0, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
