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
		s.ApplyGate(gate.RY, []int{q}, []float64{rng.Angle()})
		applyMat1(s, q, gate.Matrix1(gate.RZ, []float64{rng.Angle()}))
	}
	for q := 0; q+1 < n; q++ {
		s.ApplyGate(gate.CX, []int{q, q + 1}, nil)
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
		b.ApplyGate(gate.CX, []int{pair[0], pair[1]}, nil)
		b.ApplyGate(gate.CX, []int{pair[1], pair[0]}, nil)
		b.ApplyGate(gate.CX, []int{pair[0], pair[1]}, nil)
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
	applyPhase(s1, 1<<6, phase)
	ref(s2, 1<<6)
	statesEqual(t, s1, s2, 0, "one-bit phase")

	s3 := MustNew(n, 4)
	randomize(s3, qmath.NewRNG(12))
	s4 := s3.Clone()
	applyPhase(s3, 1<<2|1<<8, phase)
	ref(s4, 1<<2|1<<8)
	statesEqual(t, s3, s4, 0, "controlled phase")
}

// TestPermutationLifecycle exercises the lazy table: logical swaps are
// free, readout sees logical order, and materialization round-trips.
func TestPermutationLifecycle(t *testing.T) {
	const n = 6
	a := MustNew(n, 1)
	randomize(a, qmath.NewRNG(21))
	b := a.Clone()

	// Logical swap versus physical swap must agree on readout.
	declareSwaps(t, a, [2]int{1, 4})
	if a.PermIsIdentity() {
		t.Fatal("perm should be pending after SetPermutation")
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
	statesEqual(t, a, b, 0, "declared swap vs ApplySwap") // Amp materializes a
	if !a.PermIsIdentity() {
		t.Fatal("readout should have materialized the permutation")
	}

	// A longer cycle: three chained swaps equal their physical version.
	c := MustNew(n, 2)
	randomize(c, qmath.NewRNG(22))
	d := c.Clone()
	declareSwaps(t, c, [2]int{0, 5}, [2]int{5, 3}, [2]int{2, 0})
	d.ApplySwap(0, 5)
	d.ApplySwap(5, 3)
	d.ApplySwap(2, 0)
	statesEqual(t, c, d, 0, "swap chain")
}

// TestMaterializePermAllocs pins the allocation-flat materialization:
// bringing a bit-reversed (8 bit-swap sweeps) or a random (up to 15)
// 2^16 layout back to canonical order at 2 workers, every sweep fanned
// out, costs at most 3 allocations, however many sweeps it takes.
func TestMaterializePermAllocs(t *testing.T) {
	const n = 16
	r := qmath.NewRNG(16)
	for _, layout := range []string{"bitrev", "random"} {
		s := layoutState(t, n, 2, layout, r)
		perm, buf := s.Permutation(), make([]int, n)
		a := testing.AllocsPerRun(10, func() {
			s.perm = append(buf[:0], perm...) // re-declare without SetPermutation's copies
			s.MaterializePerm()
		})
		if a > 3 {
			t.Errorf("%s: MaterializePerm of a 2^%d layout at 2 workers: %v allocations, want <= 3", layout, n, a)
		}
		s.Release()
	}
}

// TestMaterializePermRecyclesItsJob: a warmed fanned-out
// materialization reuses its job record and closure: it allocates
// nothing, where the pair-by-pair sweeps it replaced allocated a 24-byte
// record and its first version a 112-byte job.
func TestMaterializePermRecyclesItsJob(t *testing.T) {
	const n = 16
	r := qmath.NewRNG(17)
	for _, layout := range []string{"bitrev", "random"} {
		s := layoutState(t, n, 2, layout, r)
		perm, buf := s.Permutation(), make([]int, n)
		a := testing.AllocsPerRun(100, func() {
			s.perm = append(buf[:0], perm...)
			s.MaterializePerm()
		})
		if a != 0 {
			t.Errorf("%s: a warmed materialization at 2 workers allocates %v times, want 0", layout, a)
		}
		s.Release()
	}
}

// declareSwaps declares s's data to be laid out with the physical homes
// of each pair of logical qubits exchanged, in order, starting from the
// canonical layout: a pending permutation that moved no data.
func declareSwaps(t testing.TB, s *State, pairs ...[2]int) {
	t.Helper()
	perm := make([]int, s.n)
	for q := range perm {
		perm[q] = q
	}
	for _, p := range pairs {
		perm[p[0]], perm[p[1]] = perm[p[1]], perm[p[0]]
	}
	if err := s.SetPermutation(perm); err != nil {
		t.Fatal(err)
	}
}

// materializeByPairs is MaterializePerm as one bit-swap sweep per pair,
// placing one qubit per sweep: the materialization the one-pass
// relayout replaced, kept as its reference.
func materializeByPairs(s *State) {
	if s.perm == nil {
		return
	}
	perm := s.perm
	s.perm = nil
	s.permTab = nil
	var inv [MaxQubits]int
	for q, p := range perm {
		inv[p] = q
	}
	for pos := 0; pos < s.n; pos++ {
		q := inv[pos] // logical qubit currently living at position pos
		if q == pos {
			continue
		}
		src := perm[pos] // where logical qubit pos currently lives
		s.swapBits(uint(pos), uint(src))
		perm[pos], perm[q] = pos, src
		inv[pos], inv[src] = pos, q
	}
}

// relayoutKinds are the layouts the materialization tests declare:
// canonical, an involution (disjoint swaps), a random permutation, one
// cycle through a random subset of positions, and one transposition.
var relayoutKinds = []string{"identity", "involution", "random", "cycle", "pair"}

// relayoutPerm draws a layout of the named kind on n qubits.
func relayoutPerm(n int, kind string, r *qmath.RNG) []int {
	perm := make([]int, n)
	for q := range perm {
		perm[q] = q
	}
	pos := r.Perm(n)
	switch kind {
	case "involution":
		for i, k := 0, r.Intn(n+1); i+1 < k; i += 2 {
			perm[pos[i]], perm[pos[i+1]] = pos[i+1], pos[i]
		}
	case "random":
		perm = pos
	case "cycle":
		k := r.Intn(n + 1)
		for i := 0; i < k; i++ {
			perm[pos[i]] = pos[(i+1)%k]
		}
	case "pair":
		if n > 1 {
			perm[pos[0]], perm[pos[1]] = pos[1], pos[0]
		}
	}
	return perm
}

// relayoutState is an n-qubit state ready for a materialization: either
// random amplitudes (no support) or a basis state after a few mixing
// gates (a support of the bits they leave alone), then a declared layout.
func relayoutState(t testing.TB, n, workers, gates int, kind string, r *qmath.RNG) *State {
	s := MustNew(n, workers)
	if gates < 0 {
		copy(s.AmplitudesRaw(), randAmps(1<<uint(n), r))
	} else {
		if err := s.PrepareBasis(r.Uint64() & (1<<uint(n) - 1)); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < gates; g++ {
			s.ApplyGate(gate.RY, []int{r.Intn(n)}, []float64{r.Angle()})
		}
	}
	if err := s.SetPermutation(relayoutPerm(n, kind, r)); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMaterialize holds MaterializePerm to the pair-by-pair reference:
// the same amplitude bits and the same support.
func checkMaterialize(t *testing.T, s *State, what string) {
	t.Helper()
	ref := s.Clone()
	materializeByPairs(ref)
	s.MaterializePerm()
	if !s.PermIsIdentity() {
		t.Fatalf("%s: layout still pending", what)
	}
	lanesEqual(t, s.amps, ref.amps, what)
	if got := s.Support(); got != ref.sup {
		t.Fatalf("%s: support %+v, pair by pair %+v", what, got, ref.sup)
	}
	ref.Release()
}

// TestMaterializePermMatchesPairs: the one-pass materialization against
// the pair-by-pair sweeps on states large enough to fan out (2^14 and
// up) and small enough to stay serial, every layout kind, dense and
// sparse, at 1 to 4 workers.
func TestMaterializePermMatchesPairs(t *testing.T) {
	r := qmath.NewRNG(48)
	for _, n := range []int{2, 5, 9, 14, 16} {
		for _, kind := range relayoutKinds {
			for workers := 1; workers <= 4; workers++ {
				for _, gates := range []int{-1, 0, 3} {
					s := relayoutState(t, n, workers, gates, kind, r)
					checkMaterialize(t, s, fmt.Sprintf("n=%d %s workers=%d gates=%d", n, kind, workers, gates))
					s.Release()
				}
			}
		}
	}
}

// FuzzMaterializePerm draws a register size (up to 12 qubits), a layout
// kind, a worker count and a support (a basis state and up to a few
// mixing gates, or none) and holds MaterializePerm to the pair-by-pair
// reference, bit for bit, support included.
func FuzzMaterializePerm(f *testing.F) {
	for i := range relayoutKinds {
		f.Add(uint8(4+2*i), uint8(i), uint8(i), int8(i-1), uint64(i))
	}
	f.Fuzz(func(t *testing.T, n, kind, workers uint8, gates int8, seed uint64) {
		nq := 1 + int(n)%12
		k := relayoutKinds[int(kind)%len(relayoutKinds)]
		s := relayoutState(t, nq, 1+int(workers)%4, int(gates)%5, k, qmath.NewRNG(seed))
		checkMaterialize(t, s, fmt.Sprintf("n=%d %s gates=%d seed=%d", nq, k, gates, seed))
		s.Release()
	})
}

// BenchmarkMaterializePerm brings a 20-qubit state back to canonical
// order from the layout a reversed QFT leaves (bitrev: one pass), a
// random one (two passes) and one transposition (pair(0,19): the
// layout one bit-swap sweep restores), at 1 and 2 workers. Each
// iteration re-declares the layout outside the timer, as
// BenchmarkExpPauliGroup's permuted rows do. Its MB/s counts the state
// once, 2^n × 16 B.
func BenchmarkMaterializePerm(b *testing.B) {
	const n = 20
	pair := make([]int, n)
	for q := range pair {
		pair[q] = q
	}
	pair[0], pair[n-1] = n-1, 0
	for _, layout := range []string{"bitrev", "random", "pair(0,19)"} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", layout, workers), func(b *testing.B) {
				var s *State
				if layout == "pair(0,19)" {
					s = layoutState(b, n, workers, "identity", qmath.NewRNG(20))
					if err := s.SetPermutation(pair); err != nil {
						b.Fatal(err)
					}
				} else {
					s = layoutState(b, n, workers, layout, qmath.NewRNG(20))
				}
				defer s.Release()
				perm, buf := s.Permutation(), make([]int, n)
				b.SetBytes(16 << n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s.perm = append(buf[:0], perm...) // re-declare without SetPermutation's copies
					b.StartTimer()
					s.MaterializePerm()
				}
			})
		}
	}
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
		{{Kind: 4}},                                 // the old fused-block kind
		{{Kind: TileMat1, T: 0, M: gate.Identity2(), HighMask: 1 << 2}}, // predicate bit below tile width
		{DiagOp(1, 1, 1<<6|1<<3)}, // mixed-high mask dips low
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

	applyMat1(naive, 2, h)
	applyCtrl1(naive, 8, 1, ry)
	naive.ApplyGate(gate.CX, []int{3, 0}, nil)
	naive.ApplyGate(gate.CX, []int{9, 2}, nil)
	applyPhase(naive, 1<<7|1<<1, phase)
	applyPhase(naive, 1<<6|1<<9, phase)
	applyRelPhase(naive, 3, phase, cmplx.Conj(phase))
	applyRelPhase(naive, 5, phase, -phase)

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
		applyMat1(naive, n-1, h)
		naive.ApplyGate(gate.X, []int{0}, nil)
		applyPhase(naive, 1, phase)
		applyRelPhase(naive, 0, phase, phase)
		applyRelPhase(naive, 0, phase, -phase)
		statesEqual(t, tiled, naive, 0, "one-tile run")
		if err := tiled.ApplyTileRun(n+1, 0, ops); err == nil {
			t.Fatalf("n=%d: tile width %d accepted", n, n+1)
		}
	}
}

// TestTileOpSize pins the micro-op at 88 bytes: the tile loop streams a
// run's ops once per tile, so their size is memory traffic.
func TestTileOpSize(t *testing.T) {
	if sz := unsafe.Sizeof(TileOp{}); sz > 88 {
		t.Fatalf("TileOp is %d bytes, want ≤ 88", sz)
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
	for g := 1; g <= 3; g++ {
		local := n - g
		top, rank0 := uint64(1)<<(n-1), uint64(1)<<uint(local)
		ops := []TileOp{
			{Kind: TileMat1, T: 1, M: h},
			{Kind: TileMat1, T: 0, C: 2, HasCtrl: true, M: ry, HighMask: top}, // rank-bit control
			{Kind: TileMat1, T: 2, M: ry, HighMask: top | 1<<uint(tileBits)},  // rank and high local bit
			{Kind: TileCX, T: 1, HighMask: rank0},                             // rank-bit control
			{Kind: TileCX, T: 0, C: 1, HasCtrl: true},                         //
			DiagOp(phase, 1<<2, top),                                          // cr1 across the boundary
			DiagOp(-phase, 0, top|rank0),                                      // both factors on rank bits (g = 1: one bit)
			DiagOp(phase, 1|1<<1, 0),                                          //
			RelPhaseOp(phase, -phase, 2, 0),                                   // low rz
			RelPhaseOp(phase, cmplx.Conj(phase), 0, 1<<uint(local-1)),         // rz on a high local bit
			RelPhaseOp(cmplx.Conj(phase), phase, 0, top),                      // rz on a rank bit
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
