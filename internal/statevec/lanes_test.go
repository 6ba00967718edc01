package statevec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"qgear/internal/gate"
	"qgear/internal/qmath"
)

// Bit-identity fuzz suite for the float64 lane kernels (lanes.go).
// Every reference below is the complex128 implementation the lane
// kernels replaced, verbatim: nested block loops, complex multiplies,
// left-associated sums. The suite demands *exact bit equality* on
// states of random nonzero finite amplitudes — the regime where even
// the real-matrix fast path is exactly the complex arithmetic (its
// skipped products are exact zeros that cannot flip a nonzero bit).

// randAmps fills n amplitudes with nonzero components of random sign
// and magnitude in [0.25, 1.25) — far from underflow and from zero.
func randAmps(n int, rng *qmath.RNG) []complex128 {
	a := make([]complex128, n)
	for i := range a {
		re := (0.25 + rng.Float64()) * float64(1-2*rng.Intn(2))
		im := (0.25 + rng.Float64()) * float64(1-2*rng.Intn(2))
		a[i] = complex(re, im)
	}
	return a
}

// specialLanes are the lane values at the edges of IEEE 754 arithmetic:
// signed zeros, infinities and subnormals.
var specialLanes = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1060, -0x1.8p-1030,
}

// seedSpecials overwrites about one lane in eight with a special lane
// value. Products with them make further zeros, infinities, subnormal
// results and NaNs (0·∞, ∞ − ∞).
func seedSpecials(a []complex128, rng *qmath.RNG) {
	v := lanes(a)
	for k := len(v)/8 + 1; k > 0; k-- {
		v[rng.Intn(len(v))] = specialLanes[rng.Intn(len(specialLanes))]
	}
}

// lanesEqual is bitsEqual for states seeded with special lanes: every
// lane bit for bit, except that a NaN matches any NaN — which NaN an
// operation propagates is not part of the lane contract (lanes.go).
func lanesEqual(t *testing.T, got, want []complex128, ctx string) {
	t.Helper()
	g, w := lanes(got), lanes(want)
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) && !(math.IsNaN(g[i]) && math.IsNaN(w[i])) {
			t.Fatalf("%s: lane %d (amplitude %d) differs: got %v (%#x) want %v (%#x)",
				ctx, i, i/2, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
		}
	}
}

// randUnitary2 returns a dense complex 2×2 unitary (u3-shaped);
// randReal2 a real-valued one (ry-shaped, exercising the real fast
// path).
func randUnitary2(rng *qmath.RNG) gate.Mat2 {
	return gate.Matrix1(gate.U3, []float64{rng.Angle(), rng.Angle(), rng.Angle()})
}

func randReal2(rng *qmath.RNG) gate.Mat2 {
	return gate.Matrix1(gate.RY, []float64{rng.Angle()})
}

func bitsEqual(t *testing.T, got, want []complex128, ctx string) {
	t.Helper()
	for i := range want {
		gr, gi := math.Float64bits(real(got[i])), math.Float64bits(imag(got[i]))
		wr, wi := math.Float64bits(real(want[i])), math.Float64bits(imag(want[i]))
		if gr != wr || gi != wi {
			t.Fatalf("%s: amplitude %d differs: got %v (%#x,%#x) want %v (%#x,%#x)",
				ctx, i, got[i], gr, gi, want[i], wr, wi)
		}
	}
}

// --- reference tile kernels: the retired complex128 implementations ---

func refTileMat1(tile []complex128, op *TileOp) {
	m0, m1, m2, m3 := op.M[0], op.M[1], op.M[2], op.M[3]
	step := 1 << op.T
	if op.HasCtrl {
		cstep := 1 << op.C
		if int(op.C) > int(op.T) {
			for cb := cstep; cb < len(tile); cb += 2 * cstep {
				for blk := cb; blk < cb+cstep; blk += 2 * step {
					for i0 := blk; i0 < blk+step; i0++ {
						i1 := i0 + step
						a0, a1 := tile[i0], tile[i1]
						tile[i0] = m0*a0 + m1*a1
						tile[i1] = m2*a0 + m3*a1
					}
				}
			}
			return
		}
		for blk := 0; blk < len(tile); blk += 2 * step {
			for cb := blk + cstep; cb < blk+step; cb += 2 * cstep {
				for i0 := cb; i0 < cb+cstep; i0++ {
					i1 := i0 + step
					a0, a1 := tile[i0], tile[i1]
					tile[i0] = m0*a0 + m1*a1
					tile[i1] = m2*a0 + m3*a1
				}
			}
		}
		return
	}
	for blk := 0; blk < len(tile); blk += 2 * step {
		for i0 := blk; i0 < blk+step; i0++ {
			i1 := i0 + step
			a0, a1 := tile[i0], tile[i1]
			tile[i0] = m0*a0 + m1*a1
			tile[i1] = m2*a0 + m3*a1
		}
	}
}

func refTileCX(tile []complex128, op *TileOp) {
	step := 1 << op.T
	if op.HasCtrl {
		cstep := 1 << op.C
		if int(op.C) > int(op.T) {
			for cb := cstep; cb < len(tile); cb += 2 * cstep {
				for blk := cb; blk < cb+cstep; blk += 2 * step {
					for i0 := blk; i0 < blk+step; i0++ {
						tile[i0], tile[i0+step] = tile[i0+step], tile[i0]
					}
				}
			}
			return
		}
		for blk := 0; blk < len(tile); blk += 2 * step {
			for cb := blk + cstep; cb < blk+step; cb += 2 * cstep {
				for i0 := cb; i0 < cb+cstep; i0++ {
					tile[i0], tile[i0+step] = tile[i0+step], tile[i0]
				}
			}
		}
		return
	}
	for blk := 0; blk < len(tile); blk += 2 * step {
		for i0 := blk; i0 < blk+step; i0++ {
			tile[i0], tile[i0+step] = tile[i0+step], tile[i0]
		}
	}
}

func refTileDiag(tile []complex128, op *TileOp) {
	phase := op.Phase()
	for i := range tile {
		if uint64(i)&op.LowMask == op.LowMask {
			tile[i] *= phase
		}
	}
}

func refTileRelPhase(tile []complex128, base uint64, op *TileOp) {
	a, b := op.AB()
	if op.HighMask != 0 {
		f := a
		if base&op.HighMask != 0 {
			f = b
		}
		for i := range tile {
			tile[i] *= f
		}
		return
	}
	step := 1 << op.T
	for blk := 0; blk < len(tile); blk += 2 * step {
		for i0 := blk; i0 < blk+step; i0++ {
			tile[i0] *= a
			tile[i0+step] *= b
		}
	}
}

func phaseOf(rng *qmath.RNG) complex128 {
	a := rng.Angle()
	return complex(math.Cos(a), math.Sin(a))
}

// --- reference full-sweep kernels ---

func refMat1(amps []complex128, t uint, m gate.Mat2) {
	m0, m1, m2, m3 := m[0], m[1], m[2], m[3]
	bit := uint64(1) << t
	for p := 0; p < len(amps)/2; p++ {
		i0 := insertBit(uint64(p), t, 0)
		i1 := i0 | bit
		a0, a1 := amps[i0], amps[i1]
		amps[i0] = m0*a0 + m1*a1
		amps[i1] = m2*a0 + m3*a1
	}
}

func refControlled1(amps []complex128, c, t uint, m gate.Mat2) {
	m0, m1, m2, m3 := m[0], m[1], m[2], m[3]
	bit := uint64(1) << t
	for p := 0; p < len(amps)/4; p++ {
		i0 := qmath.InsertTwoBits(uint64(p), c, 1, t, 0)
		i1 := i0 | bit
		a0, a1 := amps[i0], amps[i1]
		amps[i0] = m0*a0 + m1*a1
		amps[i1] = m2*a0 + m3*a1
	}
}

func refPhase1(amps []complex128, t uint, phase complex128) {
	for i := range amps {
		if uint64(i)>>t&1 == 1 {
			amps[i] *= phase
		}
	}
}

func refRelPhase(amps []complex128, t uint, a, b complex128) {
	for i := range amps {
		if uint64(i)>>t&1 == 1 {
			amps[i] *= b
		} else {
			amps[i] *= a
		}
	}
}

func refControlledPhase(amps []complex128, c, t uint, phase complex128) {
	for i := range amps {
		if uint64(i)>>c&1 == 1 && uint64(i)>>t&1 == 1 {
			amps[i] *= phase
		}
	}
}

func refCX(amps []complex128, c, t uint) {
	for i := range amps {
		u := uint64(i)
		if u>>c&1 == 1 && u>>t&1 == 0 {
			j := u | 1<<t
			amps[i], amps[j] = amps[j], amps[i]
		}
	}
}

func refSwapBits(amps []complex128, a, b uint) {
	for i := range amps {
		u := uint64(i)
		if u>>a&1 == 1 && u>>b&1 == 0 {
			j := u ^ (1 << a) ^ (1 << b)
			amps[i], amps[j] = amps[j], amps[i]
		}
	}
}

// checkKernel holds one lane kernel to its complex128 reference above
// bit for bit, on the body the lane wrappers take now. op picks one
// tile micro-op (0–3: TileMat1 and TileCX, with or without a control,
// TileDiag with 0–3 low predicate bits, TileRelPhase on a low target or
// as a tile constant from a high bit) or one full-state kernel (4–10:
// ApplyOp's TileMat1 without and with a control, its TileCX, its TileDiag
// on one bit, its TileRelPhase, its TileDiag on two bits, and ApplySwap, at 1, 2
// or 4 workers: a sharded sweep must match the serial reference
// whatever its chunk boundaries) on 1–12 qubits (2–12 for a tile or a
// two-qubit kernel), so one-amplitude windows, the lane primitives'
// two-amplitude loop with and without its one-amplitude tail, and long
// windows all run. Operands come from the arguments, amplitudes,
// matrices and phases from seed. With special set, about one lane in
// eight is ±0, ±∞ or a subnormal and only complex matrices are drawn:
// the real fast path differs from complex arithmetic on exact zeros and
// infinities by design (lanes.go), and its body is held to its Go loop
// on arbitrary bits by FuzzLanePrimitives instead.
//
// op 11 is the swap form: a real TileMat1 and the CX after it on the
// same target, one tile run that tilePass takes in one pass (FusesCX),
// held to the two kernels in turn — pairReal's update, then
// swapWindows over the control's 1 half — on a support control%3
// picks: none, one that knows the control, or a random one (which may
// know the target, the control or neither). Its reference is the lane
// kernels themselves, so a real matrix is drawn on special lanes too.
func checkKernel(t *testing.T, at string, op, width, target, control, workers uint8, special bool, seed uint64) {
	op %= 12
	n := 1 + int(width)%12
	if op < 4 || op == 5 || op == 6 || op >= 9 {
		n = max(n, 2)
	}
	tq := int(target) % n
	cq := int(control/3) % max(n-1, 1)
	if cq >= tq {
		cq++
	}
	rng := qmath.NewRNG(seed)
	amps := randAmps(1<<uint(n), rng)
	if special {
		seedSpecials(amps, rng)
	}
	m := randUnitary2(rng)
	if !special && seed&1 == 0 || op == 11 {
		m = randReal2(rng)
	}
	p, a, b := phaseOf(rng), phaseOf(rng), phaseOf(rng)
	var to TileOp // a tile op applies to the whole state as one tile
	var base uint64
	switch op {
	case 0, 1:
		to = TileOp{Kind: TileMat1, T: uint8(tq), M: m}
		if op == 1 {
			to = TileOp{Kind: TileCX, T: uint8(tq)}
		}
		if control%3 > 0 {
			to.HasCtrl, to.C = true, uint8(cq)
		}
	case 2:
		to = DiagOp(p, 0, 0)
		for k := control % 4; k > 0; k-- {
			to.LowMask |= 1 << uint(rng.Intn(n))
		}
	case 3:
		to = RelPhaseOp(a, b, 0, 0)
		if control&1 == 0 {
			to.T = uint8(tq)
		} else {
			to.HighMask = 1 << uint(n+rng.Intn(8))
			if control&2 != 0 {
				base = to.HighMask
			}
		}
	}
	want := append([]complex128(nil), amps...)
	ctx := [...]string{"mat1", "cx", "diag", "relphase", "sweep mat1", "sweep controlled mat1", "sweep cx",
		"sweep phase", "sweep relphase", "sweep controlled phase", "ApplySwap", "mat1+cx"}[op]
	if op == 11 {
		checkSwapForm(t, at+": "+ctx, amps, m, n, tq, cq, control%3, rng, special)
		return
	}
	switch op {
	case 0:
		refTileMat1(want, &to)
	case 1:
		refTileCX(want, &to)
	case 2:
		refTileDiag(want, &to)
	case 3:
		refTileRelPhase(want, base, &to)
	case 4:
		refMat1(want, uint(tq), m)
	case 5:
		refControlled1(want, uint(cq), uint(tq), m)
	case 6:
		if special {
			refCX(want, uint(cq), uint(tq)) // X arithmetic would turn ±0 and ∞ into other bits
		} else {
			refControlled1(want, uint(cq), uint(tq), gate.Matrix1(gate.X, nil))
		}
	case 7:
		refPhase1(want, uint(tq), p)
	case 8:
		refRelPhase(want, uint(tq), a, b)
	case 9:
		refControlledPhase(want, uint(cq), uint(tq), p)
	case 10:
		refSwapBits(want, uint(cq), uint(tq))
	}
	s := MustNew(n, []int{1, 2, 4}[workers%3])
	defer s.Release()
	got := s.AmplitudesRaw()
	copy(got, amps)
	switch op {
	case 0:
		applyTileMat1(got, &to, Support{})
	case 1:
		applyTileCX(got, &to, Support{})
	case 2:
		applyTileDiag(got, &to, Support{})
	case 3:
		applyTileRelPhase(got, base, &to, Support{})
	case 4:
		applyMat1(s, tq, m)
	case 5:
		applyCtrl1(s, cq, tq, m)
	case 6:
		s.ApplyGate(gate.CX, []int{cq, tq}, nil)
	case 7:
		applyPhase(s, 1<<tq, p)
	case 8:
		applyRelPhase(s, tq, a, b)
	case 9:
		applyPhase(s, 1<<cq|1<<tq, p)
	case 10:
		s.ApplySwap(cq, tq)
	}
	what := fmt.Sprintf("%s: %s on %d qubits (target %d, control %d)", at, ctx, n, tq, cq)
	if special {
		lanesEqual(t, got, want, what+" (special lanes)")
	} else {
		bitsEqual(t, got, want, what)
	}
}

// checkSwapForm is checkKernel's op 11: ry-shaped m on target tq, then
// a CX from cq, as a tile run over the whole n-qubit state, against
// applyTileMat1 and applyTileCX in turn. known picks the support: 0
// none, 1 the control's bit, 2 random bits; amplitudes outside it are
// +0, as the support promises.
func checkSwapForm(t *testing.T, what string, amps []complex128, m gate.Mat2, n, tq, cq int, known uint8, rng *qmath.RNG, special bool) {
	var sp Support
	switch known {
	case 1:
		sp = Support{Mask: 1 << uint(cq), Val: uint64(rng.Intn(2)) << uint(cq)}
	case 2:
		sp.Mask = rng.Uint64() & (1<<uint(n) - 1)
		sp.Val = rng.Uint64() & sp.Mask
	}
	for i := range amps {
		if uint64(i)&sp.Mask != sp.Val {
			amps[i] = 0
		}
	}
	ops := []TileOp{{Kind: TileMat1, T: uint8(tq), M: m}, {Kind: TileCX, T: uint8(tq), C: uint8(cq), HasCtrl: true}}
	if !ops[0].FusesCX(&ops[1]) {
		t.Fatalf("%s: a real mat1 and a cx on its target do not fuse", what)
	}
	want := append([]complex128(nil), amps...)
	applyTileMat1(want, &ops[0], sp)
	after := sp
	after.tileOp(&ops[0], 0, n)
	applyTileCX(want, &ops[1], after)
	after.tileOp(&ops[1], 0, n)

	s := MustNew(n, 1)
	defer s.Release()
	copy(s.AmplitudesRaw(), amps)
	s.SetSupport(sp)
	if err := s.ApplyTileRun(n, 0, ops); err != nil {
		t.Fatal(err)
	}
	what = fmt.Sprintf("%s on %d qubits (target %d, control %d, support %+v)", what, n, tq, cq, sp)
	if s.Support() != after {
		t.Fatalf("%s: support %+v after the run, want %+v", what, s.Support(), after)
	}
	if special {
		lanesEqual(t, s.amps, want, what+" (special lanes)")
	} else {
		bitsEqual(t, s.amps, want, what)
	}
}

// TestTileMat1CXBitIdentity runs the swap form (checkKernel's op 11) on
// every body the wrappers take, at every target and control of 2 to 9
// qubits — the control inside the target's windows, on the stride they
// step along, or above both, and one-amplitude windows at target 0 —
// under each kind of support, on ordinary and on special lanes.
func TestTileMat1CXBitIdentity(t *testing.T) {
	rng := qmath.NewRNG(0x5a7f)
	wrapperBodies(func(body string) {
		for n := uint8(2); n <= 9; n++ {
			for tq := uint8(0); tq < n; tq++ {
				for c := uint8(0); c < n-1; c++ {
					for known := uint8(0); known < 3; known++ {
						for _, special := range []bool{false, true} {
							// n-1 for width and 3c+known for control give n
							// qubits and control c (skipping the target).
							checkKernel(t, body+" body", 11, n-1, tq, 3*c+known, 0, special, rng.Uint64())
						}
					}
				}
			}
		}
	})
}

// TestTileKernelBitIdentityFuzz drives every tile micro-op kind over
// random tiles of 2 to 12 qubits, operand placements and both matrix
// families (checkKernel's ops 0–3); every other trial seeds special
// lanes.
func TestTileKernelBitIdentityFuzz(t *testing.T) {
	rng := qmath.NewRNG(0x1a9e5)
	for trial := 0; trial < 800; trial++ { // 400 ordinary, 400 special
		checkKernel(t, fmt.Sprintf("trial %d", trial), uint8(rng.Intn(4)), uint8(1+rng.Intn(11)),
			uint8(rng.Intn(256)), uint8(rng.Intn(256)), 0, trial%2 == 1, rng.Uint64())
	}
}

// TestFullSweepKernelBitIdentityFuzz checks the full-state kernels
// (checkKernel's ops 4–10) on 2 to 12 qubits at every worker count —
// the sharded sweeps must be bit-identical to the serial reference
// regardless of chunk boundaries. Every other trial seeds special
// lanes.
func TestFullSweepKernelBitIdentityFuzz(t *testing.T) {
	rng := qmath.NewRNG(0xf0522)
	for trial := 0; trial < 500; trial++ { // 250 ordinary, 250 special
		checkKernel(t, fmt.Sprintf("trial %d", trial), uint8(4+rng.Intn(7)), uint8(1+rng.Intn(11)),
			uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(3)), trial%2 == 1, rng.Uint64())
	}
}

// TestQubit0RelPhaseBitIdentity pins diag(a, b) on qubit 0 — rz's
// shape there, one scaleTable call over windows of two amplitudes with
// the row [a, b] — to the complex128 reference bit for bit, at every
// width from one to twelve qubits and one, two and four workers, on
// ordinary and on special lanes.
func TestQubit0RelPhaseBitIdentity(t *testing.T) {
	rng := qmath.NewRNG(0x9b0)
	for width := uint8(0); width < 12; width++ {
		for workers := uint8(0); workers < 3; workers++ {
			for _, special := range []bool{false, true} {
				checkKernel(t, "qubit 0", 8, width, 0, 0, workers, special, rng.Uint64())
			}
		}
	}
}

// FuzzKernelBitIdentity runs checkKernel on every body the lane
// wrappers take here (wrapperBodies). The seeds are every op on both
// lane regimes.
func FuzzKernelBitIdentity(f *testing.F) {
	for op := uint8(0); op < 11; op++ {
		for _, special := range []bool{false, true} {
			f.Add(op, op, 3*op, op+1, op%3, special, uint64(op))
		}
	}
	f.Fuzz(func(t *testing.T, op, width, target, control, workers uint8, special bool, seed uint64) {
		wrapperBodies(func(body string) {
			checkKernel(t, body+" body", op, width, target, control, workers, special, seed)
		})
	})
}

// TestPermTablesCached checks the readout-walk cache: the permWalk is
// built once per permutation, reused across repeated readouts (the
// shot-loop pattern), shared by Clone, and dropped by every perm
// mutation.
func TestPermTablesCached(t *testing.T) {
	rng := qmath.NewRNG(0x9e2a)
	s := MustNew(8, 2)
	amps := s.AmplitudesRaw()
	copy(amps, randAmps(1<<8, rng))
	nrm := math.Sqrt(s.Norm())
	for i := range amps {
		amps[i] /= complex(nrm, 0)
	}

	declareSwaps(t, s, [2]int{0, 5}, [2]int{2, 7})
	if s.permTab != nil {
		t.Fatal("cache populated before any readout")
	}
	p1 := s.Probabilities()
	tab := s.permTab
	if tab == nil {
		t.Fatal("readout did not populate the readout-walk cache")
	}
	p2 := s.Probabilities()
	if s.permTab != tab {
		t.Fatal("second readout rebuilt the cached walk")
	}
	for i := range p1 {
		if math.Float64bits(p1[i]) != math.Float64bits(p2[i]) {
			t.Fatalf("cached readout differs at %d: %v vs %v", i, p1[i], p2[i])
		}
	}

	// Clone shares the immutable walk.
	c := s.Clone()
	if c.permTab != tab {
		t.Fatal("Clone did not share the cached walk")
	}

	// A new layout invalidates; the rebuilt walk must give
	// the same bits as a brute-force Amp readout (both compute the
	// same |a|² expression).
	declareSwaps(t, s, [2]int{1, 6})
	if s.permTab != nil {
		t.Fatal("SetPermutation left a stale walk cached")
	}
	p3 := s.Probabilities()
	for i := range p3 {
		a := s.Amp(uint64(i))
		want := float64(real(a)*real(a)) + float64(imag(a)*imag(a))
		if math.Float64bits(p3[i]) != math.Float64bits(want) {
			t.Fatalf("post-invalidation readout wrong at %d: %v vs %v", i, p3[i], want)
		}
	}

	// Materializing drops both the permutation and the walk.
	s.MaterializePerm()
	if s.permTab != nil {
		t.Fatal("MaterializePerm left a walk cached")
	}
	if err := s.PrepareBasis(3); err != nil {
		t.Fatal(err)
	}
	if s.permTab != nil {
		t.Fatal("PrepareBasis left a walk cached")
	}
}

// BenchmarkRepeatedReadout measures the shot-loop pattern the cache
// targets: sample-then-read-again on a permuted state. With the cache,
// iterations after the first skip the O(2^(n/2)) table rebuild.
func BenchmarkRepeatedReadout(b *testing.B) {
	rng := qmath.NewRNG(0xbe9c)
	s := MustNew(16, 1)
	copy(s.AmplitudesRaw(), randAmps(1<<16, rng))
	declareSwaps(b, s, [2]int{0, 13}, [2]int{4, 11})
	s.Probabilities() // warm the cache outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Probabilities()
	}
}

// TestSubspaceSetsCoverChunk checks the window-set enumeration every
// kernel runs on: for random fixed bits, values and member ranges —
// chunk edges anywhere, not only where a power-of-two worker count puts
// them — the windows cover exactly members [lo, hi) of the subspace,
// each amplitude once.
func TestSubspaceSetsCoverChunk(t *testing.T) {
	rng := qmath.NewRNG(0x5e75)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(10)
		var fixed uint64
		for k := rng.Intn(min(n, 4) + 1); k > 0; k-- {
			fixed |= 1 << uint(rng.Intn(n))
		}
		val := fixed & rng.Uint64()
		var members []int
		for i := 0; i < 1<<uint(n); i++ {
			if uint64(i)&fixed == val {
				members = append(members, i)
			}
		}
		lo := rng.Intn(len(members) + 1)
		hi := lo + rng.Intn(len(members)-lo+1)

		hits := make([]int, 1<<uint(n))
		subspaceSets(fixed, val, lo, hi, func(off, run, period, count int) {
			if run < 1 || count < 1 || (count > 1 && period < run) {
				t.Fatalf("n=%d fixed=%#x: malformed set off=%d run=%d period=%d count=%d", n, fixed, off, run, period, count)
			}
			for w := 0; w < count; w++ {
				for j := 0; j < run; j++ {
					hits[off+w*period+j]++
				}
			}
		})
		want := make([]int, 1<<uint(n))
		for _, i := range members[lo:hi] {
			want[i] = 1
		}
		for i := range want {
			if hits[i] != want[i] {
				t.Fatalf("n=%d fixed=%#x val=%#x members [%d,%d): amplitude %d visited %d times, want %d",
					n, fixed, val, lo, hi, i, hits[i], want[i])
			}
		}
	}
}

// sameLanes reports whether two lane slices are equal bit for bit, a
// NaN matching any NaN (the packed bodies' one divergence, lanes.go).
func sameLanes(got, want []float64) (int, bool) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i, false
		}
	}
	return 0, true
}

// disjointPairs reports whether pairReal's windows and partners touch
// every lane of an n-lane buffer at most once — the shapes the kernels
// produce, and the only ones the primitive is defined on.
func disjointPairs(n, dist, run, period int) bool {
	if dist < run {
		return false
	}
	seen := make([]bool, n)
	for b := 0; b+dist+run <= n; b += period {
		for j := 0; j < run&^1; j++ {
			for _, i := range []int{b + j, b + dist + j} {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
	}
	return true
}

// laneBody is one body of the four amplitude primitives and the Pauli
// chunk sums, each at its Go loop's signature; ok is false for a body
// this CPU cannot run, and a primitive the body lacks is nil.
type laneBody struct {
	name  string
	ok    bool
	scale func(v []float64, run, period int, pr, pi float64)
	table func(v, t []float64, run, period, row, tstep int)
	pair  func(v []float64, dist, run, period int, r0, r1, r2, r3 float64, swap int)
	cpair func(v []float64, dist, run, period int, m *laneMat2)
	pauli func(l *pauliLanes, nl int, w *pauliWalk)
}

// goBody is the Go loops, the reference every assembly body in
// asmBodies (lanes_amd64_test.go; none on other GOARCH) is held to.
var goBody = laneBody{"go", true, scaleWindowsGo, scaleTableGo, pairRealGo, pairComplexGo, pauliChunksGo}

// TestPairRealSwapBitIdentity holds pairReal's swap form on every body
// (the Go loop among them) to the pair update followed by the trade it
// stands for: pairReal with swap 0, then each pair whose window offset
// b or in-window offset j has the swap bit exchanged with its partner.
// The shapes are wider than the tile kernels make: windows of 1 to 7
// amplitudes (odd tails), at any lane offset, periods and partner
// distances not powers of two, and every swap bit from qubit 0's up to
// one above the buffer, on ordinary and on special lanes.
func TestPairRealSwapBitIdentity(t *testing.T) {
	rng := qmath.NewRNG(0x5a9)
	c, s := math.Cos(0.7), math.Sin(0.7)
	for trial := 0; trial < 400; trial++ {
		amps := randAmps(96, rng)
		if trial%2 == 1 {
			seedSpecials(amps, rng)
		}
		v := lanes(amps)[2*rng.Intn(3):]
		run := 2 * (1 + rng.Intn(7))
		dist := run + 2*rng.Intn(9)
		period := dist + run + 2*rng.Intn(5)
		if rng.Intn(2) == 0 {
			period, dist = 2*run+2*rng.Intn(4), run // partners inside the period: windows interleave
			if period < dist+run {
				period = dist + run
			}
		}
		swap := 2 << uint(rng.Intn(9))
		if !disjointPairs(len(v), dist, run, period) {
			continue
		}
		want := append([]float64(nil), v...)
		pairRealGo(want, dist, run, period, c, -s, s, c, 0)
		for b := 0; b+dist+run <= len(want); b += period {
			for j := 0; j+1 < run; j += 2 {
				if (b|j)&swap != 0 {
					x, y := want[b+j:b+j+2], want[b+dist+j:b+dist+j+2]
					x[0], x[1], y[0], y[1] = y[0], y[1], x[0], x[1]
				}
			}
		}
		got := make([]float64, len(v))
		for _, body := range append([]laneBody{goBody}, asmBodies...) {
			if !body.ok || body.pair == nil {
				continue
			}
			copy(got, v)
			body.pair(got, dist, run, period, c, -s, s, c, swap)
			if i, ok := sameLanes(got, want); !ok {
				t.Fatalf("trial %d: %s pairReal(dist %d, run %d, period %d, swap %d) on %d lanes: lane %d = %#x, want %#x",
					trial, body.name, dist, run, period, swap, len(v), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// FuzzLanePrimitives holds every assembly body of scaleWindows,
// pairReal and pairComplex — on amd64 the AVX bodies of the first two
// and the SSE2 body of pairComplex, each called directly whatever the
// CPU probe picked — bit for bit to its Go loop over arbitrary lane
// bits, arbitrary factors and arbitrary (run, period, dist) window
// shapes. A NaN is compared only as a NaN: its sign is the one
// documented divergence of the packed form. On other GOARCH there is no
// assembly body to hold.
func FuzzLanePrimitives(f *testing.F) {
	specials := make([]byte, 0, 8*len(specialLanes))
	for _, x := range specialLanes {
		specials = binary.LittleEndian.AppendUint64(specials, math.Float64bits(x))
	}
	ordinary := make([]byte, 0, 8*64)
	for i := 0; i < 64; i++ {
		ordinary = binary.LittleEndian.AppendUint64(ordinary, math.Float64bits(float64(i)-31.5))
	}
	c, s := math.Cos(0.3), math.Sin(0.3)
	for _, shape := range [][3]uint16{{2, 4, 2}, {4, 8, 4}, {6, 16, 8}, {2, 4, 16}, {64, 128, 64}, {64, 64, 0}} {
		f.Add(ordinary, shape[0], shape[1], shape[2], c, s, c, -s)
		f.Add(append(append([]byte(nil), specials...), ordinary...), shape[0], shape[1], shape[2], s, c, math.Inf(1), 0.0)
	}
	f.Fuzz(func(t *testing.T, data []byte, run, period, dist uint16, f0, f1, f2, f3 float64) {
		n := min(len(data)/8, 1024)
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		r, p, d := int(run)%(n+1), 1+int(period)%(n+1), int(dist)%(n+1)
		// The complex matrix reuses the four factors crosswise, so
		// every entry has both parts drawn from the input.
		m := laneMat2{r0: f0, i0: f1, r1: f2, i1: f3, r2: f3, i2: f2, r3: f1, i3: f0}
		pairs := disjointPairs(n, d, r, p)

		scaled, paired, cpaired := append([]float64(nil), v...), append([]float64(nil), v...), append([]float64(nil), v...)
		scaleWindowsGo(scaled, r, p, f0, f1)
		if pairs {
			pairRealGo(paired, d, r, p, f0, f1, f2, f3, 0)
			pairComplexGo(cpaired, d, r, p, &m)
		}
		got := make([]float64, n)
		for _, body := range asmBodies {
			if !body.ok {
				continue
			}
			if body.scale != nil {
				copy(got, v)
				body.scale(got, r, p, f0, f1)
				if i, ok := sameLanes(got, scaled); !ok {
					t.Fatalf("%s scaleWindows(run %d, period %d, %v%+vi): lane %d = %#x, Go loop %#x",
						body.name, r, p, f0, f1, i, math.Float64bits(got[i]), math.Float64bits(scaled[i]))
				}
			}
			if !pairs {
				continue
			}
			if body.pair != nil {
				copy(got, v)
				body.pair(got, d, r, p, f0, f1, f2, f3, 0)
				if i, ok := sameLanes(got, paired); !ok {
					t.Fatalf("%s pairReal(dist %d, run %d, period %d, [%v %v; %v %v]): lane %d = %#x, Go loop %#x",
						body.name, d, r, p, f0, f1, f2, f3, i, math.Float64bits(got[i]), math.Float64bits(paired[i]))
				}
			}
			if body.cpair == nil {
				continue
			}
			copy(got, v)
			body.cpair(got, d, r, p, &m)
			if i, ok := sameLanes(got, cpaired); !ok {
				t.Fatalf("%s pairComplex(dist %d, run %d, period %d, %+v): lane %d = %#x, Go loop %#x",
					body.name, d, r, p, m, i, math.Float64bits(got[i]), math.Float64bits(cpaired[i]))
			}
		}
	})
}

// FuzzPauliLanes holds the assembly body of pauliChunks — AVX on
// amd64, called directly whatever the CPU probe picked, a walk of one
// window on the Go loop as the wrapper runs it — bit for bit to
// pauliChunksGo over arbitrary lane bits (the seeds carry ±0, ±∞ and
// subnormals), 1 to pauliL lanes with arbitrary high parities, and the
// walks the evaluator builds from arbitrary Pauli masks on a block of 2
// to 128 amplitudes and two qubits above it: runs of one, two and many
// amplitudes, a pivot inside or above the block (then either chunk of
// it), phases ±1 and ±i, parity walks, and partner offsets inside the
// block. A NaN is compared only as a NaN. On other GOARCH there is no
// assembly body to hold.
func FuzzPauliLanes(f *testing.F) {
	specials := make([]byte, 0, 8*len(specialLanes))
	for _, x := range specialLanes {
		specials = binary.LittleEndian.AppendUint64(specials, math.Float64bits(x))
	}
	ordinary := make([]byte, 0, 8*64)
	for i := 0; i < 64; i++ {
		ordinary = binary.LittleEndian.AppendUint64(ordinary, math.Float64bits(float64(i)/8-3.9))
	}
	for _, shape := range [][4]uint8{
		{0, 1, 0, 0}, {2, 2, 0, 1}, {3, 0, 4, 3}, {4, 0, 0, 3}, // X₀, Y₁, Y₂Z₀… runs of 1 and 2
		{5, 32, 0, 0}, {6, 0, 64, 1}, {6, 128, 0, 0}, {6, 0, 0, 192}, // runs of 32, pivot above the block
		{2, 0, 0, 3}, {3, 0, 0, 8}, {5, 6, 1, 16}, {6, 0, 3, 0}, // parity walks and mixed strings
	} {
		for _, nl := range []uint8{1, 3, 4} {
			f.Add(ordinary, shape[0], shape[1], shape[2], shape[3], nl, uint8(0x3), nl == 3)
			f.Add(append(append([]byte(nil), specials...), ordinary...), shape[0], shape[1], shape[2], shape[3], nl, uint8(0x6), nl == 4)
		}
	}
	for _, shape := range [][4]uint8{
		{0, 1, 0, 0}, {3, 1, 0, 0}, {4, 0, 1, 2}, {5, 0, 0, 3}, // runs of 1: X₀ (one window at bb 1), X₀, Y₀Z₁, Z₀Z₁
		{3, 2, 0, 0}, {4, 0, 2, 4}, {5, 0, 0, 6}, // runs of 2: X₁, Y₁Z₂, Z₁Z₂
		{5, 64, 0, 1}, {4, 0, 96, 0}, {4, 0, 0, 96}, // the upper chunk of a pivot above the block
	} {
		for k := uint8(0); k < pauliL; k++ { // 1 to pauliL lanes
			f.Add(append(append([]byte(nil), specials...), ordinary...), shape[0], shape[1], shape[2], shape[3], k, uint8(0x5)<<(k&1), true)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, bbSel, xm, ym, zm, lanesSel, hpBits uint8, upper bool) {
		if len(data) < 8 {
			return
		}
		bb := 1 + int(bbSel)%7
		mask := uint64(1)<<uint(bb+2) - 1
		x := uint64(xm) & mask
		y := uint64(ym) & mask &^ x
		z := uint64(zm) & mask &^ (x | y)
		if x|y|z == 0 {
			return
		}
		j := pauliJob{flipMask: x | y, sign: z, pivot: bits.TrailingZeros64(z)}
		if x|y != 0 {
			j.flip, j.sign = true, y|z
			j.ph0 = iPow(bits.OnesCount64(y))
			j.pivot = bits.TrailingZeros64(x | y)
		}
		w := j.walk(bb, bb-1)
		if j.pivot >= bb && upper {
			w.off = w.cnt // the block's second chunk
		}

		// Each lane's block and partner block, lane bits cycled from
		// data.
		nl := 1 + int(lanesSel)%pauliL
		var l pauliLanes
		next := 0
		block := func() []float64 {
			v := make([]float64, 2<<uint(bb))
			for i := range v {
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[next:]))
				if next += 8; next+8 > len(data) {
					next = 0
				}
			}
			return v
		}
		for i := 0; i < nl; i++ {
			l.self[i], l.other[i] = block(), block()
			l.hp[i] = int(hpBits>>uint(i)) & 1
		}
		want := l
		pauliChunksGo(&want, nl, &w)
		for _, body := range asmBodies {
			if !body.ok || body.pauli == nil {
				continue
			}
			got := l
			body.pauli(&got, nl, &w)
			if i, ok := sameLanes(got.acc[:nl], want.acc[:nl]); !ok {
				t.Fatalf("%s pauliChunks(%d lanes, walk %+v): lane %d = %#x, Go loop %#x",
					body.name, nl, w, i, math.Float64bits(got.acc[i]), math.Float64bits(want.acc[i]))
			}
		}
	})
}

// BenchmarkLanePrimitives reports each lane primitive's GB/s (b.SetBytes:
// the lanes it reads and writes once per call) for each body — the Go
// loop, and on amd64 the assembly bodies called directly: AVX for every
// primitive but pairComplex (rows skipped on a CPU without AVX), SSE2
// for pairComplex (the sse2 rows are cpair's) — over a 2^14-amplitude
// (256 KiB, L2-resident) buffer, by window width in amplitudes: 1
// (qubit 0), 2 (qubit 1), 32, and one contiguous window. scale and
// table windows sit at every other window slot; pair (real) and cpair
// (complex, u3) windows fill the buffer with their partners; pairswap,
// at width 32 only, is pair's swap form with the control on qubit 0 —
// QCrank's commonest ry→cx pair, each register's two amplitudes
// trading differently — against pair/w32 the cost of the trade. A table
// row is one entry per window advancing window by window at width 1 (a
// free stretch above other bits), and the window's own 32 or 1024
// entries, repeated along it, at width 32 and contiguous (a free
// stretch from bit 0). pauli rows sum pauliL chunks of 2^10
// contributions, one per lane, each lane's block and partner block 2^11
// amplitudes of the buffer: real (X on the window's width, or above the
// block for contiguous) and norm (ZZ on it and the qubit after, or Z
// above the block) walks, MB/s from the lanes read.
func BenchmarkLanePrimitives(b *testing.B) {
	v := lanes(randAmps(1<<14, qmath.NewRNG(9)))
	tab := make([]complex128, 1<<13)
	for i := range tab {
		tab[i] = complex(math.Cos(float64(i)), math.Sin(float64(i)))
	}
	c, s := math.Cos(0.3), math.Sin(0.3) // unit factors keep the lanes bounded
	u := mat2Lanes(gate.Matrix1(gate.U3, []float64{0.3, 0.5, 0.7}))
	for _, body := range append([]laneBody{goBody}, asmBodies...) {
		run := func(b *testing.B, name string, bytes int, f func()) {
			b.Run(name, func(b *testing.B) {
				if !body.ok {
					b.Skip("this CPU cannot run the " + body.name + " body")
				}
				b.SetBytes(int64(bytes))
				for i := 0; i < b.N; i++ {
					f()
				}
			})
		}
		for _, amps := range []int{1, 2, 32, len(v) / 4} {
			w := 2 * amps
			name := fmt.Sprintf("%s/w%d", body.name, amps)
			if amps == len(v)/4 {
				name = body.name + "/contiguous"
			}
			if body.scale != nil {
				run(b, "scale/"+name, 8*len(v)/2, func() { body.scale(v, w, 2*w, c, s) })
			}
			if body.table != nil && amps != 2 {
				row, tstep := 2*min(amps, 1<<10), 0
				if amps == 1 {
					tstep = 2
				}
				run(b, "table/"+name, 8*len(v)/2, func() { body.table(v, lanes(tab), w, 2*w, row, tstep) })
			}
			if body.pair != nil {
				run(b, "pair/"+name, 8*len(v), func() { body.pair(v, w, w, 2*w, c, -s, s, c, 0) })
				if amps == 32 {
					run(b, "pairswap/"+name, 8*len(v), func() { body.pair(v, w, w, 2*w, c, -s, s, c, 2) })
				}
			}
			if body.cpair != nil {
				run(b, "cpair/"+name, 8*len(v), func() { body.cpair(v, w, w, 2*w, &u) })
			}
			if body.pauli == nil {
				continue
			}
			const bb = 11
			q := min(bits.TrailingZeros(uint(amps)), bb)
			var l pauliLanes
			for i := range l.self {
				l.self[i], l.other[i] = v[i<<(bb+1):][:2<<bb], v[(i+pauliL)<<(bb+1):][:2<<bb]
				l.hp[i] = i & 1
			}
			x := pauliJob{flip: true, flipMask: 1 << q, ph0: 1, pivot: q}
			zz := pauliJob{sign: 3 << q, pivot: q}
			if q == bb {
				zz.sign = 1 << q
			}
			rw, nw := x.walk(bb, bb-1), zz.walk(bb, bb-1)
			run(b, "pauli/"+name+"/real", 32*pauliL*rw.cnt, func() { body.pauli(&l, pauliL, &rw) })
			run(b, "pauli/"+name+"/norm", 16*pauliL*nw.cnt, func() { body.pauli(&l, pauliL, &nw) })
		}
	}
}
