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

// TestTileKernelBitIdentityFuzz drives every tile micro-op kind over
// random tiles, operand placements, and both matrix families, and
// requires the lane kernels to reproduce the complex128 references
// bit for bit. Tile widths reach 12, so one-amplitude windows, the
// lane primitives' two-amplitude loop with and without its
// one-amplitude tail, and long windows all run. Every other trial seeds
// special lanes (±0, ±∞, subnormals); those trials draw only complex
// matrices, because the real fast path differs from complex arithmetic
// on exact zeros and infinities by design (lanes.go) — its body is held
// to its Go loop on arbitrary bits by FuzzLanePrimitives instead.
func TestTileKernelBitIdentityFuzz(t *testing.T) {
	rng := qmath.NewRNG(0x1a9e5)
	for trial := 0; trial < 800; trial++ { // 400 ordinary, 400 special
		tb := 2 + rng.Intn(11) // tile widths 2..12
		tile := randAmps(1<<uint(tb), rng)
		special := trial%2 == 1
		if special {
			seedSpecials(tile, rng)
		}
		ref := append([]complex128(nil), tile...)

		var ctx string
		switch rng.Intn(4) {
		case 0: // TileMat1, all control placements
			op := TileOp{Kind: TileMat1, T: uint8(rng.Intn(tb))}
			if special || rng.Intn(2) == 0 {
				op.M = randUnitary2(rng)
			} else {
				op.M = randReal2(rng)
			}
			if tb >= 2 && rng.Intn(3) > 0 {
				op.HasCtrl = true
				op.C = uint8(rng.Intn(tb - 1))
				if op.C >= op.T {
					op.C++
				}
			}
			ctx = "mat1"
			applyTileMat1(tile, &op)
			refTileMat1(ref, &op)
		case 1: // TileCX, all control placements
			op := TileOp{Kind: TileCX, T: uint8(rng.Intn(tb))}
			if tb >= 2 && rng.Intn(3) > 0 {
				op.HasCtrl = true
				op.C = uint8(rng.Intn(tb - 1))
				if op.C >= op.T {
					op.C++
				}
			}
			ctx = "cx"
			applyTileCX(tile, &op)
			refTileCX(ref, &op)
		case 2: // TileDiag with 0..3 low predicate bits
			op := DiagOp(phaseOf(rng), 0, 0)
			for n := rng.Intn(4); n > 0; n-- {
				op.LowMask |= 1 << uint(rng.Intn(tb))
			}
			ctx = "diag"
			applyTileDiag(tile, &op)
			refTileDiag(ref, &op)
		case 3: // TileRelPhase, low target and high (tile-constant) form
			op := RelPhaseOp(phaseOf(rng), phaseOf(rng), 0, 0)
			var base uint64
			if rng.Intn(2) == 0 {
				op.T = uint8(rng.Intn(tb))
			} else {
				op.HighMask = 1 << uint(tb+rng.Intn(8))
				if rng.Intn(2) == 0 {
					base = op.HighMask
				}
			}
			ctx = "relphase"
			applyTileRelPhase(tile, base, &op)
			refTileRelPhase(ref, base, &op)
		}
		if special {
			lanesEqual(t, tile, ref, ctx+" (special lanes)")
		} else {
			bitsEqual(t, tile, ref, ctx)
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

// TestFullSweepKernelBitIdentityFuzz checks the full-state kernels
// against per-index complex references, at every worker count the
// fuzz reaches — the sharded sweeps must be bit-identical to the
// serial reference regardless of chunk boundaries. Widths, special
// lanes and matrix families as in TestTileKernelBitIdentityFuzz.
func TestFullSweepKernelBitIdentityFuzz(t *testing.T) {
	rng := qmath.NewRNG(0xf0522)
	for trial := 0; trial < 500; trial++ { // 250 ordinary, 250 special
		n := 2 + rng.Intn(11) // 2..12 qubits
		workers := []int{1, 2, 4}[rng.Intn(3)]
		s := MustNew(n, workers)
		amps := randAmps(1<<uint(n), rng)
		special := trial%2 == 1
		if special {
			seedSpecials(amps, rng)
		}
		copy(s.amps, amps)
		ref := append([]complex128(nil), amps...)

		var ctx string
		switch rng.Intn(6) {
		case 0:
			tq := uint(rng.Intn(n))
			var m gate.Mat2
			if special || rng.Intn(2) == 0 {
				m = randUnitary2(rng)
			} else {
				m = randReal2(rng)
			}
			ctx = "ApplyMat1"
			s.ApplyMat1(int(tq), m)
			refMat1(ref, tq, m)
		case 1:
			c := uint(rng.Intn(n))
			tq := uint(rng.Intn(n - 1))
			if tq >= c {
				tq++
			}
			var m gate.Mat2
			if special || rng.Intn(2) == 0 {
				m = randUnitary2(rng)
			} else {
				m = randReal2(rng)
			}
			ctx = "applyControlled1"
			s.applyControlled1(int(c), int(tq), m)
			refControlled1(ref, c, tq, m)
		case 2:
			c := uint(rng.Intn(n))
			tq := uint(rng.Intn(n - 1))
			if tq >= c {
				tq++
			}
			ctx = "ApplyCX"
			s.ApplyCX(int(c), int(tq))
			if special {
				refCX(ref, c, tq) // X arithmetic would turn ±0 and ∞ into other bits
			} else {
				refControlled1(ref, c, tq, gate.Matrix1(gate.X, nil))
			}
		case 3:
			tq := uint(rng.Intn(n))
			if rng.Intn(2) == 0 {
				p := phaseOf(rng)
				ctx = "applyPhase1"
				s.applyPhase1(int(tq), p)
				refPhase1(ref, tq, p)
			} else {
				a, b := phaseOf(rng), phaseOf(rng)
				ctx = "ApplyGlobalAndRelativePhase"
				s.ApplyGlobalAndRelativePhase(int(tq), a, b)
				refRelPhase(ref, tq, a, b)
			}
		case 4:
			c := uint(rng.Intn(n))
			tq := uint(rng.Intn(n - 1))
			if tq >= c {
				tq++
			}
			p := phaseOf(rng)
			ctx = "applyControlledPhase"
			s.applyControlledPhase(int(c), int(tq), p)
			refControlledPhase(ref, c, tq, p)
		case 5:
			a := uint(rng.Intn(n))
			b := uint(rng.Intn(n - 1))
			if b >= a {
				b++
			}
			ctx = "ApplySwap"
			s.ApplySwap(int(a), int(b))
			refSwapBits(ref, a, b)
		}
		if special {
			lanesEqual(t, s.amps, ref, ctx+" (special lanes)")
		} else {
			bitsEqual(t, s.amps, ref, ctx)
		}
	}
}

// TestQubit0RelPhaseBitIdentity pins diag(a, b) on qubit 0 — rz's
// shape there, one scaleTable call over windows of two amplitudes with
// the row [a, b] — to the complex128 reference bit for bit, at every
// width from one to twelve qubits and one, two and four workers, on
// ordinary and on special lanes.
func TestQubit0RelPhaseBitIdentity(t *testing.T) {
	rng := qmath.NewRNG(0x9b0)
	for n := 1; n <= 12; n++ {
		for _, workers := range []int{1, 2, 4} {
			for _, special := range []bool{false, true} {
				s := MustNew(n, workers)
				amps := randAmps(1<<uint(n), rng)
				if special {
					seedSpecials(amps, rng)
				}
				copy(s.amps, amps)
				a, b := phaseOf(rng), phaseOf(rng)
				s.ApplyGlobalAndRelativePhase(0, a, b)
				refRelPhase(amps, 0, a, b)
				ctx := fmt.Sprintf("%d qubits, %d workers", n, workers)
				if special {
					lanesEqual(t, s.amps, amps, ctx+" (special lanes)")
				} else {
					bitsEqual(t, s.amps, amps, ctx)
				}
				s.Release()
			}
		}
	}
}

// refFused is the generic gather/accumulate fused reference (the
// complex128 path the unrolled k=1..3 lane fast paths must match).
func refFused(amps []complex128, qubits []uint, m []complex128) {
	k := len(qubits)
	dim := 1 << uint(k)
	sorted := append([]uint(nil), qubits...)
	for i := 1; i < k; i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	in := make([]complex128, dim)
	idx := make([]uint64, dim)
	outer := len(amps) >> uint(k)
	for p := 0; p < outer; p++ {
		base := uint64(p)
		for _, q := range sorted {
			base = insertBit(base, q, 0)
		}
		for v := 0; v < dim; v++ {
			i := base
			for j := 0; j < k; j++ {
				if v>>uint(j)&1 == 1 {
					i |= 1 << qubits[j]
				}
			}
			idx[v] = i
			in[v] = amps[i]
		}
		for r := 0; r < dim; r++ {
			var acc complex128
			row := m[r*dim : (r+1)*dim]
			for c := 0; c < dim; c++ {
				acc += row[c] * in[c]
			}
			amps[idx[r]] = acc
		}
	}
}

// TestFusedKernelBitIdentityFuzz pins the unrolled k=1..3 fused fast
// paths to the generic complex accumulation loop.
func TestFusedKernelBitIdentityFuzz(t *testing.T) {
	rng := qmath.NewRNG(0xf05ed)
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(6)
		k := 1 + rng.Intn(3)
		if k > n {
			k = n
		}
		qubits := make([]int, 0, k)
		used := uint64(0)
		for len(qubits) < k {
			q := rng.Intn(n)
			if used>>uint(q)&1 == 0 {
				used |= 1 << uint(q)
				qubits = append(qubits, q)
			}
		}
		dim := 1 << uint(k)
		m := randAmps(dim*dim, rng) // dense invertible-enough matrix: arithmetic identity is what's under test
		s := MustNew(n, 1+rng.Intn(3))
		amps := randAmps(1<<uint(n), rng)
		copy(s.amps, amps)
		ref := append([]complex128(nil), amps...)

		if err := s.ApplyFused(qubits, m); err != nil {
			t.Fatal(err)
		}
		uq := make([]uint, k)
		for i, q := range qubits {
			uq[i] = uint(q)
		}
		refFused(ref, uq, m)
		bitsEqual(t, s.amps, ref, "ApplyFused")
	}
}

// TestWorkerCountBitIdentity runs the same random gate sequence at 1,
// 2, and 4 workers and requires bit-identical final states — the
// contract the workers ablation axis enforces at bench time.
func TestWorkerCountBitIdentity(t *testing.T) {
	rng := qmath.NewRNG(0x77e11)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(6)
		type step struct {
			g      gate.Type
			qubits []int
			params []float64
		}
		var prog []step
		pool := []gate.Type{gate.H, gate.RY, gate.RZ, gate.S, gate.T, gate.U3, gate.CX, gate.CZ, gate.CP, gate.SWAP, gate.CRY}
		for i := 0; i < 60; i++ {
			g := pool[rng.Intn(len(pool))]
			var qs []int
			q0 := rng.Intn(n)
			if g.Arity() == 2 {
				q1 := rng.Intn(n - 1)
				if q1 >= q0 {
					q1++
				}
				qs = []int{q0, q1}
			} else {
				qs = []int{q0}
			}
			params := make([]float64, g.ParamCount())
			for j := range params {
				params[j] = rng.Angle() - math.Pi
			}
			prog = append(prog, step{g, qs, params})
		}
		var states []*State
		for _, w := range []int{1, 2, 4} {
			s := MustNew(n, w)
			for _, st := range prog {
				s.ApplyGate(st.g, st.qubits, st.params)
			}
			s.MaterializePerm()
			states = append(states, s)
		}
		bitsEqual(t, states[1].amps, states[0].amps, "workers=2 vs 1")
		bitsEqual(t, states[2].amps, states[0].amps, "workers=4 vs 1")
	}
}

// TestPermTablesCached checks the readout-walk cache: the permWalk is
// built once per permutation, reused across repeated readouts (the
// shot-loop pattern), shared by Clone, and dropped by every perm
// mutation.
func TestPermTablesCached(t *testing.T) {
	rng := qmath.NewRNG(0x9e2a)
	s := MustNew(8, 2)
	copy(s.amps, randAmps(1<<8, rng))
	nrm := math.Sqrt(s.Norm())
	for i := range s.amps {
		s.amps[i] /= complex(nrm, 0)
	}

	s.SwapLogical(0, 5)
	s.SwapLogical(2, 7)
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

	// A further logical swap invalidates; the rebuilt walk must give
	// the same bits as a brute-force Amp readout (both compute the
	// same |a|² expression).
	s.SwapLogical(1, 6)
	if s.permTab != nil {
		t.Fatal("SwapLogical left a stale walk cached")
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
	copy(s.amps, randAmps(1<<16, rng))
	s.SwapLogical(0, 13)
	s.SwapLogical(4, 11)
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

// laneBody is one body of the four amplitude primitives, each at its Go
// loop's signature; ok is false for a body this CPU cannot run, and
// cpair is nil for a body without pairComplex.
type laneBody struct {
	name  string
	ok    bool
	scale func(v []float64, run, period int, pr, pi float64)
	table func(v, t []float64, run, period, row, tstep int)
	pair  func(v []float64, dist, run, period int, r0, r1, r2, r3 float64)
	cpair func(v []float64, dist, run, period int, m *laneMat2)
}

// goBody is the Go loops, the reference every assembly body in
// asmBodies (lanes_amd64_test.go; none on other GOARCH) is held to.
var goBody = laneBody{"go", true, scaleWindowsGo, scaleTableGo, pairRealGo, pairComplexGo}

// FuzzLanePrimitives holds every assembly body of scaleWindows,
// pairReal and pairComplex — SSE2 and AVX on amd64 (SSE2 only for
// pairComplex), each called directly whatever the CPU probe picked —
// bit for bit to its Go loop
// over arbitrary lane bits, arbitrary factors and arbitrary (run,
// period, dist) window shapes. A NaN is compared only as a NaN: its
// sign is the one documented divergence of the packed form. On other
// GOARCH there is no assembly body to hold.
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
			pairRealGo(paired, d, r, p, f0, f1, f2, f3)
			pairComplexGo(cpaired, d, r, p, &m)
		}
		got := make([]float64, n)
		for _, body := range asmBodies {
			if !body.ok {
				continue
			}
			copy(got, v)
			body.scale(got, r, p, f0, f1)
			if i, ok := sameLanes(got, scaled); !ok {
				t.Fatalf("%s scaleWindows(run %d, period %d, %v%+vi): lane %d = %#x, Go loop %#x",
					body.name, r, p, f0, f1, i, math.Float64bits(got[i]), math.Float64bits(scaled[i]))
			}
			if !pairs {
				continue
			}
			copy(got, v)
			body.pair(got, d, r, p, f0, f1, f2, f3)
			if i, ok := sameLanes(got, paired); !ok {
				t.Fatalf("%s pairReal(dist %d, run %d, period %d, [%v %v; %v %v]): lane %d = %#x, Go loop %#x",
					body.name, d, r, p, f0, f1, f2, f3, i, math.Float64bits(got[i]), math.Float64bits(paired[i]))
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

// FuzzPauliLanes holds pauliChunks — the SSE2 body on amd64 — bit for
// bit to pauliChunksGo over arbitrary lane bits (the seeds carry ±0,
// ±∞ and subnormals), 1 to pauliL lanes with arbitrary high parities,
// and the walks the evaluator builds from arbitrary Pauli masks on a
// block of 2 to 128 amplitudes and two qubits above it: runs of one, two
// and many amplitudes, a pivot inside or above the block (then either
// chunk of it), phases ±1 and ±i, parity walks, and partner offsets
// inside the block. A NaN is compared only as a NaN. On other GOARCH
// both sides are the Go loop.
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
		pauliChunks(&l, nl, &w)
		pauliChunksGo(&want, nl, &w)
		if i, ok := sameLanes(l.acc[:nl], want.acc[:nl]); !ok {
			t.Fatalf("pauliChunks(%d lanes, walk %+v): lane %d = %#x, Go loop %#x",
				nl, w, i, math.Float64bits(l.acc[i]), math.Float64bits(want.acc[i]))
		}
	})
}

// BenchmarkLanePrimitives reports each lane primitive's GB/s (b.SetBytes:
// the lanes it reads and writes once per call) for each body — the Go
// loop, and on amd64 the SSE2 and AVX bodies called directly (the AVX
// rows skipped on a CPU without it; pairComplex has no AVX body, so no
// avx cpair row) — over a 2^14-amplitude (256 KiB, L2-resident)
// buffer, by window width in amplitudes: 1 (qubit 0), 2 (qubit 1), 32,
// and one contiguous window. scale and table windows sit
// at every other window slot; pair (real) and cpair (complex, u3)
// windows fill the buffer with their partners. A table row is one entry
// per window advancing window by window at width 1 (a free stretch
// above other bits), and the window's own 32 or 1024 entries, repeated
// along it, at width 32 and contiguous (a free stretch from bit 0).
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
			run(b, "scale/"+name, 8*len(v)/2, func() { body.scale(v, w, 2*w, c, s) })
			if amps != 2 {
				row, tstep := 2*min(amps, 1<<10), 0
				if amps == 1 {
					tstep = 2
				}
				run(b, "table/"+name, 8*len(v)/2, func() { body.table(v, lanes(tab), w, 2*w, row, tstep) })
			}
			run(b, "pair/"+name, 8*len(v), func() { body.pair(v, w, w, 2*w, c, -s, s, c) })
			if body.cpair != nil {
				run(b, "cpair/"+name, 8*len(v), func() { body.cpair(v, w, w, 2*w, &u) })
			}
		}
	}
}
