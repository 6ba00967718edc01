package statevec

import (
	"math"
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
// bit for bit.
func TestTileKernelBitIdentityFuzz(t *testing.T) {
	rng := qmath.NewRNG(0x1a9e5)
	for trial := 0; trial < 400; trial++ {
		tb := 2 + rng.Intn(7) // tile widths 2..8
		tile := randAmps(1<<uint(tb), rng)
		ref := append([]complex128(nil), tile...)

		var ctx string
		switch rng.Intn(4) {
		case 0: // TileMat1, all control placements
			op := TileOp{Kind: TileMat1, T: uint8(rng.Intn(tb))}
			if rng.Intn(2) == 0 {
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
		bitsEqual(t, tile, ref, ctx)
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
// serial reference regardless of chunk boundaries.
func TestFullSweepKernelBitIdentityFuzz(t *testing.T) {
	rng := qmath.NewRNG(0xf0522)
	for trial := 0; trial < 250; trial++ {
		n := 2 + rng.Intn(8) // 2..9 qubits
		workers := []int{1, 2, 4}[rng.Intn(3)]
		s := MustNew(n, workers)
		amps := randAmps(1<<uint(n), rng)
		copy(s.amps, amps)
		ref := append([]complex128(nil), amps...)

		var ctx string
		switch rng.Intn(6) {
		case 0:
			tq := uint(rng.Intn(n))
			var m gate.Mat2
			if rng.Intn(2) == 0 {
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
			if rng.Intn(2) == 0 {
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
			refControlled1(ref, c, tq, gate.Matrix1(gate.X, nil))
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
		bitsEqual(t, s.amps, ref, ctx)
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

// TestPermTablesCached checks the readout-table cache: permTables is
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
		t.Fatal("readout did not populate the permTables cache")
	}
	p2 := s.Probabilities()
	if s.permTab != tab {
		t.Fatal("second readout rebuilt the cached tables")
	}
	for i := range p1 {
		if math.Float64bits(p1[i]) != math.Float64bits(p2[i]) {
			t.Fatalf("cached readout differs at %d: %v vs %v", i, p1[i], p2[i])
		}
	}

	// Clone shares the immutable tables.
	c := s.Clone()
	if c.permTab != tab {
		t.Fatal("Clone did not share the cached tables")
	}

	// A further logical swap invalidates; the rebuilt tables must give
	// the same answer as a brute-force Amp readout.
	s.SwapLogical(1, 6)
	if s.permTab != nil {
		t.Fatal("SwapLogical left stale tables cached")
	}
	p3 := s.Probabilities()
	for i := range p3 {
		a := s.Amp(uint64(i))
		want := real(a)*real(a) + imag(a)*imag(a)
		if math.Abs(p3[i]-want) > 1e-15 {
			t.Fatalf("post-invalidation readout wrong at %d: %v vs %v", i, p3[i], want)
		}
	}

	// Materializing drops both the permutation and the tables.
	s.MaterializePerm()
	if s.permTab != nil {
		t.Fatal("MaterializePerm left tables cached")
	}
	if err := s.PrepareBasis(3); err != nil {
		t.Fatal(err)
	}
	if s.permTab != nil {
		t.Fatal("PrepareBasis left tables cached")
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
