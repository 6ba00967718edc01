package statevec

import (
	"unsafe"

	"qgear/internal/gate"
)

// Float64 lane kernels: the amplitude buffer is a []complex128, but
// the hot loops address it through a reinterpreted []float64 view —
// interleaved [re, im, re, im, ...] lanes over the same memory, no
// copy, no storage-layout change. Working in explicit real/imag
// arithmetic lets the loops keep the eight matrix scalars in
// registers, stream contiguous lane runs with hoisted bounds checks,
// and drop the block/stride bookkeeping to plain increments — none of
// which the compiler can do for opaque complex128 values.
//
// Bit-identity contract: every lane kernel performs *exactly* the
// operations of the complex128 arithmetic it replaces, in the same
// order and grouping. A complex multiply x*y is
//
//	re = re(x)*re(y) - im(x)*im(y)
//	im = re(x)*im(y) + im(x)*re(y)
//
// and a sum of products m0*a0 + m1*a1 + ... groups left-associatively
// per component. Each product is wrapped in an explicit float64()
// conversion, which the language spec defines as a rounding point: on
// targets whose compiler would otherwise contract a multiply-add pair
// into a fused instruction, the conversion forbids it, so lane and
// complex kernels round identically everywhere. The lane fuzz suite
// (lanes_test.go) pins exact bit equality against reference complex128
// implementations for every micro-op kind.
//
// Real-matrix fast path: matrices whose four imaginary lanes are all
// exactly +0 (h, x, y-axis rotations — the QCrank workload is nothing
// but ry and cx) skip the zero-valued half of the products, 12 float
// ops per pair instead of 28. Every skipped term is an exact ±0, so
// for any finite amplitude with a nonzero result bit the sum is
// unchanged; the only divergence from the full complex evaluation is
// the sign of exactly-zero outputs (x + ±0 versus x) and NaN
// propagation through the skipped products — neither observable in
// probabilities, sampling, or any norm. The fuzz suite pins the fast
// path bit-for-bit against the complex reference on finite nonzero
// states.

// lanes reinterprets a complex128 slice as its interleaved float64
// view. The two slices alias the same memory; amplitude i occupies
// lanes 2i (real) and 2i+1 (imaginary).
func lanes(a []complex128) []float64 {
	if len(a) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&a[0])), 2*len(a))
}

// laneMat2 is a 2×2 complex matrix split into scalar lanes, the form
// the mat1 kernels keep in registers.
type laneMat2 struct {
	r0, i0, r1, i1 float64 // row 0: m[0], m[1]
	r2, i2, r3, i3 float64 // row 1: m[2], m[3]
	// isReal marks a matrix whose imaginary lanes are all exact zeros
	// (either sign: complex negation of a real entry yields -0, e.g.
	// the -1/√2 in h); the mat1 kernels dispatch such matrices to the
	// term-skipping real-arithmetic loops.
	isReal bool
}

func mat2Lanes(m gate.Mat2) laneMat2 {
	lm := laneMat2{
		r0: real(m[0]), i0: imag(m[0]), r1: real(m[1]), i1: imag(m[1]),
		r2: real(m[2]), i2: imag(m[2]), r3: real(m[3]), i3: imag(m[3]),
	}
	lm.isReal = lm.i0 == 0 && lm.i1 == 0 && lm.i2 == 0 && lm.i3 == 0
	return lm
}

// run applies the matrix to a contiguous run of amplitude pairs: pair
// j/2 is (p0[j], p0[j+1]) with partner (p1[j], p1[j+1]). This is the
// workhorse: both streams are sequential, so the loop is four loads,
// twenty-eight guarded float ops, and four stores per pair with no
// index math.
func (m *laneMat2) run(p0, p1 []float64) {
	r0, i0, r1, i1 := m.r0, m.i0, m.r1, m.i1
	r2, i2, r3, i3 := m.r2, m.i2, m.r3, m.i3
	p1 = p1[:len(p0)]
	if m.isReal {
		// Same dispatch as sweep: a pair must see one formula no
		// matter which kernel shape (or worker chunk) reaches it, so
		// results stay bit-identical across worker counts.
		for j := 0; j < len(p0); j += 2 {
			ar, ai := p0[j], p0[j+1]
			br, bi := p1[j], p1[j+1]
			p0[j] = float64(r0*ar) + float64(r1*br)
			p0[j+1] = float64(r0*ai) + float64(r1*bi)
			p1[j] = float64(r2*ar) + float64(r3*br)
			p1[j+1] = float64(r2*ai) + float64(r3*bi)
		}
		return
	}
	for j := 0; j < len(p0); j += 2 {
		ar, ai := p0[j], p0[j+1]
		br, bi := p1[j], p1[j+1]
		p0[j] = (float64(r0*ar) - float64(i0*ai)) + (float64(r1*br) - float64(i1*bi))
		p0[j+1] = (float64(r0*ai) + float64(i0*ar)) + (float64(r1*bi) + float64(i1*br))
		p1[j] = (float64(r2*ar) - float64(i2*ai)) + (float64(r3*br) - float64(i3*bi))
		p1[j+1] = (float64(r2*ai) + float64(i2*ar)) + (float64(r3*bi) + float64(i3*br))
	}
}

// adj applies the matrix to adjacent amplitude pairs — target bit 0,
// where pair k is amplitudes (2k, 2k+1), i.e. lanes (4k..4k+3). One
// flat pass, no block nesting: the degenerate one-iteration inner
// loops of the blocked form cost more than the arithmetic at this
// width, and low targets are exactly where relabeling parks the
// hottest qubits.
func (m *laneMat2) adj(v []float64) {
	r0, i0, r1, i1 := m.r0, m.i0, m.r1, m.i1
	r2, i2, r3, i3 := m.r2, m.i2, m.r3, m.i3
	if m.isReal {
		for j := 0; j+3 < len(v); j += 4 {
			ar, ai := v[j], v[j+1]
			br, bi := v[j+2], v[j+3]
			v[j] = float64(r0*ar) + float64(r1*br)
			v[j+1] = float64(r0*ai) + float64(r1*bi)
			v[j+2] = float64(r2*ar) + float64(r3*br)
			v[j+3] = float64(r2*ai) + float64(r3*bi)
		}
		return
	}
	for j := 0; j+3 < len(v); j += 4 {
		ar, ai := v[j], v[j+1]
		br, bi := v[j+2], v[j+3]
		v[j] = (float64(r0*ar) - float64(i0*ai)) + (float64(r1*br) - float64(i1*bi))
		v[j+1] = (float64(r0*ai) + float64(i0*ar)) + (float64(r1*bi) + float64(i1*br))
		v[j+2] = (float64(r2*ar) - float64(i2*ai)) + (float64(r3*br) - float64(i3*bi))
		v[j+3] = (float64(r2*ai) + float64(i2*ar)) + (float64(r3*bi) + float64(i3*br))
	}
}

// runOdd is run restricted to the odd amplitude slots of both
// windows — the (control=qubit 0, target=T) subspace, where every
// second pair participates.
func (m *laneMat2) runOdd(p0, p1 []float64) {
	r0, i0, r1, i1 := m.r0, m.i0, m.r1, m.i1
	r2, i2, r3, i3 := m.r2, m.i2, m.r3, m.i3
	p1 = p1[:len(p0)]
	if m.isReal {
		for j := 2; j < len(p0); j += 4 {
			ar, ai := p0[j], p0[j+1]
			br, bi := p1[j], p1[j+1]
			p0[j] = float64(r0*ar) + float64(r1*br)
			p0[j+1] = float64(r0*ai) + float64(r1*bi)
			p1[j] = float64(r2*ar) + float64(r3*br)
			p1[j+1] = float64(r2*ai) + float64(r3*bi)
		}
		return
	}
	for j := 2; j < len(p0); j += 4 {
		ar, ai := p0[j], p0[j+1]
		br, bi := p1[j], p1[j+1]
		p0[j] = (float64(r0*ar) - float64(i0*ai)) + (float64(r1*br) - float64(i1*bi))
		p0[j+1] = (float64(r0*ai) + float64(i0*ar)) + (float64(r1*bi) + float64(i1*br))
		p1[j] = (float64(r2*ar) - float64(i2*ai)) + (float64(r3*br) - float64(i3*bi))
		p1[j+1] = (float64(r2*ai) + float64(i2*ar)) + (float64(r3*bi) + float64(i3*br))
	}
}

// sweep applies the matrix to every pair of a window whose target
// stride is step lanes (2 << T): the uncontrolled mat1 pattern.
// Controlled kernels reuse it per control block — inside a block the
// control bit is constant, so the remaining structure is exactly an
// uncontrolled sweep. The pair-update body is written inline in every
// shape (run/adj are too large for the inliner, and a call per
// two-pair block at small strides costs more than the arithmetic —
// exactly the degenerate-loop overhead this layer exists to remove);
// the fuzz suite pins each copy against the complex reference.
func (m *laneMat2) sweep(v []float64, step int) {
	if m.isReal {
		m.sweepReal(v, step)
		return
	}
	r0, i0, r1, i1 := m.r0, m.i0, m.r1, m.i1
	r2, i2, r3, i3 := m.r2, m.i2, m.r3, m.i3
	switch step {
	case 2: // target bit 0: adjacent pairs, one flat pass
		for j := 0; j+3 < len(v); j += 4 {
			ar, ai := v[j], v[j+1]
			br, bi := v[j+2], v[j+3]
			v[j] = (float64(r0*ar) - float64(i0*ai)) + (float64(r1*br) - float64(i1*bi))
			v[j+1] = (float64(r0*ai) + float64(i0*ar)) + (float64(r1*bi) + float64(i1*br))
			v[j+2] = (float64(r2*ar) - float64(i2*ai)) + (float64(r3*br) - float64(i3*bi))
			v[j+3] = (float64(r2*ai) + float64(i2*ar)) + (float64(r3*bi) + float64(i3*br))
		}
	case 4: // target bit 1: two pairs per block, unrolled flat
		for j := 0; j+7 < len(v); j += 8 {
			ar, ai := v[j], v[j+1]
			br, bi := v[j+4], v[j+5]
			v[j] = (float64(r0*ar) - float64(i0*ai)) + (float64(r1*br) - float64(i1*bi))
			v[j+1] = (float64(r0*ai) + float64(i0*ar)) + (float64(r1*bi) + float64(i1*br))
			v[j+4] = (float64(r2*ar) - float64(i2*ai)) + (float64(r3*br) - float64(i3*bi))
			v[j+5] = (float64(r2*ai) + float64(i2*ar)) + (float64(r3*bi) + float64(i3*br))
			cr, ci := v[j+2], v[j+3]
			dr, di := v[j+6], v[j+7]
			v[j+2] = (float64(r0*cr) - float64(i0*ci)) + (float64(r1*dr) - float64(i1*di))
			v[j+3] = (float64(r0*ci) + float64(i0*cr)) + (float64(r1*di) + float64(i1*dr))
			v[j+6] = (float64(r2*cr) - float64(i2*ci)) + (float64(r3*dr) - float64(i3*di))
			v[j+7] = (float64(r2*ci) + float64(i2*cr)) + (float64(r3*di) + float64(i3*dr))
		}
	default:
		for blk := 0; blk < len(v); blk += 2 * step {
			p0 := v[blk : blk+step : blk+step]
			p1 := v[blk+step : blk+2*step : blk+2*step]
			p1 = p1[:len(p0)]
			for j := 0; j < len(p0); j += 2 {
				ar, ai := p0[j], p0[j+1]
				br, bi := p1[j], p1[j+1]
				p0[j] = (float64(r0*ar) - float64(i0*ai)) + (float64(r1*br) - float64(i1*bi))
				p0[j+1] = (float64(r0*ai) + float64(i0*ar)) + (float64(r1*bi) + float64(i1*br))
				p1[j] = (float64(r2*ar) - float64(i2*ai)) + (float64(r3*br) - float64(i3*bi))
				p1[j+1] = (float64(r2*ai) + float64(i2*ar)) + (float64(r3*bi) + float64(i3*br))
			}
		}
	}
}

// sweepReal is sweep for real-valued matrices: the imaginary matrix
// lanes are exact zeros, so their products are skipped (see the
// real-matrix fast path note in the package doc). Real and imaginary
// amplitude lanes decouple into the same 2×2 real transform.
func (m *laneMat2) sweepReal(v []float64, step int) {
	r0, r1, r2, r3 := m.r0, m.r1, m.r2, m.r3
	switch step {
	case 2: // target bit 0: adjacent pairs, flat, two pairs per iteration
		j := 0
		for ; j+7 < len(v); j += 8 {
			ar, ai := v[j], v[j+1]
			br, bi := v[j+2], v[j+3]
			v[j] = float64(r0*ar) + float64(r1*br)
			v[j+1] = float64(r0*ai) + float64(r1*bi)
			v[j+2] = float64(r2*ar) + float64(r3*br)
			v[j+3] = float64(r2*ai) + float64(r3*bi)
			cr, ci := v[j+4], v[j+5]
			dr, di := v[j+6], v[j+7]
			v[j+4] = float64(r0*cr) + float64(r1*dr)
			v[j+5] = float64(r0*ci) + float64(r1*di)
			v[j+6] = float64(r2*cr) + float64(r3*dr)
			v[j+7] = float64(r2*ci) + float64(r3*di)
		}
		if j+3 < len(v) {
			ar, ai := v[j], v[j+1]
			br, bi := v[j+2], v[j+3]
			v[j] = float64(r0*ar) + float64(r1*br)
			v[j+1] = float64(r0*ai) + float64(r1*bi)
			v[j+2] = float64(r2*ar) + float64(r3*br)
			v[j+3] = float64(r2*ai) + float64(r3*bi)
		}
	case 4: // target bit 1: two pairs per block, unrolled flat
		for j := 0; j+7 < len(v); j += 8 {
			ar, ai := v[j], v[j+1]
			br, bi := v[j+4], v[j+5]
			v[j] = float64(r0*ar) + float64(r1*br)
			v[j+1] = float64(r0*ai) + float64(r1*bi)
			v[j+4] = float64(r2*ar) + float64(r3*br)
			v[j+5] = float64(r2*ai) + float64(r3*bi)
			cr, ci := v[j+2], v[j+3]
			dr, di := v[j+6], v[j+7]
			v[j+2] = float64(r0*cr) + float64(r1*dr)
			v[j+3] = float64(r0*ci) + float64(r1*di)
			v[j+6] = float64(r2*cr) + float64(r3*dr)
			v[j+7] = float64(r2*ci) + float64(r3*di)
		}
	default:
		// step is a power of two ≥ 8 here, so each window is a
		// multiple of two pairs: two per iteration, no tail.
		for blk := 0; blk < len(v); blk += 2 * step {
			p0 := v[blk : blk+step : blk+step]
			p1 := v[blk+step : blk+2*step : blk+2*step]
			p1 = p1[:len(p0)]
			for j := 0; j+3 < len(p0); j += 4 {
				ar, ai := p0[j], p0[j+1]
				br, bi := p1[j], p1[j+1]
				p0[j] = float64(r0*ar) + float64(r1*br)
				p0[j+1] = float64(r0*ai) + float64(r1*bi)
				p1[j] = float64(r2*ar) + float64(r3*br)
				p1[j+1] = float64(r2*ai) + float64(r3*bi)
				cr, ci := p0[j+2], p0[j+3]
				dr, di := p1[j+2], p1[j+3]
				p0[j+2] = float64(r0*cr) + float64(r1*dr)
				p0[j+3] = float64(r0*ci) + float64(r1*di)
				p1[j+2] = float64(r2*cr) + float64(r3*dr)
				p1[j+3] = float64(r2*ci) + float64(r3*di)
			}
		}
	}
}

// scaleRun multiplies a contiguous lane run by the complex scalar
// (pr + pi·i) — the diagonal-gate inner loop. Kept small enough to
// inline: diagonal windows can be as narrow as two amplitudes, where
// a call (or a wider unrolled body that defeats inlining) costs more
// than the arithmetic.
func scaleRun(seg []float64, pr, pi float64) {
	for j := 0; j+1 < len(seg); j += 2 {
		ar, ai := seg[j], seg[j+1]
		seg[j] = float64(ar*pr) - float64(ai*pi)
		seg[j+1] = float64(ar*pi) + float64(ai*pr)
	}
}

// scaleOdd multiplies the odd amplitude slots of a lane window by the
// scalar — a diagonal factor on qubit 0.
func scaleOdd(seg []float64, pr, pi float64) {
	for j := 2; j+1 < len(seg); j += 4 {
		ar, ai := seg[j], seg[j+1]
		seg[j] = float64(ar*pr) - float64(ai*pi)
		seg[j+1] = float64(ar*pi) + float64(ai*pr)
	}
}

// scaleAB multiplies even amplitude slots by (ar + ai·i) and odd
// slots by (br + bi·i) in one pass — diag(A, B) on qubit 0.
func scaleAB(v []float64, ar, ai, br, bi float64) {
	for j := 0; j+3 < len(v); j += 4 {
		xr, xi := v[j], v[j+1]
		yr, yi := v[j+2], v[j+3]
		v[j] = float64(xr*ar) - float64(xi*ai)
		v[j+1] = float64(xr*ai) + float64(xi*ar)
		v[j+2] = float64(yr*br) - float64(yi*bi)
		v[j+3] = float64(yr*bi) + float64(yi*br)
	}
}

// Swap kernels stay on complex128 elements: a swap moves values
// exactly whatever the view, and 16-byte moves are the faster shape.

// swapRun exchanges a[i] <-> b[i] over two equal-length runs.
func swapRun(a, b []complex128) {
	b = b[:len(a)]
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
}

// swapAdj exchanges adjacent amplitude pairs (target qubit 0).
func swapAdj(w []complex128) {
	for i := 0; i+1 < len(w); i += 2 {
		w[i], w[i+1] = w[i+1], w[i]
	}
}

// swapOdd exchanges the odd slots of two windows (control qubit 0).
func swapOdd(a, b []complex128) {
	b = b[:len(a)]
	for i := 1; i < len(a); i += 2 {
		a[i], b[i] = b[i], a[i]
	}
}

// swapStride exchanges every second element of two runs starting at
// their first elements — the bit-swap pattern when one operand is
// qubit 0.
func swapStride(a, b []complex128) {
	b = b[:len(a)]
	for i := 0; i < len(a); i += 2 {
		a[i], b[i] = b[i], a[i]
	}
}

// swapSweep exchanges every pair of a window whose target stride is
// step amplitudes — the uncontrolled X pattern, reused per control
// block by the controlled kernels.
func swapSweep(w []complex128, step int) {
	if step == 1 {
		swapAdj(w)
		return
	}
	for blk := 0; blk < len(w); blk += 2 * step {
		swapRun(w[blk:blk+step:blk+step], w[blk+step:blk+2*step:blk+2*step])
	}
}
