package statevec

import (
	"math/bits"
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
// Every kernel is one of five strided primitives. Four write
// amplitudes — scaleWindows (a complex scale), scaleTable (a complex
// scale per amplitude, read from a table row), pairReal and pairComplex
// (a 2×2 on lanes dist apart) — applied to the sets of strided windows
// subspaceSets (tableSubspace, for scaleTable) enumerates; one reads
// them, pauliChunks (the Pauli evaluator's chunk sums, pauliL canonical
// chunks per call, one per lane). Call granularity is the rule: a
// primitive is called once per set of windows, never once per window,
// so the narrowest shapes (one amplitude per window, qubit 0) cost no
// call per amplitude and the primitives are free to be out-of-line
// assembly.
//
// The table contract (table.go): scaleTable multiplies window j by the
// table row at entry j·tstep, element by element and repeated along the
// window, so a diagonal group's table reaches every amplitude of its
// common subspace with no per-amplitude index — the index moves once
// per window. tstep is one entry stride of the table when the windows
// step along a stretch of free bits, 0 when they step along bits no
// member reads, and the row is one entry when bit 0 is not free.
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
// Packed doubles (lanes_amd64.s): the assembly bodies of the amplitude
// primitives work on whole amplitudes, both lanes at once — one per
// register in the SSE2 bodies (MULPD, ADDPD), two per register in the
// AVX ones (VMULPD, VADDPD, VADDSUBPD) — each lane still one IEEE 754
// multiply, add or subtract of the same operands, so it rounds exactly
// as the scalar form. The SSE2 bodies compute a complex product's real
// lane as re(x)*re(y) + im(x)*(−im(y)), the factor's sign flipped once
// by XORPD: rounding to nearest is symmetric, so a·(−b) = −(a·b), and
// IEEE 754 defines x − y as x + (−y); the AVX bodies subtract directly
// (VADDSUBPD). Addition and multiplication are commutative, so a lane's
// two operands may arrive in either order; the grouping of a sum of
// products is the scalar form's. No FMA anywhere: a fused multiply-add
// rounds once where the scalar form rounds twice. Every amd64 CPU runs
// the SSE2 bodies; one CPUID probe at init (hasAVX, lanes_amd64.go)
// switches the wrappers to the AVX bodies where the CPU has AVX and the
// OS saves its registers, with no setting to choose it. pairComplex has
// an SSE2 body only, and so has pauliChunks, which holds two chunk sums per register instead,
// one per lane: a lane's products are transposed against its
// neighbour's (UNPCKLPD, UNPCKHPD) so the two sums of products add
// lane-wise, still one IEEE 754 operation on the scalar form's operands
// each. The one divergence is the sign (and payload) of a NaN: a NaN
// propagates through a flipped factor and through either operand
// order, where the scalar form's choice of NaN operand differs — a
// state holding a NaN is already lost, and every NaN stays a NaN.
// FuzzLanePrimitives, FuzzPauliLanes and FuzzScaleTable hold every
// assembly body bit for bit to its Go loop over arbitrary lane bits
// and window shapes, NaNs compared only as NaNs.
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
	// the -1/√2 in h); pairs dispatches such matrices to the
	// term-skipping pairReal.
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

// pairs applies the matrix to windows of run lanes, one every period
// lanes from lane 0 of v (as many as fit), each paired with the window
// dist lanes on; real matrices take pairReal, the rest pairComplex.
func (m *laneMat2) pairs(v []float64, dist, run, period int) {
	if m.isReal {
		pairReal(v, dist, run, period, m.r0, m.r1, m.r2, m.r3)
		return
	}
	pairComplex(v, dist, run, period, m)
}

// pairSubspace applies the matrix to the amplitude pairs (i, i+2^t) of
// members [lo, hi) of the subspace whose fixed bits equal val and whose
// bit t is 0 — an uncontrolled mat1 (fixed = 0) or a controlled one
// (fixed = val = the control bits) over a whole state, a worker's
// chunk of one, or a tile.
func (m laneMat2) pairSubspace(v []float64, t uint, fixed, val uint64, lo, hi int) {
	dist := 1 << t
	subspaceSets(fixed|1<<t, val, lo, hi, func(off, run, period, count int) {
		end := off + (count-1)*period + dist + run
		m.pairs(v[2*off:2*end], 2*dist, 2*run, 2*period)
	})
}

// scaleSubspace multiplies members [lo, hi) of the subspace whose fixed
// bits equal val by the complex scalar (pr + pi·i) — every diagonal
// factor, from a whole-state phase to a tile's multi-bit predicate.
func scaleSubspace(v []float64, fixed, val uint64, lo, hi int, pr, pi float64) {
	subspaceSets(fixed, val, lo, hi, func(off, run, period, count int) {
		end := off + (count-1)*period + run
		scaleWindows(v[2*off:2*end], 2*run, 2*period, pr, pi)
	})
}

// subspaceSets enumerates members [lo, hi) of the subspace of amplitude
// indices whose fixed bits equal val (members numbered in index order)
// as sets of strided windows: visit(off, run, period, count) receives
// count windows of run amplitudes, the first at amplitude off and each
// next one period amplitudes on. A lane primitive takes one set per
// call.
//
// [lo, hi) is cut into aligned power-of-two blocks of members — one
// block for a whole sweep or an aligned chunk, a few at the edges of an
// unaligned one. A block is a cube: index bits [0, w) vary apart from
// the fixed bits among them, and everything above is constant. In a
// cube the free bits below the lowest fixed bit make the run, one
// stretch of free bits above it makes the stride, and every other free
// bit is enumerated, one set each.
func subspaceSets(fixed, val uint64, lo, hi int, visit func(off, run, period, count int)) {
	// strideBits picks the stride: the lowest stretch of at least this
	// many free bits, so a set walks nearby windows (a set of windows
	// far apart would pull each cache line of a tile in once per set);
	// failing that, the widest stretch. 2^4 windows per call keep the
	// call under the arithmetic even at one-amplitude windows.
	const strideBits = 4

	for p := lo; p < hi; {
		k := bits.Len(uint(hi-p)) - 1 // the block: 2^k members at p
		if tz := bits.TrailingZeros(uint(p)); tz < k {
			k = tz
		}
		// The block's base index and cube width: its members' k low
		// free bits, plus the fixed bits among them.
		base, w := uint64(p), k
		for f := fixed; f != 0; f &= f - 1 {
			pos := bits.TrailingZeros64(f)
			base = insertBit(base, uint(pos), val>>uint(pos)&1)
			if pos < w {
				w++
			}
		}
		cube := uint64(1)<<uint(w) - 1
		base = base&^cube | val&fixed&cube
		lb := min(bits.TrailingZeros64(fixed&cube), w)
		free := cube &^ (uint64(1)<<uint(lb) - 1) &^ fixed
		g, glen := 0, 0 // the stride: see strideBits
		for f := free; f != 0; {
			s := bits.TrailingZeros64(f)
			l := bits.TrailingZeros64(^(f >> uint(s)))
			if l > glen {
				g, glen = s, l
			}
			if l >= strideBits {
				break
			}
			f &^= (uint64(1)<<uint(l) - 1) << uint(s)
		}
		outer := free &^ ((uint64(1)<<uint(glen) - 1) << uint(g))
		for sub := uint64(0); ; {
			visit(int(base|sub), 1<<uint(lb), 1<<uint(g), 1<<uint(glen))
			if sub = (sub - outer) & outer; sub == 0 {
				break
			}
		}
		p += 1 << uint(k)
	}
}

// The lane primitives. Each takes one set of strided windows per call
// — windows of run lanes, one every period (> 0) lanes from lane 0 of
// v, as many as fit in v — never one window: at the narrowest windows (one
// amplitude) a call per window would cost more than the arithmetic. On
// amd64 they are the assembly bodies of lanes_amd64.s (SSE2, or AVX
// where the CPU has it); elsewhere they are the Go loops below, which
// stay compiled on every GOARCH as the reference the lane fuzz suite
// holds the assembly to. An odd last lane
// of a window is left alone: windows hold whole amplitudes.

// scaleWindowsGo multiplies every amplitude of the windows by the
// complex scalar (pr + pi·i): scaleWindows' Go body.
func scaleWindowsGo(v []float64, run, period int, pr, pi float64) {
	for b := 0; b+run <= len(v); b += period {
		w := v[b : b+run : b+run]
		for j := 0; j+1 < len(w); j += 2 {
			ar, ai := w[j], w[j+1]
			w[j] = float64(ar*pr) - float64(ai*pi)
			w[j+1] = float64(ar*pi) + float64(ai*pr)
		}
	}
}

// scaleTableGo multiplies every amplitude of the windows by a table
// entry: window j takes the row of row lanes at lane j·tstep of t, and
// its amplitude k the row's entry k mod row/2 — the row repeats along a
// window longer than it (row/2 divides the window's amplitudes), and
// tstep 0 gives every window the same row. The product is scaleWindows',
// entry for scalar: scaleTable's Go body.
func scaleTableGo(v, t []float64, run, period, row, tstep int) {
	for b, r := 0, 0; b+run <= len(v); b, r = b+period, r+tstep {
		w := v[b : b+run : b+run]
		e := t[r : r+row : r+row]
		for j := 0; j+1 < len(w); j += 2 {
			k := j % row
			ar, ai := w[j], w[j+1]
			er, ei := e[k], e[k+1]
			w[j] = float64(ar*er) - float64(ai*ei)
			w[j+1] = float64(ar*ei) + float64(ai*er)
		}
	}
}

// pairRealGo applies the real 2×2 [r0 r1; r2 r3] to each window and
// its partner dist lanes on, lane by lane (real and imaginary lanes
// decouple under a real matrix): pairReal's Go body. Windows and
// partners must not overlap (dist ≥ run, no lane in two windows).
func pairRealGo(v []float64, dist, run, period int, r0, r1, r2, r3 float64) {
	for b := 0; b+dist+run <= len(v); b += period {
		p0 := v[b : b+run : b+run]
		p1 := v[b+dist : b+dist+run : b+dist+run]
		for j := 0; j+1 < len(p0); j += 2 {
			ar, ai := p0[j], p0[j+1]
			br, bi := p1[j], p1[j+1]
			p0[j] = float64(r0*ar) + float64(r1*br)
			p0[j+1] = float64(r0*ai) + float64(r1*bi)
			p1[j] = float64(r2*ar) + float64(r3*br)
			p1[j+1] = float64(r2*ai) + float64(r3*bi)
		}
	}
}

// pairComplexGo is pairRealGo for a complex matrix: the full complex
// pair update, four loads, twenty-eight float ops and four stores per
// amplitude pair. pairComplex's Go body.
func pairComplexGo(v []float64, dist, run, period int, m *laneMat2) {
	r0, i0, r1, i1 := m.r0, m.i0, m.r1, m.i1
	r2, i2, r3, i3 := m.r2, m.i2, m.r3, m.i3
	for b := 0; b+dist+run <= len(v); b += period {
		p0 := v[b : b+run : b+run]
		p1 := v[b+dist : b+dist+run : b+dist+run]
		for j := 0; j+1 < len(p0); j += 2 {
			ar, ai := p0[j], p0[j+1]
			br, bi := p1[j], p1[j+1]
			p0[j] = (float64(r0*ar) - float64(i0*ai)) + (float64(r1*br) - float64(i1*bi))
			p0[j+1] = (float64(r0*ai) + float64(i0*ar)) + (float64(r1*bi) + float64(i1*br))
			p1[j] = (float64(r2*ar) - float64(i2*ai)) + (float64(r3*br) - float64(i3*bi))
			p1[j+1] = (float64(r2*ai) + float64(i2*ar)) + (float64(r3*bi) + float64(i3*br))
		}
	}
}

// pauliL is the lane count of pauliChunks: the canonical chunks of
// one Pauli job summed in one call, one chunk per lane. It is part of
// the SSE2 body's register layout (two lanes per register), not a knob.
const pauliL = 4

// The contribution kinds of a Pauli walk.
const (
	pauliReal = iota // a pair term with phase ±1: ±2·(ar·pr + ai·pi)
	pauliImag        // a pair term with phase ±i: ±2·(ar·pi − ai·pr)
	pauliNorm        // a parity term: ar² + ai²
)

// pauliWalk is the walk one Pauli job takes through a canonical chunk
// of every block it reads, shared by all lanes: cnt enumeration indices
// j from block index off, in windows of run consecutive amplitudes.
// Index j sits at block index b = off | j&low | (j&^low)<<1, the
// in-block pivot inserted as a clear bit (low = 2^pivot − 1; −1 with
// the pivot above the block). A window's parity is its lane's high
// parity plus popcount(b & sign); a pair reads its partner window at
// b ^ flip and takes the phase's sign from the parity (negated once
// more by neg), a parity walk reads b | half when the parity is even.
type pauliWalk struct {
	off, cnt, run int
	low, sign     int
	flip, half    int
	kind, neg     int
}

// pauliLanes holds the lanes of one pauliChunks call: each lane's block
// and partner block (lane views; other is unused by a parity walk), the
// parity the bits above the block contribute, and the chunk sum the
// call writes.
type pauliLanes struct {
	self, other [pauliL][]float64
	hp          [pauliL]int
	acc         [pauliL]float64
}

// pauliChunksGo sums one canonical chunk in each of the first nl lanes,
// each in ascending j: pauliChunks' Go body, and the only place the
// Pauli contribution expressions live. A pair term is 2·Re(ph·a·conj(p))
// in its real-phase form (expectation.go has the argument that the sum
// keeps its bits).
func pauliChunksGo(l *pauliLanes, nl int, w *pauliWalk) {
	for i := 0; i < nl; i++ {
		self, other := l.self[i], l.other[i]
		var acc float64
		for j := 0; j < w.cnt; j += w.run {
			b := w.off | j&w.low | (j&^w.low)<<1
			par := (l.hp[i] + bits.OnesCount(uint(b&w.sign))) & 1
			if w.kind == pauliNorm {
				if par == 0 {
					b |= w.half
				}
				a := self[2*b:][:2*w.run]
				for k := 0; k+1 < len(a); k += 2 {
					acc += float64(a[k]*a[k]) + float64(a[k+1]*a[k+1])
				}
				continue
			}
			a := self[2*b:][:2*w.run]
			p := other[2*(b^w.flip):][:len(a)]
			neg := par^w.neg == 1
			for k := 0; k+1 < len(a); k += 2 {
				var x float64
				if w.kind == pauliReal {
					x = float64(a[k]*p[k]) + float64(a[k+1]*p[k+1])
				} else {
					x = float64(a[k]*p[k+1]) - float64(a[k+1]*p[k])
				}
				x += x
				if neg {
					x = -x
				}
				acc += x
			}
		}
		l.acc[i] = acc
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
