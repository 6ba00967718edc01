package statevec

import (
	"fmt"

	"qgear/internal/gate"
	"qgear/internal/qmath"
)

// ApplyMat1 applies a 2×2 unitary to the target qubit. Per Eq. (2) of
// the paper this is U acting on qubit t with identities elsewhere; the
// engine realizes it by mixing the 2^(n-1) amplitude pairs whose
// indices differ only in bit t.
func (s *State) ApplyMat1(target int, m gate.Mat2) {
	s.ensureCanonical()
	s.checkQubit(target)
	t := uint(target)
	half := len(s.amps) >> 1
	lm := mat2Lanes(m)
	v := lanes(s.amps)
	if s.serial(half) {
		lm.pairSubspace(v, t, 0, 0, 0, half)
		return
	}
	s.fanOut(half, func(_, lo, hi int) { lm.pairSubspace(v, t, 0, 0, lo, hi) })
}

// applyControlled1 applies a 2×2 unitary to target, controlled on
// control being |1> — Eq. (3)'s diag(I, U) block structure. Only the
// 2^(n-2) amplitude pairs with the control bit set are touched, which
// is the scattered, non-contiguous access pattern Appendix A describes
// for the CX gate.
func (s *State) applyControlled1(control, target int, m gate.Mat2) {
	s.ensureCanonical()
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("statevec: control equals target")
	}
	c, t := uint(control), uint(target)
	quarter := len(s.amps) >> 2
	lm := mat2Lanes(m)
	v := lanes(s.amps)
	cbit := uint64(1) << c
	if s.serial(quarter) {
		lm.pairSubspace(v, t, cbit, cbit, 0, quarter)
		return
	}
	s.fanOut(quarter, func(_, lo, hi int) { lm.pairSubspace(v, t, cbit, cbit, lo, hi) })
}

// ApplyCX applies the controlled-X with a swap-only inner loop (no
// complex multiplies), the special case the paper's QCrank workload
// leans on: the CX count equals the pixel count, so this path dominates
// image-encoding simulations.
func (s *State) ApplyCX(control, target int) {
	s.ensureCanonical()
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("statevec: control equals target")
	}
	c, t := uint(control), uint(target)
	quarter := len(s.amps) >> 2
	amps := s.amps
	if s.serial(quarter) {
		cxChunk(amps, c, t, 0, quarter)
		return
	}
	s.fanOut(quarter, func(_, lo, hi int) { cxChunk(amps, c, t, lo, hi) })
}

// cxChunk is ApplyCX over control-set pairs [lo, hi).
func cxChunk(amps []complex128, c, t uint, lo, hi int) {
	step := 1 << t
	switch {
	case t == 0:
		cw := c - 1
		cm := 1 << cw
		for p := lo; p < hi; {
			within := p & (cm - 1)
			run := cm - within
			if run > hi-p {
				run = hi - p
			}
			cell := int(insertBit(uint64(p), cw, 1))
			swapAdj(amps[2*cell : 2*(cell+run)])
			p += run
		}
	case c == 0:
		tw := t - 1
		tm := 1 << tw
		for p := lo; p < hi; {
			within := p & (tm - 1)
			run := tm - within
			if run > hi-p {
				run = hi - p
			}
			base := int(qmath.InsertTwoBits(uint64(p), 0, 1, t, 0)) - 1
			swapOdd(amps[base:base+2*run:base+2*run], amps[base+step:base+step+2*run:base+step+2*run])
			p += run
		}
	default:
		b0 := c
		if t < c {
			b0 = t
		}
		m0 := 1 << b0
		for p := lo; p < hi; {
			within := p & (m0 - 1)
			run := m0 - within
			if run > hi-p {
				run = hi - p
			}
			i0 := int(qmath.InsertTwoBits(uint64(p), c, 1, t, 0))
			swapRun(amps[i0:i0+run:i0+run], amps[i0+step:i0+step+run:i0+step+run])
			p += run
		}
	}
}

// ApplySwap exchanges qubits a and b in a single sweep: amplitudes
// whose (a, b) bits read 01 swap with their 10 partners; the 00 and 11
// subspaces are untouched. One pass over half the amplitudes, versus
// the three ApplyCX passes of the textbook decomposition — the moves
// are value-exact either way, so both produce bit-identical states.
func (s *State) ApplySwap(a, b int) {
	s.ensureCanonical()
	s.checkQubit(a)
	s.checkQubit(b)
	if a == b {
		panic("statevec: swap with identical operands")
	}
	s.swapBits(uint(a), uint(b))
}

// swapBits is the raw physical-bit exchange kernel behind ApplySwap
// and MaterializePerm. The swapped pair set is symmetric in (a, b), so
// positions are normalized to lo1 < hi1 and amplitudes with
// (lo1, hi1) = (1, 0) exchange with their (0, 1) partners over
// contiguous runs.
func (s *State) swapBits(a, b uint) {
	quarter := len(s.amps) >> 2
	amps := s.amps
	if s.serial(quarter) {
		swapBitsChunk(amps, a, b, 0, quarter)
		return
	}
	s.fanOut(quarter, func(_, lo, hi int) { swapBitsChunk(amps, a, b, lo, hi) })
}

// swapBitsChunk is swapBits over the exchanged pairs [lo, hi).
func swapBitsChunk(amps []complex128, a, b uint, lo, hi int) {
	lo1, hi1 := a, b
	if lo1 > hi1 {
		lo1, hi1 = hi1, lo1
	}
	d := 1<<hi1 - 1<<lo1 // partner offset
	if lo1 == 0 {
		// One operand is qubit 0: partners interleave, so swap
		// every second amplitude of paired windows.
		hw := hi1 - 1
		hm := 1 << hw
		for p := lo; p < hi; {
			within := p & (hm - 1)
			run := hm - within
			if run > hi-p {
				run = hi - p
			}
			i0 := 2*int(insertBit(uint64(p), hw, 0)) + 1
			swapStride(amps[i0:i0+2*run:i0+2*run], amps[i0+d:i0+d+2*run:i0+d+2*run])
			p += run
		}
		return
	}
	m0 := 1 << lo1
	for p := lo; p < hi; {
		within := p & (m0 - 1)
		run := m0 - within
		if run > hi-p {
			run = hi - p
		}
		i0 := int(qmath.InsertTwoBits(uint64(p), lo1, 1, hi1, 0))
		swapRun(amps[i0:i0+run:i0+run], amps[i0+d:i0+d+run:i0+d+run])
		p += run
	}
}

// MaxFusedQubits caps fused-unitary width; the paper's QFT kernel uses
// gate fusion = 5 (Appendix D.2).
const MaxFusedQubits = 6

// ApplyFused applies a dense 2^k × 2^k unitary (row-major) to the k
// listed qubits, where qubits[j] carries bit j of the matrix index.
// This is the execution primitive behind the kernel transformer's gate
// fusion pass: adjacent gates on a small qubit set are pre-multiplied
// into one matrix and applied in a single sweep over the state.
func (s *State) ApplyFused(qubits []int, m []complex128) error {
	s.ensureCanonical()
	k := len(qubits)
	if k == 0 || k > MaxFusedQubits {
		return fmt.Errorf("statevec: fused width %d outside [1,%d]", k, MaxFusedQubits)
	}
	if k > s.n {
		return fmt.Errorf("statevec: fused width %d exceeds %d qubits", k, s.n)
	}
	dim := 1 << uint(k)
	if len(m) != dim*dim {
		return fmt.Errorf("statevec: fused matrix has %d entries, want %d", len(m), dim*dim)
	}
	for i, q := range qubits {
		s.checkQubit(q)
		for j := 0; j < i; j++ {
			if qubits[j] == q {
				return fmt.Errorf("statevec: duplicate fused qubit %d", q)
			}
		}
	}

	// Sorted insertion positions and bit masks, built into per-state
	// scratch: ApplyFused runs once per fused block on the hot path, so
	// these must not allocate per call.
	sorted := append(s.sortBuf[:0], qubits...)
	for i := 1; i < k; i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	masks := s.maskBuf[:0]
	for _, q := range qubits {
		masks = append(masks, 1<<uint(q))
	}
	s.sortBuf, s.maskBuf = sorted, masks

	outer := len(s.amps) >> uint(k)
	if s.serial(outer) {
		s.fusedChunk(sorted, masks, m, dim, 0, outer)
		return nil
	}
	s.fanOut(outer, func(_, lo, hi int) { s.fusedChunk(sorted, masks, m, dim, lo, hi) })
	return nil
}

// fusedChunk is ApplyFused over amplitude groups [lo, hi).
func (s *State) fusedChunk(sorted []int, masks []uint64, m []complex128, dim, lo, hi int) {
	var scr fusedScratch
	in, out, idx := scr.amps[:dim], scr.amps[dim:2*dim], scr.idx[:dim]
	for p := lo; p < hi; p++ {
		base := uint64(p)
		for _, q := range sorted {
			base = insertBit(base, uint(q), 0)
		}
		fusedApplyAt(s.amps, base, masks, m, in, out, idx)
	}
}

// fusedScratch is the gather+result and index scratch of one chunk of a
// fused sweep. MaxFusedQubits bounds it, so it lives on the chunk's
// stack and a state carries no per-worker buffers.
type fusedScratch struct {
	amps [2 << MaxFusedQubits]complex128
	idx  [1 << MaxFusedQubits]uint64
}

// fusedApplyAt applies the dim×dim matrix m (dim = 2^len(masks)) to
// the amplitude group anchored at base, where matrix index bit j
// selects masks[j]. The k=1..3 widths are unrolled on the float64 lane
// view with the complex-multiply operation order (lanes.go contract);
// the term order of every path matches the generic accumulation loop
// exactly, so fused execution is arithmetic-identical whichever path
// runs.
func fusedApplyAt(amps []complex128, base uint64, masks []uint64, m []complex128, in, out []complex128, idx []uint64) {
	switch len(masks) {
	case 1:
		v := lanes(amps)
		j0 := 2 * int(base)
		j1 := 2 * int(base|masks[0])
		ar, ai := v[j0], v[j0+1]
		br, bi := v[j1], v[j1+1]
		m0r, m0i := real(m[0]), imag(m[0])
		m1r, m1i := real(m[1]), imag(m[1])
		m2r, m2i := real(m[2]), imag(m[2])
		m3r, m3i := real(m[3]), imag(m[3])
		v[j0] = (float64(m0r*ar) - float64(m0i*ai)) + (float64(m1r*br) - float64(m1i*bi))
		v[j0+1] = (float64(m0r*ai) + float64(m0i*ar)) + (float64(m1r*bi) + float64(m1i*br))
		v[j1] = (float64(m2r*ar) - float64(m2i*ai)) + (float64(m3r*br) - float64(m3i*bi))
		v[j1+1] = (float64(m2r*ai) + float64(m2i*ar)) + (float64(m3r*bi) + float64(m3i*br))
	case 2:
		v := lanes(amps)
		j0 := 2 * int(base)
		j1 := 2 * int(base|masks[0])
		j2 := 2 * int(base|masks[1])
		j3 := 2 * int(base|masks[0]|masks[1])
		a0r, a0i := v[j0], v[j0+1]
		a1r, a1i := v[j1], v[j1+1]
		a2r, a2i := v[j2], v[j2+1]
		a3r, a3i := v[j3], v[j3+1]
		jj := [4]int{j0, j1, j2, j3}
		for r := 0; r < 4; r++ {
			row := m[r*4 : r*4+4 : r*4+4]
			re := (float64(real(row[0])*a0r) - float64(imag(row[0])*a0i)) +
				(float64(real(row[1])*a1r) - float64(imag(row[1])*a1i)) +
				(float64(real(row[2])*a2r) - float64(imag(row[2])*a2i)) +
				(float64(real(row[3])*a3r) - float64(imag(row[3])*a3i))
			im := (float64(real(row[0])*a0i) + float64(imag(row[0])*a0r)) +
				(float64(real(row[1])*a1i) + float64(imag(row[1])*a1r)) +
				(float64(real(row[2])*a2i) + float64(imag(row[2])*a2r)) +
				(float64(real(row[3])*a3i) + float64(imag(row[3])*a3r))
			v[jj[r]], v[jj[r]+1] = re, im
		}
	case 3:
		v := lanes(amps)
		mk0, mk1, mk2 := masks[0], masks[1], masks[2]
		var j [8]int
		j[0] = 2 * int(base)
		j[1] = 2 * int(base|mk0)
		j[2] = 2 * int(base|mk1)
		j[3] = 2 * int(base|mk0|mk1)
		j[4] = 2 * int(base|mk2)
		j[5] = 2 * int(base|mk0|mk2)
		j[6] = 2 * int(base|mk1|mk2)
		j[7] = 2 * int(base|mk0|mk1|mk2)
		var ar, ai [8]float64
		for q := 0; q < 8; q++ {
			ar[q], ai[q] = v[j[q]], v[j[q]+1]
		}
		for r := 0; r < 8; r++ {
			row := m[r*8 : r*8+8 : r*8+8]
			re := float64(real(row[0])*ar[0]) - float64(imag(row[0])*ai[0])
			im := float64(real(row[0])*ai[0]) + float64(imag(row[0])*ar[0])
			for q := 1; q < 8; q++ {
				re += float64(real(row[q])*ar[q]) - float64(imag(row[q])*ai[q])
				im += float64(real(row[q])*ai[q]) + float64(imag(row[q])*ar[q])
			}
			v[j[r]], v[j[r]+1] = re, im
		}
	default:
		dim := 1 << uint(len(masks))
		k := len(masks)
		for v := 0; v < dim; v++ {
			i := base
			for j := 0; j < k; j++ {
				if v>>uint(j)&1 == 1 {
					i |= masks[j]
				}
			}
			idx[v] = i
			in[v] = amps[i]
		}
		for r := 0; r < dim; r++ {
			var acc complex128
			row := m[r*dim : (r+1)*dim]
			for cI := 0; cI < dim; cI++ {
				acc += row[cI] * in[cI]
			}
			out[r] = acc
		}
		for v := 0; v < dim; v++ {
			amps[idx[v]] = out[v]
		}
	}
}

// ApplyGate dispatches a gate type with qubit operands and params to
// the right kernel. Measure and Barrier are ignored (sampling is the
// caller's concern); unknown combinations panic.
func (s *State) ApplyGate(g gate.Type, qubits []int, params []float64) {
	switch {
	case g == gate.Barrier || g == gate.Measure || g == gate.I:
		return
	case IsDiagonalGate(g):
		s.applyDiagonalGate(g, qubits, params)
	case g == gate.CX:
		s.ApplyCX(qubits[0], qubits[1])
	case g == gate.SWAP:
		s.ApplySwap(qubits[0], qubits[1])
	case g.Arity() == 2:
		// Remaining controlled gates: CZ, CP, CRY.
		var tgt gate.Mat2
		switch g {
		case gate.CZ:
			tgt = gate.Matrix1(gate.Z, nil)
		case gate.CP:
			tgt = gate.Matrix1(gate.P, params)
		case gate.CRY:
			tgt = gate.Matrix1(gate.RY, params)
		default:
			panic(fmt.Sprintf("statevec: unhandled two-qubit gate %v", g))
		}
		s.applyControlled1(qubits[0], qubits[1], tgt)
	default:
		s.ApplyMat1(qubits[0], gate.Matrix1(g, params))
	}
}
