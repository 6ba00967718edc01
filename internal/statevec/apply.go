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
	ParallelFor(half, s.workers, func(lo, hi int) { lm.pairSubspace(v, t, 0, 0, lo, hi) })
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
	ParallelFor(quarter, s.workers, func(lo, hi int) { lm.pairSubspace(v, t, cbit, cbit, lo, hi) })
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
	ParallelFor(quarter, s.workers, func(lo, hi int) { cxChunk(amps, c, t, lo, hi) })
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
	s.swapBits([2]uint{uint(a), uint(b)})
}

// swapBits is the raw physical-bit exchange kernel behind ApplySwap
// and MaterializePerm: one sweep per pair of bit positions, in order.
// The swapped pair set is symmetric in (a, b), so positions are
// normalized to lo1 < hi1 and amplitudes with (lo1, hi1) = (1, 0)
// exchange with their (0, 1) partners over contiguous runs. Fanned-out
// sweeps share one chunk closure, so a materialization allocates the
// same few words however many sweeps it takes.
func (s *State) swapBits(pairs ...[2]uint) {
	amps, quarter := s.amps, len(s.amps)>>2
	if s.serial(quarter) {
		for _, p := range pairs {
			swapBitsChunk(amps, p[0], p[1], 0, quarter)
		}
		return
	}
	var cur [2]uint // the pair the closure swaps
	chunk := func(lo, hi int) { swapBitsChunk(amps, cur[0], cur[1], lo, hi) }
	for _, cur = range pairs {
		ParallelFor(quarter, s.workers, chunk)
	}
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
