package statevec

import (
	"fmt"
	"math/bits"

	"qgear/internal/gate"
)

// ApplyMat1 applies a 2×2 unitary to the target qubit. Per Eq. (2) of
// the paper this is U acting on qubit t with identities elsewhere; the
// engine realizes it by mixing the amplitude pairs whose indices differ
// only in bit t — the 2^(n-1) of a dense state, those inside the support
// (State) of a sparse one.
func (s *State) ApplyMat1(target int, m gate.Mat2) {
	s.ensureCanonical()
	s.checkQubit(target)
	s.pairSweep(0, uint(target), m)
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
	s.pairSweep(1<<uint(control), uint(target), m)
}

// pairSweep applies m to the pairs on bit t whose ctrl bits are 1,
// inside the support, and steps the support past it.
func (s *State) pairSweep(ctrl uint64, t uint, m gate.Mat2) {
	if fixed, val, ok := s.sup.narrow(ctrl, ctrl, 1<<t); ok {
		members := len(s.amps) >> (1 + bits.OnesCount64(fixed))
		lm := mat2Lanes(m)
		v := lanes(s.amps)
		if s.serial(members) {
			lm.pairSubspace(v, t, fixed, val, 0, members)
		} else {
			ParallelFor(members, s.workers, func(lo, hi int) { lm.pairSubspace(v, t, fixed, val, lo, hi) })
		}
	}
	s.sup.mat(ctrl, t, isX(m))
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
	c, t := uint64(1)<<uint(control), uint64(1)<<uint(target)
	s.swapSweep(c|t, c, t, int(t))
	s.sup.mat(c, uint(target), true)
}

// swapSweep exchanges every amplitude whose fixed bits equal val with
// the one dist on, inside the support less the bits in mix (the bits
// the exchange moves).
func (s *State) swapSweep(fixed, val, mix uint64, dist int) {
	fixed, val, ok := s.sup.narrow(fixed, val, mix)
	if !ok {
		return
	}
	amps, m := s.amps, len(s.amps)>>bits.OnesCount64(fixed)
	if s.serial(m) {
		swapSubspace(amps, fixed, val, dist, 0, m)
		return
	}
	ParallelFor(m, s.workers, func(lo, hi int) { swapSubspace(amps, fixed, val, dist, lo, hi) })
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

// swapBits is the raw physical-bit exchange kernel behind ApplySwap:
// one sweep exchanging the amplitudes whose (lo, hi) bits read (1, 0)
// with their (0, 1) partners inside the support, whose records it
// exchanges too. Both bits known and equal leave nothing but zeros to
// move, so the sweep is skipped. (MaterializePerm moves many pairs at
// once in one blocked pass instead: relayout.)
func (s *State) swapBits(a, b uint) {
	lo, hi := min(a, b), max(a, b)
	ab := uint64(1)<<lo | uint64(1)<<hi
	if s.sup.Mask&ab == ab && (s.sup.Val>>lo^s.sup.Val>>hi)&1 == 0 {
		return // the records are equal, so exchanging them changes nothing
	}
	s.swapSweep(ab, 1<<lo, ab, 1<<hi-1<<lo)
	s.sup.swap(lo, hi)
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
