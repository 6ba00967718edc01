package statevec

import (
	"fmt"
	"math/bits"

	"qgear/internal/gate"
)

// identity is the identity layout of every register a state can hold.
var identity = func() (id [MaxQubits]int) {
	for q := range id {
		id[q] = q
	}
	return id
}()

// Lower is the one place a gate becomes arithmetic: the micro-op applying
// g to qubits placed through perm (nil: the identity layout) on tiles of
// tileBits, then its values (Rebind). A position at or above the width — a
// control, a diagonal's bit, an rz target, a rank bit of a distributed plan
// — lands in HighMask. ApplyGate lowers at the state's width (every operand
// low), the tile compiler every tile-local gate and phase-table member.
func Lower(g gate.Type, qubits []int, params []float64, perm []int, tileBits int) (op TileOp) {
	if perm == nil {
		perm = identity[:]
	}
	t := perm[qubits[g.Arity()-1]]
	if g.Arity() == 2 && perm[qubits[0]] == t {
		panic("statevec: control equals target")
	}
	switch {
	case g == gate.RZ:
		op.Kind = TileRelPhase
		if t < tileBits {
			op.T = uint8(t)
		} else {
			op.HighMask = 1 << uint(t)
		}
	case IsDiagonalGate(g): // one phase where every operand bit is 1
		op.Kind = TileDiag
		for _, q := range qubits {
			if pos := perm[q]; pos < tileBits {
				op.LowMask |= 1 << uint(pos)
			} else {
				op.HighMask |= 1 << uint(pos)
			}
		}
	default:
		op.Kind, op.T = TileMat1, uint8(t)
		if g == gate.CX {
			op.Kind = TileCX
		}
		if g.Arity() == 2 { // a low control is C, a high one a HighMask predicate
			if c := perm[qubits[0]]; c < tileBits {
				op.C, op.HasCtrl = uint8(c), true
			} else {
				op.HighMask = 1 << uint(c)
			}
		}
	}
	op.Rebind(g, params)
	return op
}

// Rebind sets the value fields of op, lowered from gate g, for params:
// the 2×2 of a TileMat1, rz's diag(a, b), a TileDiag's phase — of a
// controlled gate, those of the one-qubit gate on its target. Kind,
// positions and masks are structure and stay put, so a rebound plan is
// bit-identical to a fresh compile.
func (op *TileOp) Rebind(g gate.Type, params []float64) {
	switch g {
	case gate.CX:
		return // swap-only: no values
	case gate.CZ:
		g = gate.Z
	case gate.CP:
		g = gate.P
	case gate.CRY:
		g = gate.RY
	}
	switch m := gate.Matrix1(g, params); {
	case g == gate.RZ:
		*op = RelPhaseOp(m[0], m[3], op.T, op.HighMask)
	case IsDiagonalGate(g):
		*op = DiagOp(m[3], op.LowMask, op.HighMask)
	default:
		op.M = m
	}
}

// ApplyOp applies one micro-op to the whole state as a single sweep,
// every position low. A TileMat1 is Eq. (2) of the paper, U on qubit T
// with identities elsewhere: it mixes the amplitude pairs whose indices
// differ only in bit T — the 2^(n-1) of a dense state, those inside the
// support (State) of a sparse one. With a control (HasCtrl) it is Eq.
// (3)'s diag(I, U): only the 2^(n-2) pairs with bit C set are touched,
// the scattered access pattern Appendix A describes for the CX gate. A
// TileCX moves those pairs without a multiply — the paper's QCrank
// workload has as many CX as pixels, so this path dominates image
// encoding. A TileDiag scales the amplitudes whose LowMask bits are all
// 1, and a TileRelPhase applies diag(A, B) on T (diagonal.go).
func (s *State) ApplyOp(op TileOp) {
	s.ensureCanonical()
	s.live()
	if op.HighMask != 0 {
		panic(fmt.Sprintf("statevec: op reads bits %#x above a whole state", op.HighMask))
	}
	switch op.Kind {
	case TileMat1, TileCX:
		s.checkQubit(int(op.T))
		var ctrl uint64
		if op.HasCtrl {
			s.checkQubit(int(op.C))
			if op.C == op.T {
				panic("statevec: control equals target")
			}
			ctrl = 1 << op.C
		}
		if op.Kind == TileMat1 {
			s.pairSweep(ctrl, uint(op.T), op.M)
			return
		}
		t := uint64(1) << op.T
		s.swapSweep(ctrl|t, ctrl, t, int(t))
		s.sup.mat(ctrl, uint(op.T), true)
	case TileDiag:
		if op.LowMask>>uint(s.n) != 0 {
			panic(fmt.Sprintf("statevec: op reads bits %#x of a %d-qubit state", op.LowMask, s.n))
		}
		s.scaleSweep(op.LowMask, op.LowMask, op.Phase())
	case TileRelPhase:
		s.checkQubit(int(op.T))
		a, b := op.AB()
		s.relPhase(uint(op.T), a, b)
	default:
		panic(fmt.Sprintf("statevec: op of kind %d applies to no whole state", op.Kind))
	}
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
// the three CX passes of the textbook decomposition — the moves
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

// ApplyGate applies a gate with qubit operands and params as one sweep:
// swap as ApplySwap, every other gate as the micro-op Lower derives.
// Measure and Barrier are ignored (sampling is the caller's concern).
func (s *State) ApplyGate(g gate.Type, qubits []int, params []float64) {
	switch g {
	case gate.Barrier, gate.Measure, gate.I:
	case gate.SWAP:
		s.ApplySwap(qubits[0], qubits[1])
	default:
		s.ApplyOp(Lower(g, qubits, params, nil, s.n))
	}
}
