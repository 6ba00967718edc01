package statevec

import (
	"math/bits"

	"qgear/internal/gate"
)

// Diagonal-gate fast paths. Z-axis rotations (rz, p, z, s, t) and
// controlled phases (cz, cp/cr1) have diagonal unitaries: Lower makes
// them a TileDiag (rz a TileRelPhase), which scales amplitudes in place
// without the pair gather/scatter of the general kernels — half the
// memory traffic and no index insertion — and enumerates only the
// affected indices inside the support (2^(n-1) of a dense state for one
// bit, a quarter for cz/cr1): the untouched part is never read. The QFT
// workload (Appendix D.2) is dominated by cr1 gates, so this path is a
// large fraction of its runtime; kernel's BenchmarkExecuteQFT21 and
// BenchmarkTileRun here time it.

// scaleSweep multiplies by f every amplitude of the support whose fixed
// bits equal val. A diagonal gate leaves the support as it is.
func (s *State) scaleSweep(fixed, val uint64, f complex128) {
	fixed, val, ok := s.sup.narrow(fixed, val, 0)
	if !ok {
		return
	}
	pr, pi := real(f), imag(f)
	v, m := lanes(s.amps), len(s.amps)>>bits.OnesCount64(fixed)
	if s.serial(m) {
		scaleSubspace(v, fixed, val, 0, m, pr, pi)
		return
	}
	ParallelFor(m, s.workers, func(lo, hi int) { scaleSubspace(v, fixed, val, lo, hi, pr, pi) })
}

// relPhase applies diag(a, b) on bit t of the whole state — the
// general single-qubit diagonal (rz has a ≠ 1): the t = 0 half scaled by
// a and the t = 1 half by b, worked as pairs of the two (on qubit 0,
// windows of pairs, each scaled by the table row [a, b]). A target the
// support knows takes its one factor.
func (s *State) relPhase(t uint, a, b complex128) {
	if bit := uint64(1) << t; s.sup.Mask&bit != 0 {
		if s.sup.Val&bit != 0 {
			a = b
		}
		s.scaleSweep(0, 0, a)
		return
	}
	if s.sup.Zero {
		return
	}
	fixed, val := s.sup.Mask, s.sup.Val
	half := len(s.amps) >> (1 + bits.OnesCount64(fixed))
	v := lanes(s.amps)
	if s.serial(half) {
		relPhaseSubspace(v, t, a, b, fixed, val, 0, half)
		return
	}
	ParallelFor(half, s.workers, func(lo, hi int) { relPhaseSubspace(v, t, a, b, fixed, val, lo, hi) })
}

// relPhaseSubspace is diag(a, b) on bit t over members [lo, hi) of the
// amplitude pairs on t whose fixed bits (t not among them) equal val —
// a whole state, a worker's chunk, or a tile.
func relPhaseSubspace(v []float64, t uint, a, b complex128, fixed, val uint64, lo, hi int) {
	bit := uint64(1) << t
	if t == 0 {
		row := [2]complex128{a, b}
		tableSubspace(v, row[:], fixed, val, bit, 2*lo, 2*hi)
		return
	}
	scaleSubspace(v, fixed|bit, val, lo, hi, real(a), imag(a))
	scaleSubspace(v, fixed|bit, val|bit, lo, hi, real(b), imag(b))
}

// IsDiagonalGate reports whether the fast path covers gate g.
func IsDiagonalGate(g gate.Type) bool {
	switch g {
	case gate.Z, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.RZ, gate.P, gate.CZ, gate.CP:
		return true
	}
	return false
}
