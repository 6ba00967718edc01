package statevec

import (
	"fmt"

	"qgear/internal/gate"
)

// Diagonal-gate fast paths. Z-axis rotations (rz, p, z, s, t) and
// controlled phases (cz, cp/cr1) have diagonal unitaries: they scale
// amplitudes in place without the pair gather/scatter of the general
// kernels — half the memory traffic and no index insertion. The QFT
// workload (Appendix D.2) is dominated by cr1 gates, so this path is a
// large fraction of its runtime; BenchmarkAblationDiagonal quantifies
// it.

// applyPhase1 multiplies amplitudes whose target bit is 1 by phase —
// the diag(1, e^{iλ}) family. Stride iteration enumerates exactly the
// 2^(n-1) affected indices; the untouched half is never read, halving
// the memory traffic of the old branchy full-2^n scan.
func (s *State) applyPhase1(target int, phase complex128) {
	s.ensureCanonical()
	s.checkQubit(target)
	bit := uint64(1) << uint(target)
	half := len(s.amps) >> 1
	pr, pi := real(phase), imag(phase)
	v := lanes(s.amps)
	if s.serial(half) {
		scaleSubspace(v, bit, bit, 0, half, pr, pi)
		return
	}
	s.fanOut(half, func(_, lo, hi int) { scaleSubspace(v, bit, bit, lo, hi, pr, pi) })
}

// ApplyGlobalAndRelativePhase applies diag(a, b) on the target qubit —
// the general single-qubit diagonal (rz has a ≠ 1): the target-0 half
// scaled by a and the target-1 half by b, worked as pairs of the two
// (on qubit 0, windows of one pair, each scaled by the table row [a, b]).
func (s *State) ApplyGlobalAndRelativePhase(target int, a, b complex128) {
	s.ensureCanonical()
	s.checkQubit(target)
	t := uint(target)
	half := len(s.amps) >> 1
	v := lanes(s.amps)
	if s.serial(half) {
		diag1Chunk(v, t, a, b, 0, half)
		return
	}
	s.fanOut(half, func(_, lo, hi int) { diag1Chunk(v, t, a, b, lo, hi) })
}

// diag1Chunk is diag(a, b) on qubit t over the amplitude pairs [lo, hi)
// — a whole state, a worker's chunk, or a tile.
func diag1Chunk(v []float64, t uint, a, b complex128, lo, hi int) {
	if t == 0 {
		row := [4]float64{real(a), imag(a), real(b), imag(b)}
		scaleTable(v[4*lo:4*hi], row[:], 4, 4, 4, 0)
		return
	}
	bit := uint64(1) << t
	scaleSubspace(v, bit, 0, lo, hi, real(a), imag(a))
	scaleSubspace(v, bit, bit, lo, hi, real(b), imag(b))
}

// applyControlledPhase multiplies amplitudes with both control and
// target bits set by phase — cz (phase = -1) and cr1(λ) (Eq. 9).
// Stride iteration touches only the affected quarter of the indices
// instead of scanning and branch-testing all 2^n.
func (s *State) applyControlledPhase(control, target int, phase complex128) {
	s.ensureCanonical()
	s.checkQubit(control)
	s.checkQubit(target)
	if control == target {
		panic("statevec: control equals target")
	}
	mask := uint64(1)<<uint(control) | uint64(1)<<uint(target)
	quarter := len(s.amps) >> 2
	pr, pi := real(phase), imag(phase)
	v := lanes(s.amps)
	if s.serial(quarter) {
		scaleSubspace(v, mask, mask, 0, quarter, pr, pi)
		return
	}
	s.fanOut(quarter, func(_, lo, hi int) { scaleSubspace(v, mask, mask, lo, hi, pr, pi) })
}

// IsDiagonalGate reports whether the fast path covers gate g.
func IsDiagonalGate(g gate.Type) bool {
	switch g {
	case gate.Z, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.RZ, gate.P, gate.CZ, gate.CP:
		return true
	}
	return false
}

// applyDiagonalGate dispatches a diagonal gate through the fast path.
// It panics for non-diagonal gates; callers gate on IsDiagonalGate.
func (s *State) applyDiagonalGate(g gate.Type, qubits []int, params []float64) {
	switch g {
	case gate.Z, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.P:
		m := gate.Matrix1(g, params)
		s.applyPhase1(qubits[0], m[3])
	case gate.RZ:
		m := gate.Matrix1(g, params)
		s.ApplyGlobalAndRelativePhase(qubits[0], m[0], m[3])
	case gate.CZ:
		s.applyControlledPhase(qubits[0], qubits[1], -1)
	case gate.CP:
		m := gate.Matrix1(gate.P, params)
		s.applyControlledPhase(qubits[0], qubits[1], m[3])
	default:
		panic(fmt.Sprintf("statevec: %v is not diagonal", g))
	}
}
