package statevec

import (
	"fmt"

	"qgear/internal/gate"
	"qgear/internal/qmath"
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
	t := uint(target)
	half := len(s.amps) >> 1
	pr, pi := real(phase), imag(phase)
	v := lanes(s.amps)
	if s.serial(half) {
		phase1Chunk(v, t, pr, pi, 0, half)
		return
	}
	s.fanOut(half, func(_, lo, hi int) { phase1Chunk(v, t, pr, pi, lo, hi) })
}

// phase1Chunk is applyPhase1 over the target-set indices [lo, hi).
func phase1Chunk(v []float64, t uint, pr, pi float64, lo, hi int) {
	if t == 0 {
		scaleOdd(v[4*lo:4*hi], pr, pi)
		return
	}
	step := 1 << t
	for p := lo; p < hi; {
		within := p & (step - 1)
		run := step - within
		if run > hi-p {
			run = hi - p
		}
		j := 2 * int(insertBit(uint64(p), t, 1))
		scaleRun(v[j:j+2*run:j+2*run], pr, pi)
		p += run
	}
}

// ApplyGlobalAndRelativePhase applies diag(a, b) on the target qubit —
// the general single-qubit diagonal (rz has a ≠ 1). The index space
// alternates contiguous a/b blocks of 2^t amplitudes, so the branchy
// full scan becomes one lane-scale run per block (interleaved
// two-factor passes when t = 0).
func (s *State) ApplyGlobalAndRelativePhase(target int, a, b complex128) {
	s.ensureCanonical()
	s.checkQubit(target)
	t := uint(target)
	v := lanes(s.amps)
	// Work units are cells of two amplitudes when t = 0, blocks of 2^t
	// otherwise.
	units, unitBits := len(s.amps)>>1, 1
	if t > 0 {
		units, unitBits = len(s.amps)>>t, int(t)
	}
	if s.serialTiles(units, unitBits) {
		diag1Chunk(v, t, a, b, 0, units)
		return
	}
	s.fanOut(units, func(_, lo, hi int) { diag1Chunk(v, t, a, b, lo, hi) })
}

// diag1Chunk is ApplyGlobalAndRelativePhase over cells (t = 0) or
// blocks [lo, hi).
func diag1Chunk(v []float64, t uint, a, b complex128, lo, hi int) {
	ar, ai := real(a), imag(a)
	br, bi := real(b), imag(b)
	if t == 0 {
		scaleAB(v[4*lo:4*hi], ar, ai, br, bi)
		return
	}
	for blk := lo; blk < hi; blk++ {
		j := 2 * (blk << t)
		seg := v[j : j+2<<t : j+2<<t]
		if blk&1 == 1 {
			scaleRun(seg, br, bi)
		} else {
			scaleRun(seg, ar, ai)
		}
	}
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
	c, t := uint(control), uint(target)
	quarter := len(s.amps) >> 2
	pr, pi := real(phase), imag(phase)
	v := lanes(s.amps)
	if s.serial(quarter) {
		controlledPhaseChunk(v, c, t, pr, pi, 0, quarter)
		return
	}
	s.fanOut(quarter, func(_, lo, hi int) { controlledPhaseChunk(v, c, t, pr, pi, lo, hi) })
}

// controlledPhaseChunk is applyControlledPhase over the both-bits-set
// indices [lo, hi).
func controlledPhaseChunk(v []float64, c, t uint, pr, pi float64, lo, hi int) {
	b0, b1 := c, t
	if b0 > b1 {
		b0, b1 = b1, b0
	}
	if b0 == 0 {
		// Affected indices are the odd slots of cells with the
		// other operand bit set.
		hw := b1 - 1
		hm := 1 << hw
		for p := lo; p < hi; {
			within := p & (hm - 1)
			run := hm - within
			if run > hi-p {
				run = hi - p
			}
			cell := int(insertBit(uint64(p), hw, 1))
			scaleOdd(v[4*cell:4*(cell+run)], pr, pi)
			p += run
		}
		return
	}
	m0 := 1 << b0
	for p := lo; p < hi; {
		within := p & (m0 - 1)
		run := m0 - within
		if run > hi-p {
			run = hi - p
		}
		j := 2 * int(qmath.InsertTwoBits(uint64(p), c, 1, t, 1))
		scaleRun(v[j:j+2*run:j+2*run], pr, pi)
		p += run
	}
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
