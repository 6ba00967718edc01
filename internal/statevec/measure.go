package statevec

import (
	"math"

	"qgear/internal/qmath"
)

// MeasureQubit performs a projective Z-basis measurement of qubit q:
// it draws the outcome from the state's distribution using rng,
// collapses the state, renormalizes, and returns the observed bit.
// Shot-count experiments use sampling over Probabilities instead (one
// pass, many shots); this op exists for mid-circuit measurement tests.
func (s *State) MeasureQubit(q int, rng *qmath.RNG) int {
	p1 := s.ProbOne(q)
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	s.CollapseQubit(q, outcome)
	return outcome
}

// CollapseQubit projects qubit q onto the given outcome and
// renormalizes. A zero-probability projection leaves the state at
// |0...0> (the convention Qiskit uses after an impossible post-select
// is an error; here the reset keeps the invariant Norm()==1 testable).
// All three passes — kept-half norm, discarded-half zeroing, rescale —
// run parallel; the norm follows the canonical chunked reduction
// (maskedNorm2), so the collapsed state is bit-identical for any
// worker count.
func (s *State) CollapseQubit(q int, outcome int) {
	s.checkQubit(q)
	if s.perm != nil {
		q = s.perm[q] // project on the physical home of the logical qubit
	}
	t := uint(q)
	keep := uint64(0)
	if outcome != 0 {
		keep = 1
	}
	norm := s.maskedNorm2(t, keep)

	// Zero the discarded half: indices whose bit t is 1-keep, visited
	// as contiguous runs.
	half := len(s.amps) >> 1
	amps := s.amps
	drop := 1 - keep
	if s.serial(half) {
		clearBitChunk(amps, t, drop, 0, half)
	} else {
		s.fanOut(half, func(_, lo, hi int) { clearBitChunk(amps, t, drop, lo, hi) })
	}

	if norm == 0 {
		s.Reset()
		return
	}
	k := 1 / math.Sqrt(norm)
	v := lanes(amps)
	if s.serial(len(amps)) {
		scaleRun(v, k, 0)
		return
	}
	s.fanOut(len(amps), func(_, lo, hi int) { scaleRun(v[2*lo:2*hi], k, 0) })
}

// clearBitChunk zeroes the amplitudes whose bit t equals val, over
// that half's indices [lo, hi).
func clearBitChunk(amps []complex128, t uint, val uint64, lo, hi int) {
	if t == 0 {
		for p := lo; p < hi; p++ {
			amps[2*p+int(val)] = 0
		}
		return
	}
	step := 1 << t
	for p := lo; p < hi; {
		within := p & (step - 1)
		run := step - within
		if run > hi-p {
			run = hi - p
		}
		i0 := int(insertBit(uint64(p), t, val))
		clearRun(amps[i0 : i0+run : i0+run])
		p += run
	}
}
