package statevec

import "unsafe"

// The amd64 lane primitives: thin wrappers that turn a lane slice into
// a window count (and pauliLanes into pointers) for the SSE2 bodies in
// lanes_amd64.s. Same windows, same arithmetic as scaleWindowsGo,
// pairRealGo, pairComplexGo and pauliChunksGo (see the packed double
// note in lanes.go).

func scaleWindows(v []float64, run, period int, pr, pi float64) {
	if run < 2 || len(v) < run {
		return
	}
	scaleWindowsSSE2(&v[0], run/2, period, (len(v)-run)/period+1, pr, pi)
}

func pairReal(v []float64, dist, run, period int, r0, r1, r2, r3 float64) {
	if run < 2 || len(v) < dist+run {
		return
	}
	pairRealSSE2(&v[0], dist, run/2, period, (len(v)-dist-run)/period+1, r0, r1, r2, r3)
}

func pairComplex(v []float64, dist, run, period int, m *laneMat2) {
	if run < 2 || len(v) < dist+run {
		return
	}
	pairComplexSSE2(&v[0], dist, run/2, period, (len(v)-dist-run)/period+1,
		m.r0, m.i0, m.r1, m.i1, m.r2, m.i2, m.r3, m.i3)
}

// pauliLaneArgs is pauliLanes as pauliChunksSSE2 reads it. For a pair
// walk a and b are each lane's block and partner block and sgn the sign
// bit of the lane's even-parity term; for a parity walk a and b are the
// lane's read for an even and for an odd window parity (the lane's high
// parity picks which one adds the pivot bit).
type pauliLaneArgs struct {
	a, b [pauliL]*float64
	sgn  [pauliL]uint64
	acc  [pauliL]float64
}

// The assembly addresses pauliLaneArgs by these offsets.
const _ = -uint((unsafe.Offsetof(pauliLaneArgs{}.b) ^ 32) |
	(unsafe.Offsetof(pauliLaneArgs{}.sgn) ^ 64) | (unsafe.Offsetof(pauliLaneArgs{}.acc) ^ 96))

func pauliChunks(l *pauliLanes, nl int, w *pauliWalk) {
	var a pauliLaneArgs
	for i := range a.a {
		src := min(i, nl-1) // a missing lane repeats the last one
		self, hp := l.self[src], l.hp[src]
		if w.kind == pauliNorm {
			a.a[i], a.b[i] = &self[2*w.half*(1-hp)], &self[2*w.half*hp]
			continue
		}
		a.a[i], a.b[i] = &self[0], &l.other[src][0]
		a.sgn[i] = uint64(hp^w.neg) << 63
	}
	pauliChunksSSE2(&a, w.off, w.cnt, w.run, w.low, w.sign, w.flip, w.kind)
	copy(l.acc[:nl], a.acc[:])
}

// scaleWindowsSSE2 scales count windows of amps amplitudes, one every
// period lanes from v.
//
//go:noescape
func scaleWindowsSSE2(v *float64, amps, period, count int, pr, pi float64)

// pairRealSSE2 applies [r0 r1; r2 r3] to count windows of amps
// amplitudes, one every period lanes from v, and their partners dist
// lanes on.
//
//go:noescape
func pairRealSSE2(v *float64, dist, amps, period, count int, r0, r1, r2, r3 float64)

// pairComplexSSE2 is pairRealSSE2 for the complex matrix
// [r0+i0·i r1+i1·i; r2+i2·i r3+i3·i].
//
//go:noescape
func pairComplexSSE2(v *float64, dist, amps, period, count int, r0, i0, r1, i1, r2, i2, r3, i3 float64)

// pauliChunksSSE2 sums the chunk walk (off, cnt, run, low, sign, flip,
// kind) of pauliWalk in all pauliL lanes of l.
//
//go:noescape
func pauliChunksSSE2(l *pauliLaneArgs, off, cnt, run, low, sign, flip, kind int)
