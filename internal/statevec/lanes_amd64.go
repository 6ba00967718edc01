package statevec

import "unsafe"

// The amd64 lane primitives: thin wrappers that turn a lane slice into
// a window count (and pauliLanes into pointers) for the assembly bodies
// in lanes_amd64.s. Same windows, same arithmetic as scaleWindowsGo,
// scaleTableGo, pairRealGo, pairComplexGo and pauliChunksGo (see the
// packed double note in lanes.go). scaleWindows, scaleTable, pairReal
// and pauliChunks run their AVX bodies where useAVX is set and their Go
// loops otherwise; pairComplex runs its SSE2 body on every amd64 CPU.

// useAVX is whether the wrappers run the AVX bodies: the CPUID probe's
// answer at init, with no setting to override it. Tests clear it to run
// the Go loops a CPU without AVX runs.
var useAVX = hasAVX()

func scaleWindows(v []float64, run, period int, pr, pi float64) {
	if !useAVX {
		scaleWindowsGo(v, run, period, pr, pi)
		return
	}
	avxScaleWindows(v, run, period, pr, pi)
}

func scaleTable(v, t []float64, run, period, row, tstep int) {
	if !useAVX {
		scaleTableGo(v, t, run, period, row, tstep)
		return
	}
	avxScaleTable(v, t, run, period, row, tstep)
}

func pairReal(v []float64, dist, run, period int, r0, r1, r2, r3 float64, swap int) {
	if !useAVX {
		pairRealGo(v, dist, run, period, r0, r1, r2, r3, swap)
		return
	}
	avxPairReal(v, dist, run, period, r0, r1, r2, r3, swap)
}

func pauliChunks(l *pauliLanes, nl int, w *pauliWalk) {
	if !useAVX {
		pauliChunksGo(l, nl, w)
		return
	}
	avxPauliChunks(l, nl, w)
}

// avxScaleWindows is scaleTable's AVX body with the scalar as its
// one-entry table and tstep 0: the same product, amplitude for
// amplitude.
func avxScaleWindows(v []float64, run, period int, pr, pi float64) {
	e := [2]float64{pr, pi}
	avxScaleTable(v, e[:], run, period, 2, 0)
}

// avxScaleTable panics on a row that does not fit its windows or
// a table too short for them: the assembly does not check.
func avxScaleTable(v, t []float64, run, period, row, tstep int) {
	if run < 2 || len(v) < run {
		return
	}
	count, amps, entries := (len(v)-run)/period+1, run/2, row/2
	if entries < 1 || amps%entries != 0 || tstep < 0 || len(t) < (count-1)*tstep+2*entries {
		panic("statevec: scaleTable row does not fit its windows")
	}
	scaleTableAVX(&v[0], &t[0], entries, amps/entries, period, tstep, count)
}

// avxPairReal panics on a swap that is not 0 or one lane bit of at
// least 2: the assembly counts windows of the bit, not the bit itself.
func avxPairReal(v []float64, dist, run, period int, r0, r1, r2, r3 float64, swap int) {
	if swap < 0 || swap == 1 || swap&(swap-1) != 0 {
		panic("statevec: pairReal swap is not one amplitude bit")
	}
	if run < 2 || len(v) < dist+run {
		return
	}
	pairRealAVX(&v[0], dist, run/2, period, (len(v)-dist-run)/period+1, r0, r1, r2, r3, swap)
}

func pairComplex(v []float64, dist, run, period int, m *laneMat2) {
	if run < 2 || len(v) < dist+run {
		return
	}
	pairComplexSSE2(&v[0], dist, run/2, period, (len(v)-dist-run)/period+1,
		m.r0, m.i0, m.r1, m.i1, m.r2, m.i2, m.r3, m.i3)
}

// pauliLaneArgs is pauliLanes as the assembly body reads it. For a pair
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

// avxPauliChunks runs a walk of one window (a chunk of one
// contribution) on the Go loop: the AVX body takes one-amplitude
// windows two at a time.
func avxPauliChunks(l *pauliLanes, nl int, w *pauliWalk) {
	if w.cnt == 1 {
		pauliChunksGo(l, nl, w)
		return
	}
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
	pauliChunksAVX(&a, w.off, w.cnt, w.run, w.low, w.sign, w.flip, w.kind)
	copy(l.acc[:nl], a.acc[:])
}

// hasAVX reports whether the CPU has AVX and POPCNT and the OS saves
// the YMM registers: whether the AVX bodies can run.
func hasAVX() bool

// scaleTableAVX multiplies count windows, one every period lanes from
// v, each reps repetitions of a row of row amplitudes, by rows of row
// entries, one every tstep lanes from t.
//
//go:noescape
func scaleTableAVX(v, t *float64, row, reps, period, tstep, count int)

// pairRealAVX applies [r0 r1; r2 r3] to count windows of amps
// amplitudes, one every period lanes from v, and their partners dist
// lanes on, trading a pair's two results where the lane bit swap (0
// for none) is set in the window's offset or the pair's within it.
//
//go:noescape
func pairRealAVX(v *float64, dist, amps, period, count int, r0, r1, r2, r3 float64, swap int)

// pairComplexSSE2 is pairRealAVX's windows under the complex matrix
// [r0+i0·i r1+i1·i; r2+i2·i r3+i3·i].
//
//go:noescape
func pairComplexSSE2(v *float64, dist, amps, period, count int, r0, i0, r1, i1, r2, i2, r3, i3 float64)

// pauliChunksAVX sums the chunk walk (off, cnt, run, low, sign, flip,
// kind) of pauliWalk in all pauliL lanes of l; it needs cnt > 1.
//
//go:noescape
func pauliChunksAVX(l *pauliLaneArgs, off, cnt, run, low, sign, flip, kind int)
