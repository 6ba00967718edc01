package statevec

import "unsafe"

// The amd64 lane primitives: thin wrappers that turn a lane slice into
// a window count (and pauliLanes into pointers) for the assembly bodies
// in lanes_amd64.s. Same windows, same arithmetic as scaleWindowsGo,
// scaleTableGo, pairRealGo, pairComplexGo and pauliChunksGo (see the
// packed double note in lanes.go). scaleWindows, scaleTable and
// pairReal have two bodies, SSE2 and AVX, and run the one laneAsm
// names; pairComplex and pauliChunks have the SSE2 body only.

// asmBody names one set of assembly bodies of the primitives that have
// two.
type asmBody uint8

const (
	bodySSE2 asmBody = iota // one amplitude per XMM register, any amd64 CPU
	bodyAVX                 // two amplitudes per YMM register
)

// laneAsm is the body the wrappers run: AVX where the CPUID probe finds
// it at init, SSE2 otherwise. Tests set it to bodySSE2 to run the SSE2
// bodies on a CPU that has AVX.
var laneAsm = pickBody()

func pickBody() asmBody {
	if hasAVX() {
		return bodyAVX
	}
	return bodySSE2
}

func scaleWindows(v []float64, run, period int, pr, pi float64) {
	laneAsm.scaleWindows(v, run, period, pr, pi)
}

func scaleTable(v, t []float64, run, period, row, tstep int) {
	laneAsm.scaleTable(v, t, run, period, row, tstep)
}

func pairReal(v []float64, dist, run, period int, r0, r1, r2, r3 float64) {
	laneAsm.pairReal(v, dist, run, period, r0, r1, r2, r3)
}

// scaleWindows is scaleTable with the scalar as its one-entry table and
// tstep 0: the same product, amplitude for amplitude.
func (b asmBody) scaleWindows(v []float64, run, period int, pr, pi float64) {
	e := [2]float64{pr, pi}
	b.scaleTable(v, e[:], run, period, 2, 0)
}

// scaleTable panics on a row that does not fit its windows or a table
// too short for them: the assembly does not check.
func (b asmBody) scaleTable(v, t []float64, run, period, row, tstep int) {
	if run < 2 || len(v) < run {
		return
	}
	count, amps, entries := (len(v)-run)/period+1, run/2, row/2
	if entries < 1 || amps%entries != 0 || tstep < 0 || len(t) < (count-1)*tstep+2*entries {
		panic("statevec: scaleTable row does not fit its windows")
	}
	if b == bodyAVX {
		scaleTableAVX(&v[0], &t[0], entries, amps/entries, period, tstep, count)
		return
	}
	scaleTableSSE2(&v[0], &t[0], entries, amps/entries, period, tstep, count)
}

func (b asmBody) pairReal(v []float64, dist, run, period int, r0, r1, r2, r3 float64) {
	if run < 2 || len(v) < dist+run {
		return
	}
	count := (len(v)-dist-run)/period + 1
	if b == bodyAVX {
		pairRealAVX(&v[0], dist, run/2, period, count, r0, r1, r2, r3)
		return
	}
	pairRealSSE2(&v[0], dist, run/2, period, count, r0, r1, r2, r3)
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

// hasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers: whether the AVX bodies can run.
func hasAVX() bool

// scaleTableSSE2 multiplies count windows, one every period lanes from
// v, each reps repetitions of a row of row amplitudes, by rows of row
// entries, one every tstep lanes from t. scaleTableAVX is the same on
// two amplitudes per register.
//
//go:noescape
func scaleTableSSE2(v, t *float64, row, reps, period, tstep, count int)

//go:noescape
func scaleTableAVX(v, t *float64, row, reps, period, tstep, count int)

// pairRealSSE2 applies [r0 r1; r2 r3] to count windows of amps
// amplitudes, one every period lanes from v, and their partners dist
// lanes on.
//
//go:noescape
func pairRealSSE2(v *float64, dist, amps, period, count int, r0, r1, r2, r3 float64)

//go:noescape
func pairRealAVX(v *float64, dist, amps, period, count int, r0, r1, r2, r3 float64)

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
