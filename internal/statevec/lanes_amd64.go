package statevec

// The amd64 lane primitives: thin wrappers that turn a lane slice into
// a window count for the SSE2 bodies in lanes_amd64.s. Same windows,
// same arithmetic as scaleWindowsGo, pairRealGo and pairComplexGo (see
// the packed double note in lanes.go).

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
