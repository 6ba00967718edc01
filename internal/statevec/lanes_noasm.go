//go:build !amd64

package statevec

// Without an assembly body the lane primitives are their Go loops.

func scaleWindows(v []float64, run, period int, pr, pi float64) {
	scaleWindowsGo(v, run, period, pr, pi)
}

func pairReal(v []float64, dist, run, period int, r0, r1, r2, r3 float64) {
	pairRealGo(v, dist, run, period, r0, r1, r2, r3)
}

func pairComplex(v []float64, dist, run, period int, m *laneMat2) {
	pairComplexGo(v, dist, run, period, m)
}

func pauliChunks(l *pauliLanes, nl int, w *pauliWalk) {
	pauliChunksGo(l, nl, w)
}
