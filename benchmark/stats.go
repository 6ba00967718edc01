package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a percentile for
// it to be reported: fewer, and the figure is one or two slow ops
// rather than a property of the program.
const minTailSamples = 10

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between the two nearest ranks; 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// median is the 0.5-quantile.
func median(v []float64) float64 { return quantile(v, 0.5) }

// tailSupported reports whether n samples leave at least
// minTailSamples beyond the q-quantile.
func tailSupported(n int, q float64) bool {
	// 1-q is not exact in binary (100 samples at 0.9 leave 9.999…), so
	// allow for the rounding.
	return float64(n)*(1-q) >= minTailSamples-1e-9
}

// tail returns the q-quantile of v when the sample supports it, and
// (0, false) when fewer than minTailSamples lie beyond it.
func tail(v []float64, q float64) (float64, bool) {
	if !tailSupported(len(v), q) {
		return 0, false
	}
	return quantile(v, q), true
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
