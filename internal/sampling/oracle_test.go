package sampling

import (
	"fmt"
	"math"
	"testing"

	"qgear/internal/qmath"
)

// gCritical is the upper 1e-4 quantile of χ² with df degrees of
// freedom, by the Wilson–Hilferty cube-root normal approximation (a
// little above the exact quantile at small df, within 0.1 % from a few
// hundred on).
func gCritical(df int) float64 {
	const z = 3.719016 // the standard normal's upper 1e-4 quantile
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// gTest holds counts drawn from probs to the exact multinomial: no
// shot on a zero-probability outcome, every shot accounted for, and a
// G statistic, 2·Σ O·ln(O/E) over runs of adjacent outcomes merged
// until each expects at least minExpected shots, below χ²'s 1e-4 quantile.
func gTest(t *testing.T, what string, probs []float64, shots int, c Counts) {
	t.Helper()
	if c.Total() != shots {
		t.Fatalf("%s: %d shots counted, want %d", what, c.Total(), shots)
	}
	var total float64
	for _, p := range probs {
		total += p
	}
	const minExpected = 20 // G's excess over χ² is a few per cent at 5
	var g, e, o, left float64
	left = float64(shots)
	bins := 0
	for i, p := range probs {
		n := c[uint64(i)]
		if p == 0 && n != 0 {
			t.Fatalf("%s: %d shots on zero-probability outcome %d", what, n, i)
		}
		x := float64(shots) * (p / total)
		e, o, left = e+x, o+float64(n), left-x
		// Close the bin once it expects enough, unless what is left
		// would then expect too little: that joins this bin.
		if e >= minExpected && left >= minExpected || i == len(probs)-1 {
			if o > 0 {
				g += o * math.Log(o/e)
			}
			e, o = 0, 0
			bins++
		}
	}
	g *= 2
	if bins < 2 {
		t.Fatalf("%s: %d bin, nothing to test", what, bins)
	}
	if limit := gCritical(bins - 1); g > limit {
		t.Errorf("%s: G = %.1f over %d bins, above the 1e-4 critical value %.1f", what, g, bins, limit)
	}
	t.Logf("%s: G = %.1f on %d degrees of freedom (critical %.1f)", what, g, bins-1, gCritical(bins-1))
}

// TestCountsFollowTheDistribution is the samplers' distributional
// oracle: seeded Sample and SampleParallel counts against the exact
// multinomial by a G-test at a fixed significance, over the shapes the
// system draws — few outcomes and many shots, the QCrank workload's
// 2^15 outcomes × 1 536 000 shots, far fewer shots than outcomes (2^21 ×
// 4096, the QFT workload's), and zero and denormal entries. The seeds
// are fixed, so the test is deterministic.
func TestCountsFollowTheDistribution(t *testing.T) {
	uniform := func(n int, r *qmath.RNG) []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = r.Float64()
		}
		return p
	}
	for _, tc := range []struct {
		name  string
		shots int
		probs func(r *qmath.RNG) []float64
	}{
		{"five_x200000", 200000, func(*qmath.RNG) []float64 { return []float64{0.1, 0.2, 0, 0.4, 0.3} }},
		{"two_x3000", 3000, func(*qmath.RNG) []float64 { return []float64{0.25, 0.75} }},
		{"skewed_x1000000", 1000000, func(*qmath.RNG) []float64 {
			return []float64{1e-4, 0.5, 3e-3, 0, 0.25, 1e-5, 0.2, 0.04}
		}},
		{"2p15_x1536000", 1536000, func(r *qmath.RNG) []float64 { return uniform(1<<15, r) }},
		{"2p21_x4096", 4096, func(r *qmath.RNG) []float64 { return uniform(1<<21, r) }},
		{"2p12_x1000", 1000, func(r *qmath.RNG) []float64 { return uniform(1<<12, r) }},
		{"zeros_and_denormals_x20000", 20000, func(r *qmath.RNG) []float64 {
			// Runs of exact zeros between denormal entries; the total is
			// itself denormal.
			p := make([]float64, 3000)
			for i := range p {
				if r.Intn(3) > 0 {
					p[i] = float64(1+r.Intn(1000)) * math.SmallestNonzeroFloat64
				}
			}
			return p
		}},
		{"zeros_and_denormals_x700", 700, func(r *qmath.RNG) []float64 {
			p := make([]float64, 3000)
			for i := range p {
				if r.Intn(3) > 0 {
					p[i] = float64(1+r.Intn(1000)) * math.SmallestNonzeroFloat64
				}
			}
			return p
		}},
		{"mixed_scales_x300000", 300000, func(r *qmath.RNG) []float64 {
			// Zero blocks, denormals next to normal entries, and a few
			// entries that carry most of the mass.
			p := make([]float64, 5000)
			for i := range p {
				switch r.Intn(5) {
				case 0:
				case 1:
					p[i] = 7 * math.SmallestNonzeroFloat64
				case 2:
					p[i] = 1e-3 * r.Float64()
				default:
					p[i] = r.Float64()
				}
			}
			clear(p[640:1024])
			p[17], p[4999] = 300, 150
			return p
		}},
	} {
		for _, seed := range []uint64{3, 1001} {
			probs := tc.probs(qmath.NewRNG(seed))
			for _, w := range []int{1, 2} {
				what := fmt.Sprintf("%s/seed%d/w%d", tc.name, seed, w)
				c, err := SampleParallel(probs, tc.shots, w, qmath.NewRNG(seed))
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				gTest(t, what, probs, tc.shots, c)
			}
		}
	}
}
