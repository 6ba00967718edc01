package qmath

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**-style) used across the reproduction so that every
// workload generator and sampler can be seeded explicitly. The stdlib
// math/rand global source is deliberately avoided: experiments must be
// bit-for-bit reproducible across runs and across goroutines, which
// requires explicit stream splitting rather than a shared locked source.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which maps
// even adjacent seeds to well-separated internal states.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent child stream; the parent advances once so
// successive Split calls yield distinct children.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// step is one step of the generator from state (s0, s1, s2, s3): its
// output and the next state.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	out, s0, s1, s2, s3 := step(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return out
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return UnitFloat(r.Uint64()) }

// UnitFloat is the float64 in [0, 1) that Float64 makes of the output
// x: its top 53 bits over 2^53.
func UnitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("qmath: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Angle returns a uniform rotation angle in [0, 2π), the distribution
// Algorithm 1 of the paper draws gate parameters from.
func (r *RNG) Angle() float64 { return r.Float64() * 2 * math.Pi }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar
// method); the cluster model uses it for warm-up jitter.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
