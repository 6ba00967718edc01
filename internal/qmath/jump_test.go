package qmath

import (
	"fmt"
	"testing"
)

// stepped returns a copy of r advanced by k calls of Uint64.
func stepped(r RNG, k uint64) RNG {
	for ; k > 0; k-- {
		r.Uint64()
	}
	return r
}

// TestJumpMatchesSteps: Jump(k) leaves the generator where k calls of
// Uint64 do, on both sides of the stepping cut-off and at the shot
// offsets a parallel sampler jumps by, from several seeds.
func TestJumpMatchesSteps(t *testing.T) {
	ks := []uint64{0, 1, 2, 255, 256, 257, 1<<20 + 3, 3072000}
	pick := NewRNG(11)
	for i := 0; i < 6; i++ {
		ks = append(ks, uint64(pick.Intn(1<<18)))
	}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, k := range ks {
			r := NewRNG(seed)
			want := stepped(*r, k)
			r.Jump(k)
			if r.s != want.s {
				t.Fatalf("seed %d: Jump(%d) state %#x, %d steps %#x", seed, k, r.s, k, want.s)
			}
			if r.Uint64() != want.Uint64() {
				t.Fatalf("seed %d: the output after Jump(%d) differs", seed, k)
			}
		}
	}
}

// TestFillMatchesUint64: Fill writes what as many Uint64 calls return
// and leaves the state where they do, at every length up to a few
// blocks; UnitFloat of an output is the Float64 drawn from it.
func TestFillMatchesUint64(t *testing.T) {
	for n := 0; n <= 1100; n += 1 + n/7 {
		r, want := NewRNG(uint64(n)), NewRNG(uint64(n))
		buf := make([]uint64, n)
		r.Fill(buf)
		for i, got := range buf {
			if w := want.Uint64(); got != w {
				t.Fatalf("len %d: output %d is %#x, Uint64 gave %#x", n, i, got, w)
			}
		}
		if r.s != want.s {
			t.Fatalf("len %d: Fill left the state at %#x, Uint64 at %#x", n, r.s, want.s)
		}
		x := *r
		if UnitFloat(x.Uint64()) != r.Float64() {
			t.Fatalf("len %d: UnitFloat differs from Float64", n)
		}
	}
}

// FuzzJump: a jump equals the steps it stands for (k capped so the
// steps stay cheap), and two jumps compose: Jump(a); Jump(b) is
// Jump(a + b) for any a + b below 2^64.
func FuzzJump(f *testing.F) {
	f.Add(uint64(1), uint64(300), uint64(1)<<40, uint64(12345))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(7), uint64(256), uint64(1)<<63-1, uint64(1)<<62)
	f.Fuzz(func(t *testing.T, seed, k, a, b uint64) {
		k %= 1 << 16
		r := NewRNG(seed)
		want := stepped(*r, k)
		r.Jump(k)
		if r.s != want.s {
			t.Fatalf("seed %d: Jump(%d) differs from %d steps", seed, k, k)
		}
		a, b = a>>1, b>>1 // a + b < 2^64
		x, y := NewRNG(seed), NewRNG(seed)
		x.Jump(a)
		x.Jump(b)
		y.Jump(a + b)
		if x.s != y.s {
			t.Fatalf("seed %d: Jump(%d); Jump(%d) differs from Jump(%d)", seed, a, b, a+b)
		}
	})
}

// berlekampMassey returns the connection polynomial C of the shortest
// linear recurrence over GF(2) generating seq — c[0] = 1 and, for
// n ≥ L, Σ_{i=0..L} c[i]·seq[n−i] = 0 — and its length L.
func berlekampMassey(seq []uint8) (c []uint8, L int) {
	n := len(seq)
	c, b := make([]uint8, n+1), make([]uint8, n+1)
	c[0], b[0] = 1, 1
	m := 1
	for i := 0; i < n; i++ {
		d := seq[i]
		for j := 1; j <= L; j++ {
			d ^= c[j] & seq[i-j]
		}
		if d == 0 {
			m++
			continue
		}
		prev := append([]uint8(nil), c...)
		for j := 0; j+m <= n; j++ {
			c[j+m] ^= b[j]
		}
		if 2*L <= i {
			L, b, m = i+1-L, prev, 1
		} else {
			m++
		}
	}
	return c[:L+1], L
}

// TestCharPolyBerlekampMassey re-derives charPoly: the shortest
// recurrence of one state bit over 1024 steps, from several seeds, has
// length 256 (so it is the state map's characteristic polynomial) and
// is the hard-coded constant. x^(2^128) and x^(2^192) mod P are then
// Blackman & Vigna's published jump() and long_jump() constants.
func TestCharPolyBerlekampMassey(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, word := range []int{0, 3} {
			r := NewRNG(seed)
			seq := make([]uint8, 1024)
			for i := range seq {
				seq[i] = uint8(r.s[word] >> (17 * seed % 64) & 1)
				r.Uint64()
			}
			c, L := berlekampMassey(seq)
			if L != 256 {
				t.Fatalf("seed %d word %d: recurrence of length %d, want 256", seed, word, L)
			}
			var p [5]uint64 // P(x) = x^L·C(1/x)
			for i, ci := range c {
				p[(L-i)/64] |= uint64(ci) << uint((L-i)%64)
			}
			if p != charPoly {
				t.Fatalf("seed %d word %d: derived P %#x, constant %#x", seed, word, p, charPoly)
			}
		}
	}
	want := map[int]gf2Poly{
		128: {0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c},
		192: {0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635},
	}
	r := gf2Poly{2} // x
	for i := 1; i <= 192; i++ {
		r = r.square()
		if w, ok := want[i]; ok && r != w {
			t.Fatalf("x^(2^%d) mod P = %#x, the published constant is %#x", i, r, w)
		}
	}
}

// BenchmarkJump: the cost of one jump, by distance — a parallel
// sampler's chunk pays one of its shot offset's size.
func BenchmarkJump(b *testing.B) {
	for _, k := range []uint64{257, 1 << 17, 3072000, 1 << 40} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			r := NewRNG(1)
			for i := 0; i < b.N; i++ {
				r.Jump(k)
			}
		})
	}
}
