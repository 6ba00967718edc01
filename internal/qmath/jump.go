package qmath

import "math/bits"

// Jump-ahead. xoshiro256's state update (everything Uint64 does but
// the output scrambler) is a linear map T on 256-bit states over
// GF(2), and its characteristic polynomial P has degree 256: P(T) = 0.
// So T^k = R(T) for R(x) = x^k mod P(x), a polynomial of degree below
// 256, and the state k outputs ahead is Σ r_i·T^i(s) — the XOR of those
// of the next 256 states whose coefficient in R is set. That is the
// form of Blackman & Vigna's jump() (R = x^(2^128) mod P, hard-coded),
// with R computed for any k by square-and-multiply in GF(2)[x]/P, after
// Haramoto et al., Efficient Jump Ahead for F2-Linear Random Number
// Generators (INFORMS J. Computing 20(3), 2008).

// charPoly is P(x), coefficient i in bit i%64 of word i/64: the leading
// x^256 is word 4. TestCharPolyBerlekampMassey re-derives it from one
// state bit's sequence.
var charPoly = [5]uint64{
	0x9d116f2bb0f0f001, 0x0280002bcefd1a5e, 0x04b4edcf26259f85, 0x0003c03c3f3ecb19, 1,
}

// gf2Poly is a polynomial over GF(2) of degree below 256, laid out as
// charPoly's low four words.
type gf2Poly [4]uint64

// mulx returns a·x mod P.
func (a gf2Poly) mulx() gf2Poly {
	top := a[3] >> 63
	a = gf2Poly{a[0] << 1, a[1]<<1 | a[0]>>63, a[2]<<1 | a[1]>>63, a[3]<<1 | a[2]>>63}
	if top != 0 {
		for i := range a {
			a[i] ^= charPoly[i]
		}
	}
	return a
}

// square returns a² mod P. Squaring over GF(2) spreads the coefficients
// (coefficient i moves to 2i); the upper half hi of the 512-bit square
// is reduced a byte at a time, hi·x^256 = (…(hi·x^8)·x^8…)·x^8.
func (a gf2Poly) square() gf2Poly {
	var lo, hi gf2Poly
	for i, w := range a {
		sq := &lo
		if i >= 2 {
			sq = &hi
		}
		sq[2*i&3], sq[2*i&3+1] = spread(uint32(w)), spread(uint32(w>>32))
	}
	for i := 0; i < 32; i++ {
		t := &mulx8[hi[3]>>56]
		hi = gf2Poly{hi[0]<<8 ^ t[0], (hi[1]<<8 | hi[0]>>56) ^ t[1], (hi[2]<<8 | hi[1]>>56) ^ t[2], (hi[3]<<8 | hi[2]>>56) ^ t[3]}
	}
	for i := range lo {
		lo[i] ^= hi[i]
	}
	return lo
}

// mulx8[b] is b(x)·x^256 mod P for the polynomial b of degree below 8:
// what the byte a·x^8 shifts out of the top of a folds back in as.
var mulx8 = func() (t [256]gf2Poly) {
	var xs [8]gf2Poly // x^(256+i) mod P
	xs[0] = gf2Poly(charPoly[:4])
	for i := 1; i < 8; i++ {
		xs[i] = xs[i-1].mulx()
	}
	for b := range t {
		for i, x := range xs {
			if b>>uint(i)&1 != 0 {
				for j := range x {
					t[b][j] ^= x[j]
				}
			}
		}
	}
	return t
}()

// spread returns x's bits at the even positions of a word: bit i to 2i.
func spread(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	return (v | v<<1) & 0x5555555555555555
}

// jumpPoly returns x^k mod P, by square-and-multiply from k's top bit.
func jumpPoly(k uint64) gf2Poly {
	r := gf2Poly{1}
	for b := bits.Len64(k) - 1; b >= 0; b-- {
		r = r.square()
		if k>>uint(b)&1 != 0 {
			r = r.mulx()
		}
	}
	return r
}

// Jump advances r by k outputs, exactly as k calls of Uint64 would, in
// O(256·log k) word operations: a worker that is to draw outputs
// [a, b) of a stream copies the generator and jumps the copy by a.
func (r *RNG) Jump(k uint64) {
	if k <= 256 { // stepping is no dearer than the fold below
		for ; k > 0; k-- {
			r.Uint64()
		}
		return
	}
	r.apply(jumpPoly(k))
}

// apply replaces r's state s with R(T)(s): the XOR of the states
// T^i(s) whose coefficient i is set in R.
func (r *RNG) apply(p gf2Poly) {
	var acc [4]uint64
	for _, w := range p {
		for b := 0; b < 64; b++ {
			if w>>uint(b)&1 != 0 {
				for i := range acc {
					acc[i] ^= r.s[i]
				}
			}
			r.Uint64()
		}
	}
	r.s = acc
}
