// Package qmath provides the low-level numeric helpers shared by the
// Q-GEAR simulation stack: amplitude-index bit manipulation, Gray codes,
// the Walsh–Hadamard transform used by the QCrank angle encoder, and a
// small deterministic RNG with stream splitting so every experiment in
// the paper reproduction is seedable and bit-for-bit repeatable.
package qmath

// InsertBit inserts a bit with the given value at position pos (counted
// from the least-significant end) into x, shifting the higher bits left.
// It is the core index transform for applying a gate to one qubit: for a
// target qubit t, iterating i over [0, 2^(n-1)) and expanding with
// InsertBit(i, t, 0) / InsertBit(i, t, 1) enumerates every amplitude
// pair the gate mixes.
func InsertBit(x uint64, pos uint, val uint64) uint64 {
	lower := x & ((1 << pos) - 1)
	upper := x >> pos
	return upper<<(pos+1) | val<<pos | lower
}

// InsertTwoBits inserts bits b1 at p1 and b2 at p2 (p1 != p2) into x,
// producing an index with two qubits pinned. Positions refer to the
// final index.
func InsertTwoBits(x uint64, p1 uint, b1 uint64, p2 uint, b2 uint64) uint64 {
	if p1 > p2 {
		p1, p2, b1, b2 = p2, p1, b2, b1
	}
	// Insert the lower position first: the later insert at p2 only
	// shifts bits at or above p2, so the bit pinned at p1 stays put.
	x = InsertBit(x, p1, b1)
	return InsertBit(x, p2, b2)
}

// GrayCode returns the i-th Gray code: i ^ (i >> 1).
func GrayCode(i uint64) uint64 { return i ^ (i >> 1) }

// GrayFlipBit returns the position of the single bit that differs
// between GrayCode(i) and GrayCode(i+1). It equals the number of
// trailing ones of i... specifically the index of the lowest set bit of
// i+1.
func GrayFlipBit(i uint64) uint {
	v := i + 1
	pos := uint(0)
	for v&1 == 0 {
		v >>= 1
		pos++
	}
	return pos
}

// Log2Ceil returns ceil(log2(x)) for x >= 1, and 0 for x <= 1.
func Log2Ceil(x uint64) uint {
	if x <= 1 {
		return 0
	}
	n := uint(0)
	v := x - 1
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// IsPow2 reports whether x is a power of two (x > 0).
func IsPow2(x uint64) bool { return x != 0 && x&(x-1) == 0 }

// WalshHadamard applies the in-place unnormalized Walsh–Hadamard
// transform to data, whose length must be a power of two. The QCrank
// encoder (internal/qcrank) uses this to convert per-address rotation
// angles into the angles of the Gray-code Ry/CX ladder that implements a
// uniformly controlled rotation (Möttönen et al., Phys. Rev. Lett. 93,
// 130502, cited as [27] in the paper).
func WalshHadamard(data []float64) {
	n := len(data)
	if n&(n-1) != 0 {
		panic("qmath: WalshHadamard length must be a power of two")
	}
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := data[j], data[j+h]
				data[j], data[j+h] = x+y, x-y
			}
		}
	}
}
