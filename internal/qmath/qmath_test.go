package qmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestInsertBit(t *testing.T) {
	cases := []struct {
		x    uint64
		pos  uint
		val  uint64
		want uint64
	}{
		{0b0, 0, 1, 0b1},
		{0b0, 0, 0, 0b0},
		{0b1, 0, 0, 0b10},
		{0b1, 1, 0, 0b01},
		{0b1, 1, 1, 0b11},
		{0b101, 1, 1, 0b1011},
		{0b101, 3, 0, 0b0101},
		{0b111, 2, 0, 0b1011},
	}
	for _, c := range cases {
		if got := InsertBit(c.x, c.pos, c.val); got != c.want {
			t.Errorf("InsertBit(%b,%d,%d) = %b, want %b", c.x, c.pos, c.val, got, c.want)
		}
	}
}

func TestInsertBitEnumeratesPairs(t *testing.T) {
	// For a 4-bit space and target qubit 2, iterating i over [0,8) with
	// val=0 and val=1 must cover all 16 indices exactly once, and each
	// pair must differ only in bit 2.
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 8; i++ {
		lo := InsertBit(i, 2, 0)
		hi := InsertBit(i, 2, 1)
		if lo^hi != 1<<2 {
			t.Fatalf("pair (%b,%b) differs in more than bit 2", lo, hi)
		}
		seen[lo], seen[hi] = true, true
	}
	if len(seen) != 16 {
		t.Fatalf("covered %d of 16 indices", len(seen))
	}
}

func TestInsertTwoBits(t *testing.T) {
	// Pin bits (1->p3, 0->p1) into x=0b11: remaining bits fill 0,2.
	got := InsertTwoBits(0b11, 3, 1, 1, 0)
	// final: bit3=1, bit1=0, bits {0,2} = x bits {0,1} = {1,1} -> 0b1101
	if got != 0b1101 {
		t.Fatalf("InsertTwoBits = %b, want 1101", got)
	}
	// Order of arguments must not matter.
	if alt := InsertTwoBits(0b11, 1, 0, 3, 1); alt != got {
		t.Fatalf("InsertTwoBits arg order changed result: %b vs %b", alt, got)
	}
}

func TestInsertTwoBitsCoversSpace(t *testing.T) {
	// 5-bit space, pins at 1 and 4: all 32 indices covered by 8 bases x 4
	// bit combos.
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 8; i++ {
		for b1 := uint64(0); b1 < 2; b1++ {
			for b2 := uint64(0); b2 < 2; b2++ {
				idx := InsertTwoBits(i, 1, b1, 4, b2)
				if (idx>>1)&1 != b1 || (idx>>4)&1 != b2 {
					t.Fatalf("pins not honored: idx=%b b1=%d b2=%d", idx, b1, b2)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != 32 {
		t.Fatalf("covered %d of 32", len(seen))
	}
}

func TestGrayCode(t *testing.T) {
	want := []uint64{0, 1, 3, 2, 6, 7, 5, 4}
	for i, w := range want {
		if g := GrayCode(uint64(i)); g != w {
			t.Errorf("GrayCode(%d) = %d, want %d", i, g, w)
		}
	}
	// Successive Gray codes differ by exactly one bit, at GrayFlipBit(i).
	for i := uint64(0); i < 255; i++ {
		diff := GrayCode(i) ^ GrayCode(i+1)
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("Gray codes %d,%d differ in %b", i, i+1, diff)
		}
		if diff != 1<<GrayFlipBit(i) {
			t.Fatalf("GrayFlipBit(%d) inconsistent", i)
		}
	}
}

func TestLog2CeilAndPow2(t *testing.T) {
	cases := map[uint64]uint{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for x, w := range cases {
		if got := Log2Ceil(x); got != w {
			t.Errorf("Log2Ceil(%d) = %d, want %d", x, got, w)
		}
	}
	if !IsPow2(1024) || IsPow2(1023) || IsPow2(0) {
		t.Fatal("IsPow2 wrong")
	}
}

func TestWalshHadamardRoundTrip(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		data := make([]float64, n)
		orig := make([]float64, n)
		for i := range data {
			data[i] = r.Float64()*2 - 1
			orig[i] = data[i]
		}
		// The unnormalized transform is its own inverse up to 1/n.
		WalshHadamard(data)
		WalshHadamard(data)
		for i := range data {
			data[i] /= float64(n)
			if !almostEqual(data[i], orig[i], 1e-12) {
				t.Fatalf("n=%d round trip failed at %d: %g vs %g", n, i, data[i], orig[i])
			}
		}
	}
}

func TestWalshHadamardKnown(t *testing.T) {
	data := []float64{1, 0, 0, 0}
	WalshHadamard(data)
	for _, v := range data {
		if v != 1 {
			t.Fatalf("WH of delta should be all-ones, got %v", data)
		}
	}
	data = []float64{1, 1, 1, 1}
	WalshHadamard(data)
	if data[0] != 4 || data[1] != 0 || data[2] != 0 || data[3] != 0 {
		t.Fatalf("WH of ones wrong: %v", data)
	}
}

func TestWalshHadamardPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two length")
		}
	}()
	WalshHadamard(make([]float64, 3))
}

func TestInsertBitProperty(t *testing.T) {
	// Property: removing the inserted bit recovers the original index.
	f := func(x uint32, pos8 uint8, val bool) bool {
		pos := uint(pos8 % 30)
		v := uint64(0)
		if val {
			v = 1
		}
		y := InsertBit(uint64(x), pos, v)
		if (y>>pos)&1 != v {
			return false
		}
		lower := y & ((1 << pos) - 1)
		upper := y >> (pos + 1)
		return upper<<pos|lower == uint64(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(1)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children start identically")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Float64 mean %g far from 0.5", mean)
	}
}

func TestRNGIntnAndPerm(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("Intn(7) value %d count %d is far from uniform", v, c)
		}
	}
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGAngleRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		a := r.Angle()
		if a < 0 || a >= 2*math.Pi {
			t.Fatalf("angle out of range: %g", a)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %g too far from 1", variance)
	}
}

// almostEqual reports |a-b| <= tol, treating NaN as never equal.
func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestAlmostEqual(t *testing.T) {
	if !almostEqual(1, 1+1e-13, 1e-12) {
		t.Fatal("should be almost equal")
	}
	if almostEqual(1, 1.1, 1e-3) {
		t.Fatal("should not be almost equal")
	}
	if almostEqual(math.NaN(), math.NaN(), 1) {
		t.Fatal("NaN must never be almost equal")
	}
}
