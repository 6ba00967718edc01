package kernel

import (
	"math"
	"testing"

	"qgear/internal/gate"
	"qgear/internal/qmath"
)

// soupKernel builds a kernel that exercises every plan feature:
// tile-local runs, diagonal/control predicates, SWAP absorption,
// relabeling bit-swaps and global fallbacks.
func soupKernel(t *testing.T, n int) *Kernel {
	t.Helper()
	k := New("soup", n)
	rng := qmath.NewRNG(7)
	for i := 0; i < 120; i++ {
		q := int(rng.Uint64() % uint64(n))
		p := int(rng.Uint64() % uint64(n))
		if p == q {
			p = (p + 1) % n
		}
		switch i % 8 {
		case 0:
			k.H(q)
		case 1:
			k.Rz(0.1*float64(i+1), q)
		case 2:
			k.XCtrl(q, p)
		case 3:
			k.CR1(0.2*float64(i+1), q, p)
		case 4:
			k.Swap(q, p)
		case 5:
			k.Ry(0.3*float64(i+1), q)
		case 6:
			k.RyCtrl(0.05*float64(i+1), q, p)
		case 7:
			k.ZCtrl(q, p)
		}
	}
	k.Mz()
	return k
}

// TestSizeBytes: sizes are positive, grow with content, and the plan
// size reflects its segment arrays.
func TestSizeBytes(t *testing.T) {
	small := soupKernel(t, 6)
	if small.SizeBytes() <= 0 {
		t.Fatal("kernel SizeBytes not positive")
	}
	big := New("big", 6)
	for i := 0; i < 1000; i++ {
		big.H(i % 6)
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("1000-instr kernel (%d B) not larger than 120-instr kernel (%d B)",
			big.SizeBytes(), small.SizeBytes())
	}
	p, err := Plan(small, PlanConfig{TileBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.SizeBytes() <= 0 {
		t.Fatal("plan SizeBytes not positive")
	}
	perOp := float64(p.SizeBytes()) / math.Max(1, float64(p.Stats.TileLocal))
	if perOp < 8 {
		t.Fatalf("plan byte accounting implausibly small: %d B for %d tile-local ops", p.SizeBytes(), p.Stats.TileLocal)
	}
	_ = gate.H // keep the import honest for soupKernel's builder calls
}
