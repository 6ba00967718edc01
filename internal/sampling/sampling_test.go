package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"qgear/internal/qmath"
)

func TestBitstring(t *testing.T) {
	if s := Bitstring(0b101, 4); s != "0101" {
		t.Fatalf("Bitstring = %q", s)
	}
	if s := Bitstring(0, 3); s != "000" {
		t.Fatalf("Bitstring = %q", s)
	}
	// Wider than the index (zero-padded), bits above the width dropped,
	// empty widths.
	if s := Bitstring(1<<63|1, 66); s != "00"+"1"+"00000000000000000000000000000000000000000000000000000000000000"+"1" {
		t.Fatalf("Bitstring = %q", s)
	}
	if s := Bitstring(0b1101, 2); s != "01" {
		t.Fatalf("Bitstring = %q", s)
	}
	if s := Bitstring(5, 0) + Bitstring(5, -1); s != "" {
		t.Fatalf("Bitstring = %q", s)
	}
	if got := string(AppendBitstring([]byte("x"), 2, 2)); got != "x10" {
		t.Fatalf("AppendBitstring = %q", got)
	}
	var sink string
	if a := testing.AllocsPerRun(100, func() { sink = Bitstring(0xabc, 12) }); a != 1 {
		t.Fatalf("Bitstring allocates %v times, want once (%q)", a, sink)
	}
}

func TestCountsTotalAndTopK(t *testing.T) {
	c := Counts{0: 10, 1: 30, 2: 20}
	if c.Total() != 60 {
		t.Fatal("Total wrong")
	}
	top := c.TopK(2)
	if len(top) != 2 || top[0] != 1 || top[1] != 2 {
		t.Fatalf("TopK wrong: %v", top)
	}
	if got := c.TopK(10); len(got) != 3 {
		t.Fatal("TopK should clamp")
	}
}

func TestTopKTieBreak(t *testing.T) {
	c := Counts{5: 10, 2: 10, 9: 10}
	top := c.TopK(3)
	if top[0] != 2 || top[1] != 5 || top[2] != 9 {
		t.Fatalf("ties must break by index: %v", top)
	}
}

func TestMarginal(t *testing.T) {
	// 3-qubit counts; marginalize to qubits {2, 0}: out bit0 = in bit2,
	// out bit1 = in bit0.
	c := Counts{0b101: 7, 0b100: 3, 0b010: 5}
	m := c.Marginal([]int{2, 0})
	// 0b101: bit2=1 -> out bit0 =1; bit0=1 -> out bit1=1 => 0b11
	// 0b100: bit2=1, bit0=0 => 0b01
	// 0b010: bit2=0, bit0=0 => 0b00
	if m[0b11] != 7 || m[0b01] != 3 || m[0b00] != 5 {
		t.Fatalf("marginal wrong: %v", m)
	}
	if m.Total() != c.Total() {
		t.Fatal("marginal lost shots")
	}
}

func TestSamplersMatchDistribution(t *testing.T) {
	probs := []float64{0.1, 0.2, 0.0, 0.4, 0.3}
	const shots = 200000
	for name, sampler := range map[string]func([]float64, int, *qmath.RNG) (Counts, error){
		"cumulative": SampleCumulative,
		"alias":      SampleAlias,
	} {
		rng := qmath.NewRNG(42)
		c, err := sampler(probs, shots, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Total() != shots {
			t.Fatalf("%s: total %d != %d", name, c.Total(), shots)
		}
		if c[2] != 0 {
			t.Fatalf("%s: sampled zero-probability outcome", name)
		}
		for i, p := range probs {
			got := float64(c[uint64(i)]) / shots
			if math.Abs(got-p) > 0.01 {
				t.Fatalf("%s: outcome %d freq %g, want %g", name, i, got, p)
			}
		}
	}
}

func TestSampleUnnormalizedInput(t *testing.T) {
	// Distributions with fp drift (sum != 1) must still sample.
	probs := []float64{2, 6}
	rng := qmath.NewRNG(7)
	c, err := SampleAlias(probs, 40000, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := float64(c[1]) / 40000
	if math.Abs(f-0.75) > 0.02 {
		t.Fatalf("unnormalized sampling freq %g, want 0.75", f)
	}
}

func TestSamplerErrors(t *testing.T) {
	rng := qmath.NewRNG(1)
	if _, err := SampleCumulative([]float64{0.5, -0.1}, 10, rng); err == nil {
		t.Fatal("negative prob accepted")
	}
	if _, err := SampleAlias([]float64{-1}, 10, rng); err == nil {
		t.Fatal("negative prob accepted")
	}
	if _, err := SampleCumulative([]float64{0, 0}, 10, rng); err == nil {
		t.Fatal("zero distribution accepted")
	}
	if _, err := NewAliasTable(nil); err == nil {
		t.Fatal("empty distribution accepted")
	}
	if _, err := SampleCumulative([]float64{1}, -1, rng); err == nil {
		t.Fatal("negative shots accepted")
	}
	if _, err := SampleAlias([]float64{1}, -1, rng); err == nil {
		t.Fatal("negative shots accepted")
	}
}

func TestSampleDispatch(t *testing.T) {
	probs := make([]float64, 8)
	for i := range probs {
		probs[i] = 1
	}
	rng := qmath.NewRNG(3)
	// Small shots -> cumulative path; large -> alias path. Both must
	// return exactly `shots` samples.
	for _, shots := range []int{10, 5000} {
		c, err := Sample(probs, shots, rng)
		if err != nil {
			t.Fatal(err)
		}
		if c.Total() != shots {
			t.Fatalf("total %d != %d", c.Total(), shots)
		}
	}
}

func TestAliasTableProperty(t *testing.T) {
	// Property: for random distributions, the alias table preserves
	// per-outcome probability within sampling error.
	f := func(seed uint32) bool {
		r := qmath.NewRNG(uint64(seed))
		probs := make([]float64, 6)
		for i := range probs {
			probs[i] = r.Float64()
		}
		probs[r.Intn(6)] += 1 // ensure non-zero total, uneven shape
		tab, err := NewAliasTable(probs)
		if err != nil {
			return false
		}
		var total float64
		for _, p := range probs {
			total += p
		}
		const shots = 30000
		counts := make([]int, 6)
		for s := 0; s < shots; s++ {
			counts[tab.Draw(r)]++
		}
		for i, p := range probs {
			want := p / total
			got := float64(counts[i]) / shots
			if math.Abs(got-want) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCountsString(t *testing.T) {
	c := Counts{0b11: 5, 0b00: 3}
	s := c.String()
	if s != `{"11": 5, "00": 3}` {
		t.Fatalf("String = %s", s)
	}
}
