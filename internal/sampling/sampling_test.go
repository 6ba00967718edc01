package sampling

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

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
	if got := c.TopK(-1); len(got) != 0 {
		t.Fatalf("TopK(-1) = %v, want none", got)
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

func TestCountsString(t *testing.T) {
	c := Counts{0b11: 5, 0b00: 3}
	s := c.String()
	if s != `{"11": 5, "00": 3}` {
		t.Fatalf("String = %s", s)
	}
}

func TestSamplersMatchDistribution(t *testing.T) {
	probs := []float64{0.1, 0.2, 0.0, 0.4, 0.3}
	const shots = 200000
	for _, w := range []int{1, 3} {
		c, err := SampleParallel(probs, shots, w, qmath.NewRNG(42))
		if err != nil {
			t.Fatalf("w%d: %v", w, err)
		}
		if c.Total() != shots {
			t.Fatalf("w%d: total %d != %d", w, c.Total(), shots)
		}
		if c[2] != 0 {
			t.Fatalf("w%d: sampled zero-probability outcome", w)
		}
		for i, p := range probs {
			got := float64(c[uint64(i)]) / shots
			if math.Abs(got-p) > 0.01 {
				t.Fatalf("w%d: outcome %d freq %g, want %g", w, i, got, p)
			}
		}
	}
}

func TestSampleUnnormalizedInput(t *testing.T) {
	// Distributions with fp drift (sum != 1) must still sample.
	probs := []float64{2, 6}
	c, err := Sample(probs, 40000, qmath.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	f := float64(c[1]) / 40000
	if math.Abs(f-0.75) > 0.02 {
		t.Fatalf("unnormalized sampling freq %g, want 0.75", f)
	}
}

// TestSamplerErrors: invalid input is an error naming the first bad
// entry — in the first block or one past it, found by the serial pass
// and by the workers' — and a rejected draw leaves the RNG untouched.
func TestSamplerErrors(t *testing.T) {
	at := func(n, i int, v float64) []float64 {
		p := make([]float64, n)
		for j := range p {
			p[j] = 0.01
		}
		p[i] = v
		return p
	}
	for _, tc := range []struct {
		probs []float64
		shots int
		want  string
	}{
		{[]float64{0.5, -0.1}, 10, "negative probability at 1"},
		{[]float64{-1}, 5000, "negative probability at 0"},
		{at(200, 100, -1e-300), 10, "negative probability at 100"},
		{at(200, 3, math.Inf(-1)), 10, "non-finite probability at 3"},
		{[]float64{0.25, math.NaN(), 0.5}, 10, "non-finite probability at 1"},
		{at(200, 100, math.NaN()), 3000, "non-finite probability at 100"},
		{at(200, 130, math.Inf(1)), 3000, "non-finite probability at 130"},
		{at(1<<17, 100000, math.NaN()), 1 << 16, "non-finite probability at 100000"},
		{at(1<<17, 70000, -2), 1 << 16, "negative probability at 70000"},
		{append(at(100, 70, math.Inf(1)), -1), 10, "non-finite probability at 70"},
		{[]float64{math.MaxFloat64, math.MaxFloat64}, 10, "total probability overflows"},
		{[]float64{0, 0}, 10, "zero total probability"},
		{nil, 10, "empty distribution"},
		{[]float64{}, 0, "empty distribution"},
		{[]float64{1}, -1, "negative shots -1"},
	} {
		for _, w := range []int{1, 2, 4} {
			rng := qmath.NewRNG(1)
			_, err := SampleParallel(tc.probs, tc.shots, w, rng)
			if err == nil || err.Error() != "sampling: "+tc.want {
				t.Errorf("len %d w%d: error %v, want %q", len(tc.probs), w, err, "sampling: "+tc.want)
			}
			if rng.Uint64() != qmath.NewRNG(1).Uint64() {
				t.Errorf("len %d w%d: a rejected draw moved the RNG", len(tc.probs), w)
			}
		}
	}
}

// TestSampleDispatch: every path of the draw returns exactly its shots
// and never a zero-probability outcome — walks (up to walkShots shots
// at a node) and binomial splits (more), one block or many, a partial
// last block, shots on one worker or on several — and takes one output
// of the RNG (none for zero shots).
func TestSampleDispatch(t *testing.T) {
	for _, n := range []int{1, 8, 64, 1000, 1 << 16} {
		probs := make([]float64, n)
		r := qmath.NewRNG(uint64(n))
		for i := range probs {
			if i%7 != 3 {
				probs[i] = r.Float64()
			}
		}
		probs[0] = 0.5
		for _, shots := range []int{0, 1, walkShots, walkShots + 1, 5000, 1 << 16} {
			for _, w := range []int{1, 4} {
				rng := qmath.NewRNG(3)
				c, err := SampleParallel(probs, shots, w, rng)
				if err != nil {
					t.Fatal(err)
				}
				if c.Total() != shots {
					t.Fatalf("n=%d shots=%d w%d: total %d", n, shots, w, c.Total())
				}
				for i := range c {
					if i >= uint64(n) || probs[i] == 0 {
						t.Fatalf("n=%d shots=%d w%d: drew outcome %d", n, shots, w, i)
					}
				}
				want := qmath.NewRNG(3)
				if shots > 0 {
					want.Uint64()
				}
				if rng.Uint64() != want.Uint64() {
					t.Fatalf("n=%d shots=%d w%d: the draw took other than one RNG output", n, shots, w)
				}
			}
		}
	}
}

// TestBinomialMatchesPMF holds each of binomial's paths — Bernoulli,
// inversion, BTPE, each also reflected for p > 1/2 — to the exact mass
// function by the G-test, 200 000 draws a case.
func TestBinomialMatchesPMF(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{1, 0.3}, {1, 0.8}, {10, 0.2}, {120, 0.25}, {200, 0.9},
		{1000, 0.05}, {3000, 0.47}, {1 << 20, 0.3}, {5000, 0.7}, {1 << 30, 1e-6},
	} {
		const draws = 200000
		mean := float64(tc.n) * tc.p
		sd := math.Sqrt(mean * (1 - tc.p))
		lo := max(0, int(mean-12*sd-1))
		hi := min(tc.n, int(mean+12*sd+1))
		pmf := make([]float64, hi-lo+1)
		lg := func(x int) float64 { v, _ := math.Lgamma(float64(x) + 1); return v }
		for x := lo; x <= hi; x++ {
			pmf[x-lo] = math.Exp(lg(tc.n) - lg(x) - lg(tc.n-x) + float64(x)*math.Log(tc.p) + float64(tc.n-x)*math.Log1p(-tc.p))
		}
		c := make(Counts)
		r := stream(tc.n)
		for i := 0; i < draws; i++ {
			x := binomial(&r, tc.n, tc.p)
			if x < lo || x > hi {
				t.Fatalf("B(%d, %g): drew %d, outside [%d, %d]", tc.n, tc.p, x, lo, hi)
			}
			c[uint64(x-lo)]++
		}
		gTest(t, fmt.Sprintf("B(%d, %g)", tc.n, tc.p), pmf, draws, c)
	}
}

// TestLnMatchesMathLog: the package's logarithm is math.Log's Go body
// to within an ulp, over the arguments BTPE takes it of.
func TestLnMatchesMathLog(t *testing.T) {
	r := qmath.NewRNG(6)
	for i := 0; i < 100000; i++ {
		x := math.Ldexp(r.Float64()+0.5, r.Intn(200)-100)
		want := math.Log(x)
		if ulp := math.Nextafter(math.Abs(want), math.Inf(1)) - math.Abs(want); math.Abs(ln(x)-want) > ulp {
			t.Fatalf("ln(%g) = %v, math.Log %v", x, ln(x), want)
		}
	}
	if !math.IsInf(ln(0), -1) || ln(1) != 0 {
		t.Fatalf("ln(0) = %v, ln(1) = %v", ln(0), ln(1))
	}
}

// countsHash is a SHA-256 over counts' (outcome, count) pairs in
// outcome order.
func countsHash(c Counts) string {
	keys := make([]uint64, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := sha256.New()
	for _, k := range keys {
		h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, k), uint64(c[k])))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSeededCountsPinned pins the counts of a few seeded draws, one per
// path of the draw, by hash: the same on every architecture and worker
// count (CI runs it under GOARCH=386 and GOAMD64=v3 too), and moved
// only on purpose.
func TestSeededCountsPinned(t *testing.T) {
	uniform := func(n int, seed uint64) []float64 {
		p, r := make([]float64, n), qmath.NewRNG(seed)
		for i := range p {
			p[i] = r.Float64()
		}
		return p
	}
	denormal := uniform(3000, 5)
	for i := range denormal {
		denormal[i] = math.Floor(denormal[i]*8) * math.SmallestNonzeroFloat64
	}
	for _, tc := range []struct {
		name  string
		probs []float64
		shots int
		seed  uint64
		want  string
	}{
		{"btpe_2p10_x1000000", uniform(1<<10, 1), 1000000, 7, "c222d2d86a3ef55bae4afcf8b8f22dc6cbc1a1a907353a50d340d90a7c696a5e"},
		{"inversion_2p12_x60000", uniform(1<<12, 2), 60000, 8, "51f701d952bfccb17dbeed65ebe3331ad68acaf586af041913f043fe84577828"},
		{"walks_2p16_x3000", uniform(1<<16, 3), 3000, 9, "533d0553aa9cdf16027e0baae8da77911caf7a65e99858b5eded587bbcab010e"},
		{"few_x10000000", []float64{0.1, 0.2, 0, 0.4, 0.3}, 10000000, 10, "215c2b90190496d3ce024c335d13a020052fe517d91c93e1c93abf212a61e9c9"},
		{"denormal_3000_x20000", denormal, 20000, 11, "e5422a3b7f5810f06842bfae33ce5382ce7e230a57abf00a5fc50996b6b2de18"},
	} {
		for _, w := range []int{1, 3} {
			c, err := SampleParallel(tc.probs, tc.shots, w, qmath.NewRNG(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := countsHash(c); got != tc.want {
				t.Errorf("%s w%d: counts hash %s, pinned %s", tc.name, w, got, tc.want)
			}
		}
	}
}

// TestCountsIgnoreWorkers: the counts are the same at 1, 2, 4 and 7
// workers on shapes past the parallel thresholds — blocks summed on the
// workers, top subtrees handed out — and an RNG's draws differ from the
// next seed's.
func TestCountsIgnoreWorkers(t *testing.T) {
	for _, tc := range []struct{ outcomes, shots int }{
		{1 << 17, 1 << 17}, {1 << 15, 1536000}, {1000, 1 << 16}, {3, 1 << 20},
	} {
		probs := make([]float64, tc.outcomes)
		r := qmath.NewRNG(4)
		for i := range probs {
			probs[i] = r.Float64()
		}
		var want Counts
		for _, w := range []int{1, 2, 4, 7} {
			c, err := SampleParallel(probs, tc.shots, w, qmath.NewRNG(12))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = c
			} else if !reflect.DeepEqual(c, want) {
				t.Fatalf("%d outcomes × %d shots: counts at w%d differ from w1", tc.outcomes, tc.shots, w)
			}
		}
		if other, _ := Sample(probs, tc.shots, qmath.NewRNG(13)); reflect.DeepEqual(other, want) {
			t.Fatalf("%d outcomes × %d shots: seeds 12 and 13 drew the same counts", tc.outcomes, tc.shots)
		}
	}
}

// TestSamplerWorkingSet: PeakBytes, what admission charges, covers what
// a draw allocates, cold or warm and on any worker count; a warm draw's
// scratch comes off the free list, so it allocates its Counts and its
// record (the tree value) and little else; and the working set scales
// with the blocks and the shots, not the outcomes.
func TestSamplerWorkingSet(t *testing.T) {
	sample := func(n, shots, w int) int64 {
		t.Helper()
		probs := make([]float64, n)
		r := qmath.NewRNG(5)
		for i := range probs {
			probs[i] = r.Float64()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := SampleParallel(probs, shots, w, qmath.NewRNG(9))
		runtime.ReadMemStats(&after)
		if err != nil || c.Total() != shots {
			t.Fatalf("n=%d w=%d shots=%d: %v, total %d", n, w, shots, err, c.Total())
		}
		grew := int64(after.TotalAlloc - before.TotalAlloc)
		if limit := PeakBytes(n, shots, w); grew > limit {
			t.Errorf("n=%d w=%d shots=%d: SampleParallel allocated %d bytes, PeakBytes prices it at %d", n, w, shots, grew, limit)
		}
		return grew
	}
	const n = 1 << 16
	for _, w := range []int{1, 2, 4, 64} {
		for _, shots := range []int{0, 1, 1024, n / 4, 2 * n, 4 * n} {
			sample(n, shots, w)
			warm := sample(n, shots, w)
			if counts := 64 * int64(min(n, shots)); warm > counts+int64(unsafe.Sizeof(tree{}))+512 {
				t.Errorf("n=%d w=%d shots=%d: a warm draw allocated %d bytes, its Counts about %d", n, w, shots, warm, counts)
			}
		}
	}
	sample(1<<20, 1<<21, 64)
	for _, outcomes := range []int{1, 2, 1000, 1 << 15, 1 << 22, 1 << 24} {
		for _, shots := range []int{0, 1, 4096, 1536000, 98 << 20} {
			for _, w := range []int{1, 2, 16, 512} {
				// The scratch is the tree (a quarter word an outcome, at
				// most) and two words a drawn outcome, rounded up to a
				// power of two; the rest is the Counts.
				counts := 64 * int64(min(outcomes, shots))
				if got := PeakBytes(outcomes, shots, w) - counts; got > 2*8*(int64(outcomes)/4+2*int64(min(outcomes, shots))+4096)+512 {
					t.Errorf("outcomes=%d shots=%d w=%d: a working set of %d bytes", outcomes, shots, w, got)
				}
			}
		}
	}
}

// FuzzSampleInvariants drives SampleParallel with fuzzer-shaped
// distributions: each input byte is one outcome, small values exact
// zeros so runs of them are common, scaled by a fuzzed magnitude so Σp
// is rarely 1, and poison, when set, puts a negative or non-finite
// entry somewhere. Valid input draws exactly its shots, never a
// zero-probability outcome, and the same counts at 1, 2, 4 and 7
// workers; invalid input is the same error on every worker count.
func FuzzSampleInvariants(f *testing.F) {
	f.Add([]byte{0, 0, 9, 200, 0, 0, 0, 31, 7, 0}, uint32(40), uint64(1), uint8(3), uint16(0))
	f.Add([]byte{255}, uint32(70000), uint64(2), uint8(0), uint16(0))
	f.Add([]byte{0, 0, 0, 1}, uint32(1), uint64(3), uint8(9), uint16(0))
	f.Add(bytes.Repeat([]byte{5, 0, 77, 0}, 64), uint32(1100), uint64(4), uint8(200), uint16(3<<13|130))
	f.Fuzz(func(t *testing.T, raw []byte, shots uint32, seed uint64, scale uint8, poison uint16) {
		if len(raw) > 1<<12 {
			raw = raw[:1<<12]
		}
		unit := math.Ldexp(1, int(scale%64)-32)
		probs := make([]float64, len(raw))
		for i, b := range raw {
			if b >= 4 {
				probs[i] = float64(b) * unit
			}
		}
		if kind := poison >> 13; kind > 0 && len(probs) > 0 {
			probs[int(poison&(1<<13-1))%len(probs)] = [...]float64{-unit, math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 0, 1e308}[kind-1]
		}
		n := int(shots % (1 << 17))
		var wantErr string
		total := 0.0
		for i, p := range probs {
			if wantErr == "" && (math.IsNaN(p) || math.IsInf(p, 0)) {
				wantErr = fmt.Sprintf("non-finite probability at %d", i)
			} else if wantErr == "" && p < 0 {
				wantErr = fmt.Sprintf("negative probability at %d", i)
			}
			total += p
		}
		switch {
		case len(probs) == 0:
			wantErr = "empty distribution"
		case wantErr == "" && total == 0:
			wantErr = "zero total probability"
		}
		var want Counts
		for _, w := range []int{1, 2, 4, 7} {
			c, err := SampleParallel(probs, n, w, qmath.NewRNG(seed))
			if wantErr != "" || err != nil {
				if err == nil || !strings.HasSuffix(err.Error(), wantErr) || wantErr == "" {
					t.Fatalf("w%d: error %v, want %q", w, err, wantErr)
				}
				continue
			}
			if c.Total() != n {
				t.Fatalf("w%d: %d shots counted, want %d", w, c.Total(), n)
			}
			for i := range c {
				if i >= uint64(len(probs)) || probs[i] == 0 {
					t.Fatalf("w%d: drew outcome %d", w, i)
				}
			}
			if want == nil {
				want = c
			} else if !reflect.DeepEqual(c, want) {
				t.Fatalf("w%d: counts differ from w1", w)
			}
		}
	})
}

// BenchmarkSample: SampleParallel, the one entry point, on 1, 2 and 4
// workers, at the shapes the system draws: the QCrank workload's (2^15
// outcomes, 1 536 000 shots), the QFT workload's (2^21 outcomes, 4096
// shots), a served 12-qubit job's (1000 shots), and a DRAM-sized
// distribution (2^22 outcomes) at 4, 1 and 1/4 shots per outcome.
// ns/shot is the wall time per shot drawn.
func BenchmarkSample(b *testing.B) {
	for _, shape := range []struct {
		name            string
		outcomes, shots int
	}{
		{"qcrank_2p15_x1536000", 1 << 15, 1536000},
		{"qft_2p21_x4096", 1 << 21, 4096},
		{"serve_2p12_x1000", 1 << 12, 1000},
		{"dram_2p22_x2p24", 1 << 22, 1 << 24},
		{"dram_2p22_x2p22", 1 << 22, 1 << 22},
		{"dram_2p22_x2p20", 1 << 22, 1 << 20},
	} {
		probs := make([]float64, shape.outcomes)
		r := qmath.NewRNG(2)
		for i := range probs {
			probs[i] = r.Float64()
		}
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/w%d", shape.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := SampleParallel(probs, shape.shots, w, qmath.NewRNG(uint64(i))); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(shape.shots), "ns/shot")
			})
		}
	}
}
