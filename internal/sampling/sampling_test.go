package sampling

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"testing/quick"

	"qgear/internal/qmath"
	"qgear/internal/statevec"
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

// refSampleCumulative is SampleCumulative as it stood before the
// table-free rewrite, verbatim: build the cumulative table, binary
// search it once per shot, hash once per shot. It is the definition the
// merge pass is held to.
func refSampleCumulative(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	if shots < 0 {
		return nil, fmt.Errorf("sampling: negative shots %d", shots)
	}
	cum := make([]float64, len(probs))
	var acc float64
	for i, p := range probs {
		if p < 0 {
			return nil, fmt.Errorf("sampling: negative probability at %d", i)
		}
		acc += p
		cum[i] = acc
	}
	if acc <= 0 {
		return nil, fmt.Errorf("sampling: zero total probability")
	}
	counts := make(Counts)
	for s := 0; s < shots; s++ {
		x := rng.Float64() * acc
		idx := sort.SearchFloat64s(cum, x)
		if idx == len(cum) {
			idx = len(cum) - 1
		}
		// SearchFloat64s returns the first i with cum[i] >= x; skip
		// zero-probability plateaus that can alias onto the boundary.
		for idx < len(probs)-1 && probs[idx] == 0 {
			idx++
		}
		counts[uint64(idx)]++
	}
	return counts, nil
}

// refAliasTable is AliasTable as it stood before its columns were
// packed into one entry each: two arrays, two loads per draw.
type refAliasTable struct {
	prob  []float64
	alias []int
}

func (t *refAliasTable) Draw(rng *qmath.RNG) uint64 {
	i := rng.Intn(len(t.prob))
	if rng.Float64() < t.prob[i] {
		return uint64(i)
	}
	return uint64(t.alias[i])
}

// refNewAliasTable is NewAliasTable as it stood before the three-array
// rewrite, verbatim (five N-length arrays).
func refNewAliasTable(probs []float64) (*refAliasTable, error) {
	n := len(probs)
	if n == 0 {
		return nil, fmt.Errorf("sampling: empty distribution")
	}
	var total float64
	for i, p := range probs {
		if p < 0 {
			return nil, fmt.Errorf("sampling: negative probability at %d", i)
		}
		total += p
	}
	if total <= 0 {
		return nil, fmt.Errorf("sampling: zero total probability")
	}
	t := &refAliasTable{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range probs {
		scaled[i] = p / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t, nil
}

// refSampleAlias is SampleAlias as it stood before the dense histogram,
// verbatim: one hash per shot.
func refSampleAlias(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	if shots < 0 {
		return nil, fmt.Errorf("sampling: negative shots %d", shots)
	}
	t, err := refNewAliasTable(probs)
	if err != nil {
		return nil, err
	}
	counts := make(Counts)
	for s := 0; s < shots; s++ {
		counts[t.Draw(rng)]++
	}
	return counts, nil
}

// refSample is Sample's dispatch over the reference samplers.
func refSample(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	if shots > len(probs)/4 && shots > 1024 {
		return refSampleAlias(probs, shots, rng)
	}
	return refSampleCumulative(probs, shots, rng)
}

// sameAsReference holds one sampler to its reference on one input:
// equal errors, exactly equal counts, and an RNG left in the same state
// (so whatever a caller draws next is unchanged too).
func sameAsReference(t *testing.T, what string, probs []float64, shots int, seed uint64,
	got, ref func([]float64, int, *qmath.RNG) (Counts, error)) {
	t.Helper()
	gr, rr := qmath.NewRNG(seed), qmath.NewRNG(seed)
	g, gerr := got(probs, shots, gr)
	r, rerr := ref(probs, shots, rr)
	if (gerr == nil) != (rerr == nil) || (gerr != nil && gerr.Error() != rerr.Error()) {
		t.Fatalf("%s shots=%d seed=%d: error %v, reference %v", what, shots, seed, gerr, rerr)
	}
	if !reflect.DeepEqual(g, r) {
		t.Fatalf("%s shots=%d seed=%d: counts differ from the reference\n got %v\nwant %v", what, shots, seed, g, r)
	}
	if gerr == nil && gr.Uint64() != rr.Uint64() {
		t.Fatalf("%s shots=%d seed=%d: RNG consumed differently from the reference", what, shots, seed)
	}
}

// chunked is the alias draw forced into chunks ranges, whatever the
// shot count: the parallel path on inputs too small to reach
// minChunkShots per worker.
func chunked(chunks int) func([]float64, int, *qmath.RNG) (Counts, error) {
	return func(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
		return sampleAlias(probs, shots, chunks, rng)
	}
}

// TestSamplersMatchReference: the table-free cumulative sampler and the
// dense-histogram alias sampler are the old samplers — exact Counts
// equality over seeded random distributions of every awkward shape, at
// shot counts on both sides of Sample's switch — and so is the alias
// draw split into 2, 3 or 4 jumped chunks.
func TestSamplersMatchReference(t *testing.T) {
	const n = 512
	shapes := map[string]func(r *qmath.RNG) []float64{
		"dense": func(r *qmath.RNG) []float64 {
			p := make([]float64, n)
			for i := range p {
				p[i] = r.Float64()
			}
			return p
		},
		"zero plateaus": func(r *qmath.RNG) []float64 {
			// Runs of exact zeros, including one at index 0.
			p := make([]float64, n)
			for i := 0; i < n; {
				run := 1 + r.Intn(24)
				zero := i == 0 || r.Intn(2) == 0
				for ; run > 0 && i < n; run, i = run-1, i+1 {
					if !zero {
						p[i] = r.Float64()
					}
				}
			}
			p[n/2] = 0.5
			return p
		},
		"all-zero tail": func(r *qmath.RNG) []float64 {
			p := make([]float64, n)
			for i := 0; i < n/3; i++ {
				p[i] = r.Float64()
			}
			return p
		},
		"sum far from one": func(r *qmath.RNG) []float64 {
			p := make([]float64, n)
			for i := range p {
				p[i] = 1e6 * r.Float64()
			}
			return p
		},
		"sum below one": func(r *qmath.RNG) []float64 {
			p := make([]float64, n)
			for i := range p {
				p[i] = 1e-9 * r.Float64()
			}
			return p
		},
		"peaked": func(r *qmath.RNG) []float64 {
			p := make([]float64, n)
			for i := range p {
				p[i] = 1e-12 * r.Float64()
			}
			p[r.Intn(n)] = 1
			return p
		},
		"zero runs across block edges": func(r *qmath.RNG) []float64 {
			// SampleCumulative's checkpoints sit every 2^ckBits outcomes:
			// zero runs straddle them, end at one, start at one, and fill
			// a whole block.
			p := make([]float64, n)
			for i := range p {
				p[i] = r.Float64()
			}
			for _, run := range [][2]int{{60, 70}, {124, 200}, {250, 256}, {256, 262}, {320, 384}, {n - 3, n}} {
				clear(p[run[0]:run[1]])
			}
			return p
		},
		"not a power of two": func(r *qmath.RNG) []float64 {
			p := make([]float64, 1000)
			for i := range p {
				p[i] = r.Float64()
			}
			return p
		},
		"single outcome": func(*qmath.RNG) []float64 { return []float64{0.7} },
		"two outcomes, first zero": func(*qmath.RNG) []float64 {
			return []float64{0, 1}
		},
	}
	for name, shape := range shapes {
		for seed := uint64(1); seed <= 6; seed++ {
			probs := shape(qmath.NewRNG(seed * 977))
			N := len(probs)
			for _, shots := range []int{0, 1, 1024, N / 4, N/4 + 1, 8 * N, 1025, 5000} {
				sameAsReference(t, name+"/cumulative", probs, shots, seed, SampleCumulative, refSampleCumulative)
				sameAsReference(t, name+"/alias", probs, shots, seed, SampleAlias, refSampleAlias)
				sameAsReference(t, name+"/sample", probs, shots, seed, Sample, refSample)
				for w := 1; w <= 4; w++ {
					sameAsReference(t, fmt.Sprintf("%s/alias w%d", name, w), probs, shots, seed, chunked(w), refSampleAlias)
				}
			}
		}
		// Above the chunk floor SampleParallel splits the draw itself, into
		// as many chunks as aliasChunks allows for 1–4 workers.
		probs := shape(qmath.NewRNG(977))
		for w := 1; w <= 4; w++ {
			parallel := func(p []float64, s int, rng *qmath.RNG) (Counts, error) { return SampleParallel(p, s, w, rng) }
			sameAsReference(t, fmt.Sprintf("%s/parallel w%d", name, w), probs, 3*minChunkShots+17, 1, parallel, refSampleAlias)
		}
	}
	if got := aliasChunks(2, minChunkShots-1, 8); got != 1 {
		t.Errorf("%d shots on 8 workers draw in %d chunks, want one below the floor", minChunkShots-1, got)
	}
	// A draw equal to a checkpoint. With dyadic probabilities summing to
	// exactly 1, the first draw is the RNG's first Float64 u itself, and
	// the running sum reaches u exactly at the end of block 3: that draw
	// lands on the block's last outcome, not past it.
	for seed := uint64(1); seed <= 6; seed++ {
		u := qmath.NewRNG(seed).Float64()
		probs := make([]float64, n)
		edge := 4<<ckBits - 1
		probs[edge], probs[300] = u, 1-u
		for _, shots := range []int{1, 7, 100} {
			sameAsReference(t, "checkpoint draw/cumulative", probs, shots, seed, SampleCumulative, refSampleCumulative)
		}
		if c, err := SampleCumulative(probs, 1, qmath.NewRNG(seed)); err != nil || c[uint64(edge)] != 1 {
			t.Fatalf("seed %d: a draw equal to the checkpoint at %d gave %v, %v", seed, edge, c, err)
		}
	}
	// Invalid inputs fail the same way.
	for _, probs := range [][]float64{nil, {}, {0, 0}, {0.5, -0.1}, {-1}} {
		for _, shots := range []int{-1, 0, 10, 5000} {
			sameAsReference(t, "invalid/cumulative", probs, shots, 1, SampleCumulative, refSampleCumulative)
			sameAsReference(t, "invalid/alias", probs, shots, 1, SampleAlias, refSampleAlias)
			sameAsReference(t, "invalid/alias w3", probs, shots, 1, chunked(3), refSampleAlias)
		}
	}
	// A non-finite total is garbage in, but the same garbage out: NaN
	// draws clamp to the last outcome, infinite ones find the first
	// infinite entry — also when it sits past a checkpoint, in the
	// middle of a block whose checkpoint is then infinite or NaN; the
	// alias table pairs its NaN and zero columns as the reference does.
	long := func(at int, v float64) []float64 {
		p := make([]float64, 200)
		for i := range p {
			p[i] = 0.01
		}
		p[at] = v
		return p
	}
	for _, probs := range [][]float64{
		{0.25, math.NaN(), 0.5},
		{0.25, math.Inf(1), 0.5, math.Inf(1), 0},
		long(100, math.NaN()),
		long(100, math.Inf(1)),
	} {
		sameAsReference(t, "non-finite/cumulative", probs, 200, 3, SampleCumulative, refSampleCumulative)
		for _, shots := range []int{200, 3000} {
			sameAsReference(t, "non-finite/alias", probs, shots, 3, SampleAlias, refSampleAlias)
			sameAsReference(t, "non-finite/alias w3", probs, shots, 3, chunked(3), refSampleAlias)
		}
	}
}

// TestAliasTableMatchesReference: the packed construction pairs the
// same columns in the same order as the five-array one — each entry
// holds the reference's probability bits and alias index.
func TestAliasTableMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := qmath.NewRNG(seed)
		probs := make([]float64, 1+r.Intn(300))
		for i := range probs {
			if r.Intn(4) > 0 {
				probs[i] = r.Float64()
			}
		}
		probs[r.Intn(len(probs))] += 0.1
		got, err := NewAliasTable(probs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refNewAliasTable(probs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.cols) != len(want.prob) {
			t.Fatalf("seed %d: %d columns, reference %d", seed, len(got.cols), len(want.prob))
		}
		for i, col := range got.cols {
			if math.Float64bits(real(col)) != math.Float64bits(want.prob[i]) || imag(col) != float64(want.alias[i]) {
				t.Fatalf("seed %d: column %d is (%v, %v), reference (%v, %d)", seed, i, real(col), imag(col), want.prob[i], want.alias[i])
			}
		}
	}
}

// TestAliasTableSlab: a table of 2^n outcomes is a state slab, taken
// from the free list and given back; any other length is an array of
// its own and leaves the free list alone.
func TestAliasTableSlab(t *testing.T) {
	old := debug.SetGCPercent(-1) // no cycle may age the slab between the two samples
	defer debug.SetGCPercent(old)
	rng := qmath.NewRNG(4)
	before := statevec.SlabStats()
	if _, err := SampleAlias([]float64{0.2, 0.5, 0.3}, 5000, rng); err != nil {
		t.Fatal(err)
	}
	if got := statevec.SlabStats(); got != before {
		t.Errorf("a 3-outcome table moved the free list: %+v, before %+v", got, before)
	}
	probs := make([]float64, 1<<10)
	for i := range probs {
		probs[i] = rng.Float64()
	}
	if _, err := SampleAlias(probs, 5000, rng); err != nil { // warm: the slab exists now
		t.Fatal(err)
	}
	before = statevec.SlabStats()
	if _, err := SampleAlias(probs, 5000, rng); err != nil {
		t.Fatal(err)
	}
	if got := statevec.SlabStats(); got.Hits != before.Hits+1 || got.Misses != before.Misses || got.RetainedBytes != before.RetainedBytes {
		t.Errorf("a 2^10-outcome table did not take and give back a slab: %+v, before %+v", got, before)
	}
}

// TestSamplerWorkingSet pins what the rewrite is for: the cumulative
// path allocates per shot, not per outcome, and the alias path builds
// its table and a worklist that becomes the histogram, plus, split over
// workers, one scratch array for the other chunks' histograms
// (PeakBytes is what admission charges; it must cover all of it). That
// array costs at most 8 bytes per shot drawn however many workers the
// draw is offered: aliasChunks takes no more chunks than GOMAXPROCS can
// run, and no more than c with c·(c−1)·outcomes ≤ shots.
func TestSamplerWorkingSet(t *testing.T) {
	sample := func(n, shots, w int) {
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
		if shots == 1024 && grew > 8*int64(n)/4 {
			t.Errorf("n=%d w=%d shots=%d: the cumulative path allocated %d bytes; an outcome-sized table would be %d", n, w, shots, grew, 8*n)
		}
	}
	const n = 1 << 16
	for _, w := range []int{1, 2, 4} {
		for _, shots := range []int{1024, n / 4, n/4 + 1, 2 * n, 4 * n} {
			sample(n, shots, w)
		}
	}
	// Many workers on a large table: two chunks at most, not 32.
	sample(1<<20, 1<<21, 64)

	procs := runtime.GOMAXPROCS(0)
	for _, outcomes := range []int{1, 2, 1000, 1 << 15, 1 << 22, 1 << 24} {
		for _, shots := range []int{minChunkShots - 1, minChunkShots, 3*minChunkShots + 17, 1536000, 1 << 23, 1 << 24, 98 << 20} {
			for _, w := range []int{1, 2, 4, 16, 64, 512} {
				want := 1 // the most chunks every limit allows
				for c := 2; c <= min(w, procs) && shots/c >= minChunkShots && c*(c-1)*outcomes <= shots; c++ {
					want = c
				}
				if got := aliasChunks(outcomes, shots, w); got != want {
					t.Errorf("outcomes=%d shots=%d w=%d: %d chunks, want %d", outcomes, shots, w, got, want)
				}
				if extra := PeakBytes(outcomes, shots, w) - PeakBytes(outcomes, shots, 1); extra > 8*int64(shots) {
					t.Errorf("outcomes=%d shots=%d w=%d: the other chunks are priced at %d bytes, over 8 per shot", outcomes, shots, w, extra)
				}
			}
		}
	}
}

// FuzzSampleMatchesReference drives Sample and both samplers with
// fuzzer-shaped distributions: each input byte is one outcome, with
// small values mapped to exact zeros so plateaus are common, scaled by a
// fuzzed magnitude so Σp is rarely 1.
func FuzzSampleMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 9, 200, 0, 0, 0, 31, 7, 0}, uint16(40), uint64(1), uint8(3), uint8(2))
	f.Add([]byte{255}, uint16(2000), uint64(2), uint8(0), uint8(1))
	f.Add([]byte{0, 0, 0, 1}, uint16(1), uint64(3), uint8(9), uint8(8))
	f.Add(bytes.Repeat([]byte{5, 0, 77, 0}, 64), uint16(1100), uint64(4), uint8(200), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, shots uint16, seed uint64, scale, chunks uint8) {
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
		n := int(shots) % 5000
		sameAsReference(t, "fuzz/cumulative", probs, n, seed, SampleCumulative, refSampleCumulative)
		sameAsReference(t, "fuzz/alias", probs, n, seed, SampleAlias, refSampleAlias)
		sameAsReference(t, "fuzz/sample", probs, n, seed, Sample, refSample)
		// Its shots never reach minChunkShots, so the chunk count is forced.
		sameAsReference(t, "fuzz/alias chunked", probs, n, seed, chunked(1+int(chunks%8)), refSampleAlias)
	})
}

// BenchmarkSample: the alias draw forced into 1, 2 and 4 chunks, at
// the shapes aliasChunks' rule is read from: the QCrank workload's
// (2^15 outcomes, 1 536 000 shots), a DRAM-resident table at 4, 1 and
// 1/4 shots per outcome, and a small table just past the chunk floor.
// ns/shot is the wall time per shot drawn.
func BenchmarkSample(b *testing.B) {
	for _, shape := range []struct {
		name            string
		outcomes, shots int
	}{
		{"qcrank_2p15_x1536000", 1 << 15, 1536000},
		{"dram_2p22_x2p24", 1 << 22, 1 << 24},
		{"dram_2p22_x2p22", 1 << 22, 1 << 22},
		{"dram_2p22_x2p20", 1 << 22, 1 << 20},
		{"small_2p10_x2p15", 1 << 10, 1 << 15},
		{"small_2p10_x2p17", 1 << 10, 1 << 17},
	} {
		probs := make([]float64, shape.outcomes)
		r := qmath.NewRNG(2)
		for i := range probs {
			probs[i] = r.Float64()
		}
		for _, c := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/c%d", shape.name, c), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sampleAlias(probs, shape.shots, c, qmath.NewRNG(uint64(i))); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(shape.shots), "ns/shot")
			})
		}
	}
}
