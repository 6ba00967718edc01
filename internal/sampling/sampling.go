// Package sampling draws measurement shots from a state-vector
// probability distribution — the "sampling shots from this unitary"
// half of the paper's QCrank runtime budget (§3), which for large
// images rivals the unitary computation itself.
//
// Two samplers are provided: a cumulative-distribution sampler
// (simple, O(log N) per shot) and an alias-table sampler (O(1) per shot
// after O(N) setup), the right tool for the paper's 3M–98M shot QCrank
// runs. Both are deterministic given an RNG.
//
// The serial draw is the reference: shot s of an alias draw reads
// outputs 2s and 2s+1 of the RNG's stream. SampleParallel splits a large
// alias draw into contiguous shot ranges on several workers; each
// starts from a copy of the generator jumped (qmath.RNG.Jump) to its
// range's first output and counts into a histogram of its own. The
// histograms sum to the serial draw's, bit for bit at every worker
// count, since integer sums do not depend on their order, and the
// caller's RNG ends where the serial loop leaves it.
package sampling

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// Counts maps basis-state index to observed shot count.
type Counts map[uint64]int

// Total returns the number of shots recorded.
func (c Counts) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// TopK returns the k most frequent outcomes in descending count order
// (ties broken by index for determinism); none for k ≤ 0.
func (c Counts) TopK(k int) []uint64 {
	keys := make([]uint64, 0, len(c))
	for key := range c {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if c[keys[i]] != c[keys[j]] {
			return c[keys[i]] > c[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys[:max(0, min(k, len(keys)))]
}

// Bitstring renders basis index i as an n-character bitstring with
// qubit 0 rightmost (Qiskit little-endian display convention).
func Bitstring(i uint64, n int) string {
	var buf [64]byte // every index fits; the string conversion is the one allocation
	return string(AppendBitstring(buf[:0], i, n))
}

// AppendBitstring appends Bitstring(i, n) to dst, for callers rendering
// many outcomes into one buffer.
func AppendBitstring(dst []byte, i uint64, n int) []byte {
	for q := n - 1; q >= 0; q-- {
		dst = append(dst, '0'+byte(i>>uint(q)&1))
	}
	return dst
}

// String renders counts sorted by frequency, e.g. `{"00": 512, "11": 488}`.
func (c Counts) String() string {
	keys := c.TopK(len(c))
	n := 1
	for _, k := range keys {
		for k >= 1<<uint(n) {
			n++
		}
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%q: %d", Bitstring(k, n), c[k])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Marginal reduces counts to the listed qubits: output bit j of each
// key is input bit qubits[j]. QCrank's decoder uses this to split shots
// into (address, data) parts.
func (c Counts) Marginal(qubits []int) Counts {
	out := make(Counts, len(c))
	for key, n := range c {
		var m uint64
		for j, q := range qubits {
			m |= (key >> uint(q) & 1) << uint(j)
		}
		out[m] += n
	}
	return out
}

// SampleCumulative draws shots by inverting the cumulative distribution
// of probs: a shot lands on the first outcome whose running sum reaches
// its uniform draw. probs must be non-negative; it is normalized
// internally so small fp drift in Σp is tolerated.
//
// No cumulative table is built: the draws are taken in RNG order,
// sorted, and placed by one merge pass over probs carrying the running
// sum the table would hold — the counts of a binary search of that table
// per shot, bit for bit, for 8 bytes per shot and one map insert per
// distinct outcome. The pass that totals probs keeps the running sum at
// the end of every block of 2^ckBits outcomes (scratch off the state
// slab free list's table side), and the merge steps over every block
// whose sum is below the current draw instead of through it.
func SampleCumulative(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	if shots < 0 {
		return nil, fmt.Errorf("sampling: negative shots %d", shots)
	}
	var ck []float64
	if blocks := (len(probs) - 1) >> ckBits; blocks > 0 {
		ck = statevec.TakeScratch(bits.Len(uint(blocks - 1)))[:blocks]
		defer statevec.PutScratch(ck)
	}
	total, err := sum(probs, ck)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, shots)
	for s := range xs {
		xs[s] = rng.Float64() * total
	}
	slices.Sort(xs)

	counts := make(Counts)
	last := len(probs) - 1
	// i is the outcome the previous draw landed on, cum the table's entry
	// for it. Draws ascend and the table never descends, so each search
	// resumes here: on to the first i with cum ≥ x, past a zero-probability
	// plateau aliasing onto that boundary, never past the last outcome
	// (where a NaN draw, being below no entry, ends up as well). A block
	// whose checkpoint is below x (a NaN one never is) holds no entry at
	// or above x, so the search would step through all of it.
	i, cum := 0, probs[0]
	for s := 0; s < shots; {
		for x := xs[s]; i < last && (!(cum >= x) || probs[i] == 0); {
			if b := i >> ckBits; b < len(ck) && ck[b] < x {
				i = (b + 1) << ckBits
				cum = ck[b] + probs[i]
				continue
			}
			i++
			cum += probs[i]
		}
		run := s
		for s++; s < shots && xs[s] <= cum; s++ {
		}
		counts[uint64(i)] += s - run
	}
	return counts, nil
}

// ckBits is log2 of the outcomes between two of SampleCumulative's
// checkpoints: a block is 64 outcomes, one 512-byte stretch of probs.
const ckBits = 6

// sum validates a distribution and returns its sequential total. It
// stores the running total after outcome 2^ckBits·(b+1) − 1 in ck[b], for
// every b ck holds: the blocks that end before the last outcome.
func sum(probs, ck []float64) (float64, error) {
	var total float64
	for i, p := range probs {
		if p < 0 {
			return 0, fmt.Errorf("sampling: negative probability at %d", i)
		}
		total += p
		if b := i >> ckBits; i&(1<<ckBits-1) == 1<<ckBits-1 && b < len(ck) {
			ck[b] = total
		}
	}
	if total <= 0 {
		return 0, fmt.Errorf("sampling: zero total probability")
	}
	return total, nil
}

// AliasTable is a Walker alias table for O(1) categorical sampling. An
// outcome's column is one 16-byte entry — the probability of keeping
// the outcome in the real part, its alias index in the imaginary part
// (an index below 2^53 is exact in a float64) — so a draw reads one
// entry, one cache line however far the table outgrows the cache.
type AliasTable struct {
	cols []complex128
}

// NewAliasTable builds the table in O(N) and one N-length worklist.
func NewAliasTable(probs []float64) (*AliasTable, error) {
	total, err := aliasTotal(probs)
	if err != nil {
		return nil, err
	}
	t := &AliasTable{cols: make([]complex128, len(probs))}
	t.build(probs, total, make([]int, len(probs)))
	return t, nil
}

// aliasTotal validates a distribution an alias table can be built over.
func aliasTotal(probs []float64) (float64, error) {
	if len(probs) == 0 {
		return 0, fmt.Errorf("sampling: empty distribution")
	}
	return sum(probs, nil)
}

// build fills t's columns from probs, whose sum is total. The scaled
// probabilities settle in place into the real parts, and the small and
// large worklists are two stacks growing from the two ends of work (an
// outcome is on exactly one of them until it is paired).
func (t *AliasTable) build(probs []float64, total float64, work []int) {
	cols := t.cols
	n := len(cols)
	small, large := 0, n // the stacks are work[:small] and work[large:]
	push := func(i int) {
		if real(cols[i]) < 1 {
			work[small] = i
			small++
		} else {
			large--
			work[large] = i
		}
	}
	for i, p := range probs {
		cols[i] = complex(p/total*float64(n), 0)
		push(i)
	}
	for small > 0 && large < n {
		small--
		s, l := work[small], work[large]
		large++
		cols[s] = complex(real(cols[s]), float64(l))
		cols[l] = complex(real(cols[l])-(1-real(cols[s])), 0)
		push(l)
	}
	// One stack is empty now; the other's outcomes keep whole columns.
	for _, i := range append(work[:small], work[large:]...) {
		cols[i] = complex(1, float64(i))
	}
}

// Draw returns one sample.
func (t *AliasTable) Draw(rng *qmath.RNG) uint64 {
	i := rng.Intn(len(t.cols))
	col := t.cols[i]
	if rng.Float64() < real(col) {
		return uint64(i)
	}
	return uint64(imag(col))
}

// SampleAlias draws shots with an alias table, on the caller, and
// allocates little but the Counts it returns. The table is 16 bytes
// per outcome, a whole state slab for 2^n outcomes: it is taken from
// the slab free list — after a run, the slab the run's state just
// released — and given back once the shots are drawn. The worklist is
// dead once the table is built and becomes the dense histogram (no hash
// per shot) that turns into a presized Counts once. It is the
// one-worker case of SampleParallel's draw.
func SampleAlias(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	return sampleAlias(probs, shots, 1, rng)
}

// minChunkShots is the fewest shots a chunk of a parallel alias draw
// takes. BenchmarkSample's small_2p10 rows (two cores) put the split's
// gain at a quarter of the draw with 2^14 shots a chunk and near a third
// with 2^16: a chunk's fixed cost is 0.1–0.15 ms there, of which its
// jump is 4–7 µs (BenchmarkJump), against 7–10 ns a shot.
const minChunkShots = 1 << 16

// aliasChunks is how many chunks SampleParallel draws shots in: one per
// worker, but no more than GOMAXPROCS can run at once, each of at least
// minChunkShots shots, and few enough that c chunks keep
// c·(c−1)·outcomes ≤ shots. Every chunk past the first counts into an
// outcome-sized histogram, zeroed and summed on the caller; the last
// rule holds those (c−1)·outcomes entries to the shots one chunk draws.
// So that scratch is at most 8 bytes per shot of a chunk (16 after its
// power-of-two rounding), and its serial zeroing and merge, about a
// nanosecond an entry, stays a small share of a chunk's draw (7–12 ns
// a shot for a table in cache, over 100 for one in DRAM), however many
// workers the run has. The rule is conservative: BenchmarkSample's
// dram_2p22 rows (two cores) show two chunks still paying at half a
// shot per outcome each, and at most a tenth at an eighth.
func aliasChunks(outcomes, shots, workers int) int {
	c := max(1, min(workers, runtime.GOMAXPROCS(0), shots/minChunkShots))
	for c > 1 && (c-1)*outcomes > shots/c {
		c--
	}
	return c
}

// sampleAlias is the alias draw in at most chunks contiguous shot
// ranges, one per statevec.ParallelFor index. The first range counts into
// the worklist, every other into its own stretch of one scratch array
// off the free list's table side, summed into the worklist afterwards.
// Range [lo, hi) draws on a copy of rng jumped by 2·lo outputs (each
// shot reads two) held in a local value, and the last range's end state
// is rng's: where the serial loop leaves it.
func sampleAlias(probs []float64, shots, chunks int, rng *qmath.RNG) (Counts, error) {
	if shots < 0 {
		return nil, fmt.Errorf("sampling: negative shots %d", shots)
	}
	total, err := aliasTotal(probs)
	if err != nil {
		return nil, err
	}
	n := len(probs)
	t := AliasTable{cols: tableCols(n)}
	size := (shots + chunks - 1) / max(1, chunks) // shots per range
	more := 0                                     // the ranges after the first
	var scratch []float64
	if chunks > 1 && shots > size {
		// Taken before the worklist is allocated, like the table: a GC
		// cycle that allocation starts cannot age it off the list.
		more = (shots+size-1)/size - 1
		scratch = statevec.TakeScratch(bits.Len(uint(more*n - 1)))
	}
	hist := make([]int, n)
	t.build(probs, total, hist)
	clear(hist)
	if more == 0 {
		*rng = drawInto(t.cols, hist, *rng, shots)
	} else {
		hists := unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(scratch))), more*n) // an int is at most 8 bytes
		start, cols := *rng, t.cols
		statevec.ParallelFor(more+1, more+1, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				h := hist
				if c > 0 {
					h = hists[(c-1)*n : c*n]
				}
				from, to := c*size, min((c+1)*size, shots)
				r := start
				r.Jump(2 * uint64(from))
				if r = drawInto(cols, h, r, to-from); to == shots {
					*rng = r
				}
			}
		})
		for c := 0; c < more; c++ {
			for i, v := range hists[c*n : (c+1)*n] {
				hist[i] += v
			}
		}
		statevec.PutScratch(scratch)
	}
	statevec.PutSlab(t.cols)
	distinct := 0
	for _, c := range hist {
		if c > 0 {
			distinct++
		}
	}
	counts := make(Counts, distinct)
	for i, c := range hist {
		if c > 0 {
			counts[uint64(i)] = c
		}
	}
	return counts, nil
}

// drawInto draws shots from the table cols on r, counting each outcome
// in hist, and returns r's end state. Shot by shot it is Draw, bit for
// bit, with Draw's calls taken out of the loop: r's outputs come a
// block at a time (Fill), Intn's remainder is a mask for 2^k
// outcomes — every state vector's — and the choice between a column's
// outcome and its alias is a mask too: a branch on it is a coin flip the
// predictor misses about half the time (a third of the draw's time on
// BenchmarkSample's qcrank shape).
func drawInto(cols []complex128, hist []int, r qmath.RNG, shots int) qmath.RNG {
	var buf [512]uint64 // 256 shots' outputs
	n := uint64(len(cols))
	mask, pow2 := n-1, n&(n-1) == 0
	for shots > 0 {
		out := buf[:2*min(shots, len(buf)/2)]
		r.Fill(out)
		for j := 0; j < len(out); j += 2 {
			i := out[j] & mask
			if !pow2 {
				i = out[j] % n
			}
			col := cols[i]
			alias := uint64(int64(imag(col))) // below 2^53: exact either way
			var keep uint64
			if qmath.UnitFloat(out[j+1]) < real(col) {
				keep = 1
			}
			i = alias ^ (i^alias)&-keep
			hist[i]++
		}
		shots -= len(out) / 2
	}
	return r
}

// tableCols returns n zeroed table columns: a slab off the state free
// list when n is one (2^k outcomes, k ≤ statevec.MaxQubits), and a
// fresh array the free list will not take back otherwise.
func tableCols(n int) []complex128 {
	if k := bits.Len(uint(n)) - 1; n == 1<<k && k <= statevec.MaxQubits {
		return statevec.TakeSlab(k)
	}
	return make([]complex128, n)
}

// usesAlias is Sample's choice: the alias table when the shots amortize
// its O(N) build — then shots > N/4, so the dense histogram is under 32
// bytes per shot — and the cumulative merge otherwise.
func usesAlias(outcomes, shots int) bool {
	return shots > outcomes/4 && shots > 1024
}

// PeakBytes bounds what SampleParallel allocates on workers, working
// set and returned Counts together: admission control's price of a
// job's shots. A Counts entry is a map slot and its share of an
// at-worst half-empty bucket array, 64 bytes; grown by insertion it
// costs that twice, for the arrays growth left behind.
func PeakBytes(outcomes, shots, workers int) int64 {
	distinct := int64(max(0, min(outcomes, shots)))
	if usesAlias(outcomes, shots) {
		// The table (a state slab when it hits the free list) and the
		// worklist that becomes the histogram; a presized Counts; past
		// one chunk, the other chunks' histograms, one power-of-two
		// scratch array when the scratch list has none to hand.
		b := 24*int64(outcomes) + 64*distinct
		if more := aliasChunks(outcomes, shots, workers) - 1; more > 0 {
			b += 8 << uint(bits.Len(uint(more*outcomes-1)))
		}
		return b
	}
	// A sorted draw and a grown Counts entry per shot; the checkpoints,
	// a power of two of them, when the scratch list has none to hand.
	return (8+128)*distinct + 16*int64(max(0, outcomes-1)>>ckBits)
}

// Sample picks the faster sampler for the workload, on the caller.
func Sample(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	return SampleParallel(probs, shots, 1, rng)
}

// SampleParallel is Sample on up to workers goroutines: a large alias
// draw is split into as many chunks as aliasChunks allows, with the
// serial draw's counts and end state (see the package doc). The
// cumulative path stays on the caller.
func SampleParallel(probs []float64, shots, workers int, rng *qmath.RNG) (Counts, error) {
	if usesAlias(len(probs), shots) {
		return sampleAlias(probs, shots, aliasChunks(len(probs), shots, workers), rng)
	}
	return SampleCumulative(probs, shots, rng)
}
