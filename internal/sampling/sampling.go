// Package sampling draws measurement shots from a state-vector
// probability distribution — the "sampling shots from this unitary"
// half of the paper's QCrank runtime budget (§3), which for large
// images rivals the unitary computation itself.
//
// Two samplers are provided: a cumulative-distribution binary-search
// sampler (simple, O(log N) per shot) and an alias-table sampler (O(1)
// per shot after O(N) setup), the right tool for the paper's 3M–98M
// shot QCrank runs. Both are deterministic given an RNG.
package sampling

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

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
// distinct outcome.
func SampleCumulative(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	if shots < 0 {
		return nil, fmt.Errorf("sampling: negative shots %d", shots)
	}
	total, err := sum(probs)
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
	// (where a NaN draw, being below no entry, ends up as well).
	i, cum := 0, probs[0]
	for s := 0; s < shots; {
		for x := xs[s]; i < last && (!(cum >= x) || probs[i] == 0); {
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

// sum validates a distribution and returns its sequential total.
func sum(probs []float64) (float64, error) {
	var total float64
	for i, p := range probs {
		if p < 0 {
			return 0, fmt.Errorf("sampling: negative probability at %d", i)
		}
		total += p
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
	return sum(probs)
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

// SampleAlias draws shots with an alias table and allocates little but
// the Counts it returns. The table is 16 bytes per outcome, a whole
// state slab for 2^n outcomes: it is taken from the slab free list —
// after a run, the slab the run's state just released — and given back
// once the shots are drawn. The worklist is dead once the table is
// built and becomes the dense histogram (no hash per shot) that turns
// into a presized Counts once.
func SampleAlias(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	if shots < 0 {
		return nil, fmt.Errorf("sampling: negative shots %d", shots)
	}
	total, err := aliasTotal(probs)
	if err != nil {
		return nil, err
	}
	t := AliasTable{cols: tableCols(len(probs))}
	hist := make([]int, len(probs))
	t.build(probs, total, hist)
	clear(hist)
	distinct := 0
	for s := 0; s < shots; s++ {
		i := t.Draw(rng)
		if hist[i] == 0 {
			distinct++
		}
		hist[i]++
	}
	statevec.PutSlab(t.cols)
	counts := make(Counts, distinct)
	for i, c := range hist {
		if c > 0 {
			counts[uint64(i)] = c
		}
	}
	return counts, nil
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

// PeakBytes bounds what Sample allocates, working set and returned
// Counts together: admission control's price of a job's shots. A Counts
// entry is a map slot and its share of an at-worst half-empty bucket
// array, 64 bytes; grown by insertion it costs that twice, for the
// arrays growth left behind.
func PeakBytes(outcomes, shots int) int64 {
	distinct := int64(max(0, min(outcomes, shots)))
	if usesAlias(outcomes, shots) {
		// The table (a state slab when it hits the free list) and the
		// worklist that becomes the histogram; a presized Counts.
		return 24*int64(outcomes) + 64*distinct
	}
	return (8 + 128) * distinct // a sorted draw and a grown Counts entry per shot
}

// Sample picks the faster sampler for the workload.
func Sample(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	if usesAlias(len(probs), shots) {
		return SampleAlias(probs, shots, rng)
	}
	return SampleCumulative(probs, shots, rng)
}
