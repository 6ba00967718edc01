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
	"sort"
	"strings"

	"qgear/internal/qmath"
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
// (ties broken by index for determinism).
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
	if k > len(keys) {
		k = len(keys)
	}
	return keys[:k]
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

// SampleCumulative draws shots by binary search over the cumulative
// distribution of probs. probs must be non-negative; it is normalized
// internally so small fp drift in Σp is tolerated.
func SampleCumulative(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
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

// AliasTable is a Walker alias table for O(1) categorical sampling.
type AliasTable struct {
	prob  []float64
	alias []int
}

// NewAliasTable builds the table in O(N).
func NewAliasTable(probs []float64) (*AliasTable, error) {
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
	t := &AliasTable{prob: make([]float64, n), alias: make([]int, n)}
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

// Draw returns one sample.
func (t *AliasTable) Draw(rng *qmath.RNG) uint64 {
	i := rng.Intn(len(t.prob))
	if rng.Float64() < t.prob[i] {
		return uint64(i)
	}
	return uint64(t.alias[i])
}

// SampleAlias draws shots with an alias table.
func SampleAlias(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	if shots < 0 {
		return nil, fmt.Errorf("sampling: negative shots %d", shots)
	}
	t, err := NewAliasTable(probs)
	if err != nil {
		return nil, err
	}
	counts := make(Counts)
	for s := 0; s < shots; s++ {
		counts[t.Draw(rng)]++
	}
	return counts, nil
}

// Sample picks the faster sampler for the workload: alias for shot
// counts that amortize the table build, cumulative otherwise.
func Sample(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	if shots > len(probs)/4 && shots > 1024 {
		return SampleAlias(probs, shots, rng)
	}
	return SampleCumulative(probs, shots, rng)
}
