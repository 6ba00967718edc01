package observable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
)

// Content addressing for Hamiltonians. The serving layer caches
// expectation results by (circuit fingerprint, hamiltonian hash,
// option signature), so the hash must identify the *operator*, not
// one spelling of it: two Hamiltonians built in different term order,
// with factor maps populated in different iteration order, or via Add
// versus literal construction, are the same operator and must collide;
// any change to a coefficient bit pattern or a Pauli assignment is a
// different operator and must not.

// fingerprintVersion tags the canonical encoding; bump it if the term
// serialization ever changes so stale cache keys cannot alias.
const fingerprintVersion = "hamv1"

// appendKey appends the term in a spelling-independent form: the exact
// coefficient bits as 16 hex digits, then "|<qubit><factor>" pairs in
// ascending qubit order. Map iteration order therefore cannot leak into
// the encoding. qs is scratch for the qubit order, returned for reuse.
func (t Term) appendKey(dst []byte, qs []int) ([]byte, []int) {
	qs = qs[:0]
	for q := range t.Ops {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	coef := math.Float64bits(t.Coef)
	dst = append(dst, "000000000000000"[:bits.LeadingZeros64(coef|1)/4]...)
	dst = strconv.AppendUint(dst, coef, 16)
	for _, q := range qs {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(q), 10)
		dst = append(dst, t.Ops[q].String()...)
	}
	return dst, qs
}

// Fingerprint returns the canonical content hash of the Hamiltonian:
// invariant under term reordering and factor-map iteration order,
// exact in coefficients (IEEE-754 bit patterns, never a formatted
// approximation) and in every Pauli assignment. Duplicate terms are
// preserved, not merged — T + T hashes differently from 2·T, matching
// what the evaluator actually sums. The hashed text is the header
// "hamv1|n<qubits>|t<terms>\n", then every term's key and a newline in
// ascending key order; it is built in one buffer, without fmt.
func (h *Hamiltonian) Fingerprint() string {
	var (
		keys []byte
		qs   []int
		ends = make([]int, len(h.Terms))
	)
	for i, t := range h.Terms {
		keys, qs = t.appendKey(keys, qs)
		ends[i] = len(keys)
	}
	sorted := make([][]byte, len(h.Terms))
	for i, end := range ends {
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		sorted[i] = keys[start:end]
	}
	slices.SortFunc(sorted, bytes.Compare)

	text := make([]byte, 0, 64+len(keys)+len(sorted))
	text = append(text, fingerprintVersion+"|n"...)
	text = strconv.AppendInt(text, int64(h.NumQubits), 10)
	text = append(text, "|t"...)
	text = strconv.AppendInt(text, int64(len(h.Terms)), 10)
	text = append(text, '\n')
	for _, k := range sorted {
		text = append(append(text, k...), '\n')
	}
	sum := sha256.Sum256(text)
	return hex.EncodeToString(sum[:])
}
