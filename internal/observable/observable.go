// Package observable implements Pauli-string observables — the
// workload structure behind the paper's Fig. 2c large-circuit mode.
//
// A Hamiltonian is a real-weighted sum of Pauli strings. Expectation
// values are evaluated directly against the resident state vector
// (statevec.PauliEvaluator): no clone, no basis-rotation sweeps, a
// pending qubit permutation materialized once in place, only the
// affected index half enumerated per term, and one sweep over the
// state per group of terms rather than per term. Every engine — one device and
// the distributed engine's rank shards — reads terms through PauliTerms
// and finishes with Combine, so the masks and the final sum exist once.
package observable

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"qgear/internal/cancel"
	"qgear/internal/statevec"
)

// Pauli is a single-qubit Pauli factor.
type Pauli uint8

// Pauli factors (I is implied by absence).
const (
	X Pauli = iota + 1
	Y
	Z
)

func (p Pauli) String() string {
	switch p {
	case X:
		return "X"
	case Y:
		return "Y"
	case Z:
		return "Z"
	}
	return "I"
}

// Term is one weighted Pauli string, stored sparsely as qubit→factor.
type Term struct {
	Coef float64
	Ops  map[int]Pauli
}

// NewTerm builds a term from (qubit, factor) pairs.
func NewTerm(coef float64, factors map[int]Pauli) Term {
	ops := make(map[int]Pauli, len(factors))
	for q, p := range factors {
		ops[q] = p
	}
	return Term{Coef: coef, Ops: ops}
}

// String renders e.g. "0.5·Z0Z2".
func (t Term) String() string {
	if len(t.Ops) == 0 {
		return fmt.Sprintf("%g·I", t.Coef)
	}
	qs := make([]int, 0, len(t.Ops))
	for q := range t.Ops {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	var b strings.Builder
	fmt.Fprintf(&b, "%g·", t.Coef)
	for _, q := range qs {
		fmt.Fprintf(&b, "%s%d", t.Ops[q], q)
	}
	return b.String()
}

// Masks returns the term's X/Y/Z qubit bit-masks over an n-qubit
// register — the representation the direct evaluators (statevec,
// mgpu) consume. The masks are disjoint by construction (one factor
// per qubit).
func (t Term) Masks(n int) (xm, ym, zm uint64, err error) {
	for q, p := range t.Ops {
		if q < 0 || q >= n {
			return 0, 0, 0, fmt.Errorf("observable: qubit %d out of range for %d-qubit register", q, n)
		}
		bit := uint64(1) << uint(q)
		switch p {
		case X:
			xm |= bit
		case Y:
			ym |= bit
		case Z:
			zm |= bit
		default:
			return 0, 0, 0, fmt.Errorf("observable: invalid pauli factor %d on qubit %d", p, q)
		}
	}
	return xm, ym, zm, nil
}

// Expectation computes <ψ|T|ψ> directly on the resident state — no
// clone, no rotation sweeps. A pending qubit permutation is
// materialized in place first; the logical state is unchanged.
func (t Term) Expectation(s *statevec.State) (float64, error) {
	v, _, err := t.expectationOn(s.PauliEvaluator(), s.NumQubits())
	return v, err
}

// expectationOn evaluates the term alone (the one-term group),
// returning the coefficient-weighted value and the enumerated index
// count (the stride-iteration invariant the regression tests pin:
// non-identity terms visit exactly half the state).
func (t Term) expectationOn(ev *statevec.PauliEvaluator, n int) (float64, int, error) {
	xm, ym, zm, err := t.Masks(n)
	if err != nil {
		return 0, 0, err
	}
	val, visited, err := ev.ExpPauli(xm, ym, zm)
	if err != nil {
		return 0, 0, err
	}
	return t.Coef * val, visited, nil
}

// Hamiltonian is a sum of terms over NumQubits qubits.
type Hamiltonian struct {
	NumQubits int
	Terms     []Term
}

// Add appends a term.
func (h *Hamiltonian) Add(t Term) { h.Terms = append(h.Terms, t) }

// Clone returns a deep copy sharing no maps with h, so a caller
// mutating its Hamiltonian after submission cannot poison a server's
// content-addressed caches.
func (h *Hamiltonian) Clone() *Hamiltonian {
	c := &Hamiltonian{NumQubits: h.NumQubits, Terms: make([]Term, len(h.Terms))}
	for i, t := range h.Terms {
		c.Terms[i] = NewTerm(t.Coef, t.Ops)
	}
	return c
}

// maxCoefSum is the largest absolute sum of coefficients Validate
// accepts. A term's computed expectation is its coefficient times a
// Pauli sum of magnitude at most the state's squared norm, which
// rounding can leave just above 1, so ⟨H⟩ and every sweep value stay
// well inside MaxFloat64/2, and a gradient entry, half the difference
// of two of them, stays finite too.
const maxCoefSum = math.MaxFloat64 / 4

// Validate checks that every term stays inside the declared register,
// uses only X/Y/Z factors, and carries a finite coefficient (NaN or
// Inf would poison content hashes and cached sums), and that the
// coefficients' absolute sum is at most maxCoefSum, so that ⟨H⟩,
// every sweep value and every gradient entry are finite.
func (h *Hamiltonian) Validate() error {
	if h.NumQubits < 0 || h.NumQubits > 64 {
		return fmt.Errorf("observable: invalid qubit count %d", h.NumQubits)
	}
	norm := 0.0
	for i, t := range h.Terms {
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			return fmt.Errorf("observable: term %d has non-finite coefficient %v", i, t.Coef)
		}
		if _, _, _, err := t.Masks(h.NumQubits); err != nil {
			return fmt.Errorf("observable: term %d: %w", i, err)
		}
		norm += math.Abs(t.Coef)
	}
	if !(norm <= maxCoefSum) {
		return fmt.Errorf("observable: the coefficients' absolute sum %g exceeds %g", norm, maxCoefSum)
	}
	return nil
}

// String joins the terms.
func (h *Hamiltonian) String() string {
	parts := make([]string, len(h.Terms))
	for i, t := range h.Terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " + ")
}

// Expectation evaluates every term in one grouped block sweep of the
// state (statevec.PauliEvaluator.ExpPauliGroup), accumulating the
// coefficient-weighted values in term order.
func (h *Hamiltonian) Expectation(s *statevec.State) (float64, error) {
	return h.ExpectationCancel(s, nil)
}

// ExpectationCancel is Expectation with a cooperative cancellation
// flag, polled by every sweep worker once per block batch (one
// L2-sized super-block of the state, all terms). A nil flag never
// trips.
func (h *Hamiltonian) ExpectationCancel(s *statevec.State, flag *cancel.Flag) (float64, error) {
	masks, err := h.PauliTerms(s.NumQubits())
	if err != nil {
		return 0, err
	}
	vals, err := sweep(s.PauliEvaluator(), masks, flag)
	if err != nil {
		return 0, err
	}
	return h.Combine(vals), nil
}

// PauliTerms converts every term to the evaluator's mask form over an
// n-qubit register, in term order.
func (h *Hamiltonian) PauliTerms(n int) ([]statevec.PauliTerm, error) {
	masks := make([]statevec.PauliTerm, len(h.Terms))
	for i, t := range h.Terms {
		xm, ym, zm, err := t.Masks(n)
		if err != nil {
			return nil, err
		}
		masks[i] = statevec.PauliTerm{X: xm, Y: ym, Z: zm}
	}
	return masks, nil
}

// Combine weights per-term values (statevec.PauliValues, in term order)
// by their coefficients and sums them in term order: the last step of
// ⟨H⟩ on every engine.
func (h *Hamiltonian) Combine(vals []float64) float64 {
	var acc float64
	for i, t := range h.Terms {
		// The conversion rounds the product before the add on every
		// architecture, as the one-term path's return does.
		acc += float64(t.Coef * vals[i])
	}
	return acc
}

// sweep is one grouped evaluation under the flag.
func sweep(ev *statevec.PauliEvaluator, masks []statevec.PauliTerm, flag *cancel.Flag) ([]float64, error) {
	var poll func() error
	if flag != nil {
		poll = flag.Err
	}
	vals, _, err := ev.ExpPauliGroup(masks, poll)
	if err != nil {
		return nil, fmt.Errorf("observable: expectation sweep: %w", err)
	}
	return vals, nil
}

// TransverseFieldIsing builds the n-qubit TFIM chain
// H = -J Σ Z_i Z_{i+1} - g Σ X_i, a standard VQA-era benchmark
// Hamiltonian.
func TransverseFieldIsing(n int, j, g float64) *Hamiltonian {
	h := &Hamiltonian{NumQubits: n}
	for i := 0; i+1 < n; i++ {
		h.Add(NewTerm(-j, map[int]Pauli{i: Z, i + 1: Z}))
	}
	for i := 0; i < n; i++ {
		h.Add(NewTerm(-g, map[int]Pauli{i: X}))
	}
	return h
}
