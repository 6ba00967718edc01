// Package oracle is the reference the simulation engines are judged
// against that is not one of them: a dense complex128 state vector on
// which every gate is applied the way a textbook writes it down — for
// each assignment of the untouched qubits, gather the 2^k amplitudes
// the gate acts on, multiply by its 2^k × 2^k matrix, scatter them
// back. One loop, Go's own complex arithmetic, no lane kernels, tiles,
// workers, permutation table or diagonal fast path: nothing it could
// share a bug with. It is test support — exponentially slower than the
// engines and meant for ≤ ~12 qubits — and imports only internal/gate
// (the matrices are the definition of the gate set, not an engine), so
// the in-package tests of statevec, kernel, mgpu and backend can all
// hold their engine to it.
package oracle

import (
	"fmt"
	"math/cmplx"

	"qgear/internal/gate"
)

// State is the amplitude vector of an n-qubit register, index bit q
// being qubit q (the engines' convention, so probabilities compare
// entry for entry).
type State []complex128

// New returns |0...0> on n qubits.
func New(n int) State {
	s := make(State, 1<<uint(n))
	s[0] = 1
	return s
}

// Apply applies one gate of the circuit gate set. Measure, Barrier and
// the identity leave the state alone, as they do in every engine
// (sampling is the caller's business).
func (s State) Apply(g gate.Type, qubits []int, params []float64) {
	switch {
	case !g.IsUnitary() || g == gate.I:
	case g.Arity() == 1:
		m := gate.Matrix1(g, params)
		s.ApplyMatrix(qubits, m[:])
	case g.Arity() == 2:
		// Matrix2 indexes rows and columns by (bit(qubits[0])<<1)|bit(qubits[1]).
		m := gate.Matrix2(g, params)
		s.ApplyMatrix([]int{qubits[1], qubits[0]}, m[:])
	default:
		panic(fmt.Sprintf("oracle: no matrix for %v", g))
	}
}

// ApplyMatrix applies a dense row-major 2^k × 2^k matrix to the k
// listed qubits, qubits[j] carrying bit j of the matrix index.
func (s State) ApplyMatrix(qubits []int, m []complex128) {
	dim := 1 << uint(len(qubits))
	if len(m) != dim*dim {
		panic(fmt.Sprintf("oracle: %d-qubit matrix has %d entries", len(qubits), len(m)))
	}
	var touched int
	for _, q := range qubits {
		if q < 0 || 1<<uint(q) >= len(s) || touched>>uint(q)&1 == 1 {
			panic(fmt.Sprintf("oracle: bad operands %v", qubits))
		}
		touched |= 1 << uint(q)
	}
	idx := make([]int, dim)
	in := make([]complex128, dim)
	for base := range s {
		if base&touched != 0 {
			continue // visit each group once, from its all-zeros member
		}
		for v := range idx {
			i := base
			for j, q := range qubits {
				i |= (v >> uint(j) & 1) << uint(q)
			}
			idx[v], in[v] = i, s[i]
		}
		for r := 0; r < dim; r++ {
			var acc complex128
			for c := 0; c < dim; c++ {
				acc += m[r*dim+c] * in[c]
			}
			s[idx[r]] = acc
		}
	}
}

// Probabilities returns |αi|² for every basis state.
func (s State) Probabilities() []float64 {
	p := make([]float64, len(s))
	for i, a := range s {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// PauliTerm is one weighted Pauli string: each listed qubit carries
// gate.X, gate.Y or gate.Z.
type PauliTerm struct {
	Coef float64
	Ops  map[int]gate.Type
}

// Expectation returns ⟨ψ|H|ψ⟩ for H = Σ coef·P over the terms: each
// string is applied to a copy of the state one factor at a time, then
// the inner product with the state is taken.
func (s State) Expectation(h []PauliTerm) float64 {
	var total complex128
	p := make(State, len(s))
	for _, t := range h {
		copy(p, s)
		for q, g := range t.Ops {
			p.Apply(g, []int{q}, nil)
		}
		var ip complex128
		for i, a := range s {
			ip += cmplx.Conj(a) * p[i]
		}
		total += complex(t.Coef, 0) * ip
	}
	return real(total)
}
