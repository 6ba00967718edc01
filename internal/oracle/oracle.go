// Package oracle is the reference the simulation engines are judged
// against that is not one of them: a dense complex128 state vector on
// which every gate is applied the way a textbook writes it down — for
// each assignment of the untouched qubits, gather the 2^k amplitudes
// the gate acts on, multiply by its 2^k × 2^k matrix, scatter them
// back. One loop, Go's own complex arithmetic, no lane kernels, tiles,
// workers, permutation table or diagonal fast path: nothing it could
// share a bug with. It is test support — exponentially slower than the
// engines and meant for ≤ ~13 qubits. It imports internal/gate (the
// matrices are the definition of the gate set), internal/circuit (the
// input format Run walks) and internal/qmath (the seeded RNG Soup
// draws from) — none of them an engine — so the in-package tests of
// statevec, kernel, mgpu and backend can all hold their engine to it,
// and draw their random circuits from the one Soup.
package oracle

import (
	"fmt"
	"math"
	"math/cmplx"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/qmath"
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

// Run walks the source circuit — not a transformed kernel, whose
// transform is under test too — gate by gate from |0...0>.
func Run(c *circuit.Circuit) State {
	s := New(c.NumQubits)
	for _, op := range c.Ops {
		s.Apply(op.Gate, op.Qubits, op.Params)
	}
	return s
}

// soupPool is every gate type the engines execute, including the
// permutation-table SWAP and the diagonal family the tile compiler
// special-cases, with its parameter count.
var soupPool = []struct {
	g      gate.Type
	params int
}{
	{gate.H, 0}, {gate.X, 0}, {gate.Y, 0}, {gate.Z, 0},
	{gate.S, 0}, {gate.Sdg, 0}, {gate.T, 0}, {gate.Tdg, 0},
	{gate.RX, 1}, {gate.RY, 1}, {gate.RZ, 1}, {gate.P, 1}, {gate.U3, 3},
	{gate.CX, 0}, {gate.CZ, 0}, {gate.CP, 1}, {gate.CRY, 1}, {gate.SWAP, 0},
}

// Soup draws a random circuit of gates gates over n ≥ 2 qubits from the
// full pool: per gate the pool entry, its angles in [-π, π), then its
// operands. The draw order is fixed, so a seed names one circuit.
func Soup(n, gates int, rng *qmath.RNG) *circuit.Circuit {
	c := circuit.New(n, 0)
	c.Name = "soup"
	for i := 0; i < gates; i++ {
		sg := soupPool[rng.Intn(len(soupPool))]
		params := make([]float64, sg.params)
		for j := range params {
			params[j] = rng.Angle() - math.Pi
		}
		q0 := rng.Intn(n)
		if sg.g.Arity() == 2 {
			q1 := rng.Intn(n - 1)
			if q1 >= q0 {
				q1++
			}
			c.Append(sg.g, []int{q0, q1}, params)
		} else {
			c.Append(sg.g, []int{q0}, params)
		}
	}
	return c
}

// BasisSoup is Soup after a basis prefix: X on every qubit whose bit of
// xs is set (bits at or above n are ignored), then a CX from each of
// them to the next qubit up, cyclically — flips and known controls in
// front of the soup, on any qubit, the rank bits of a distributed
// engine included. xs = 0 draws Soup's circuit itself.
func BasisSoup(n, gates int, xs uint64, rng *qmath.RNG) *circuit.Circuit {
	c := circuit.New(n, 0)
	for q := 0; q < n; q++ {
		if xs>>uint(q)&1 == 1 {
			c.X(q)
		}
	}
	for q := 0; q < n; q++ {
		if xs>>uint(q)&1 == 1 {
			c.CX(q, (q+1)%n)
		}
	}
	soup := Soup(n, gates, rng)
	c.Name, c.Ops = soup.Name, append(c.Ops, soup.Ops...)
	return c
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
