// Package circuit implements the "object based" circuit layer of the
// paper (Fig. 2b, left side): a Qiskit-like builder API over a list of
// gate operations. Q-GEAR's job is to take these high-level objects and
// transform them into kernel-based representations (internal/kernel),
// so this package deliberately mirrors the Qiskit surface the paper's
// listings use (qc.h(0), qc.cx(0, i), qc.measure_all()).
package circuit

import (
	"fmt"
	"strings"

	"qgear/internal/gate"
)

// Op is a single circuit operation: a gate type, its qubit operands
// (for controlled gates, Qubits[0] is the control and Qubits[1] the
// target), real parameters, and — for measurements — the classical bit
// receiving the result.
type Op struct {
	Gate   gate.Type
	Qubits []int
	Params []float64
	Clbit  int // destination classical bit for Measure ops
}

// Circuit is an ordered list of operations over NumQubits qubits and
// NumClbits classical bits.
type Circuit struct {
	Name      string
	NumQubits int
	NumClbits int
	Ops       []Op
}

// New returns an empty circuit with nq qubits and nc classical bits.
func New(nq, nc int) *Circuit {
	if nq < 0 || nc < 0 {
		panic("circuit: negative register size")
	}
	return &Circuit{NumQubits: nq, NumClbits: nc}
}

// Carve copies src onto the end of *arena and returns the copy,
// capacity-clipped so that an append to it can never reach its
// neighbour; an empty src yields nil. A program's operand lists carved
// from one arena sized up front cost one allocation instead of one per
// op.
func Carve[T any](arena *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	*arena = append(*arena, src...)
	n := len(*arena)
	return (*arena)[n-len(src) : n : n]
}

// Copy returns a deep copy of the circuit.
func (c *Circuit) Copy() *Circuit {
	out := &Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	out.Ops = make([]Op, len(c.Ops))
	nq, np := 0, 0
	for _, op := range c.Ops {
		nq += len(op.Qubits)
		np += len(op.Params)
	}
	qubits := make([]int, 0, nq)
	params := make([]float64, 0, np)
	for i, op := range c.Ops {
		out.Ops[i] = Op{
			Gate:   op.Gate,
			Qubits: Carve(&qubits, op.Qubits),
			Params: Carve(&params, op.Params),
			Clbit:  op.Clbit,
		}
	}
	return out
}

func (c *Circuit) checkQubit(q int) {
	if q < 0 || q >= c.NumQubits {
		panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", q, c.NumQubits))
	}
}

// Append adds a validated operation.
func (c *Circuit) Append(g gate.Type, qubits []int, params []float64) *Circuit {
	if !g.Valid() {
		panic(fmt.Sprintf("circuit: invalid gate %v", g))
	}
	if g != gate.Barrier && len(qubits) != g.Arity() {
		panic(fmt.Sprintf("circuit: %v wants %d qubits, got %d", g, g.Arity(), len(qubits)))
	}
	if len(params) != g.ParamCount() {
		panic(fmt.Sprintf("circuit: %v wants %d params, got %d", g, g.ParamCount(), len(params)))
	}
	for _, q := range qubits {
		c.checkQubit(q)
	}
	if len(qubits) == 2 && qubits[0] == qubits[1] {
		panic(fmt.Sprintf("circuit: %v with identical operands %d", g, qubits[0]))
	}
	c.Ops = append(c.Ops, Op{Gate: g, Qubits: append([]int(nil), qubits...), Params: append([]float64(nil), params...)})
	return c
}

// H appends a Hadamard gate.
func (c *Circuit) H(q int) *Circuit { return c.Append(gate.H, []int{q}, nil) }

// X appends a Pauli-X gate.
func (c *Circuit) X(q int) *Circuit { return c.Append(gate.X, []int{q}, nil) }

// Y appends a Pauli-Y gate.
func (c *Circuit) Y(q int) *Circuit { return c.Append(gate.Y, []int{q}, nil) }

// Z appends a Pauli-Z gate.
func (c *Circuit) Z(q int) *Circuit { return c.Append(gate.Z, []int{q}, nil) }

// S appends an S gate.
func (c *Circuit) S(q int) *Circuit { return c.Append(gate.S, []int{q}, nil) }

// T appends a T gate.
func (c *Circuit) T(q int) *Circuit { return c.Append(gate.T, []int{q}, nil) }

// RX appends an X-rotation by theta.
func (c *Circuit) RX(theta float64, q int) *Circuit {
	return c.Append(gate.RX, []int{q}, []float64{theta})
}

// RY appends a Y-rotation by theta.
func (c *Circuit) RY(theta float64, q int) *Circuit {
	return c.Append(gate.RY, []int{q}, []float64{theta})
}

// RZ appends a Z-rotation by theta.
func (c *Circuit) RZ(theta float64, q int) *Circuit {
	return c.Append(gate.RZ, []int{q}, []float64{theta})
}

// P appends a phase gate diag(1, e^{iλ}).
func (c *Circuit) P(lambda float64, q int) *Circuit {
	return c.Append(gate.P, []int{q}, []float64{lambda})
}

// U3 appends a generic single-qubit rotation.
func (c *Circuit) U3(theta, phi, lambda float64, q int) *Circuit {
	return c.Append(gate.U3, []int{q}, []float64{theta, phi, lambda})
}

// CX appends a controlled-X with control ctrl and target tgt.
func (c *Circuit) CX(ctrl, tgt int) *Circuit { return c.Append(gate.CX, []int{ctrl, tgt}, nil) }

// CZ appends a controlled-Z.
func (c *Circuit) CZ(ctrl, tgt int) *Circuit { return c.Append(gate.CZ, []int{ctrl, tgt}, nil) }

// CP appends the controlled phase rotation cr1(λ) of Eq. (9).
func (c *Circuit) CP(lambda float64, ctrl, tgt int) *Circuit {
	return c.Append(gate.CP, []int{ctrl, tgt}, []float64{lambda})
}

// CRY appends a controlled Y-rotation.
func (c *Circuit) CRY(theta float64, ctrl, tgt int) *Circuit {
	return c.Append(gate.CRY, []int{ctrl, tgt}, []float64{theta})
}

// SWAP appends a swap gate.
func (c *Circuit) SWAP(a, b int) *Circuit { return c.Append(gate.SWAP, []int{a, b}, nil) }

// Barrier appends a full-register barrier (a depth synchronization
// marker, like the dashed columns in Fig. 2a).
func (c *Circuit) Barrier() *Circuit {
	c.Ops = append(c.Ops, Op{Gate: gate.Barrier})
	return c
}

// Measure appends a measurement of qubit q into classical bit cb.
func (c *Circuit) Measure(q, cb int) *Circuit {
	c.checkQubit(q)
	if cb < 0 || cb >= c.NumClbits {
		panic(fmt.Sprintf("circuit: clbit %d out of range [0,%d)", cb, c.NumClbits))
	}
	c.Ops = append(c.Ops, Op{Gate: gate.Measure, Qubits: []int{q}, Clbit: cb})
	return c
}

// MeasureAll measures qubit i into classical bit i for every qubit,
// growing the classical register if needed (Qiskit's measure_all).
func (c *Circuit) MeasureAll() *Circuit {
	if c.NumClbits < c.NumQubits {
		c.NumClbits = c.NumQubits
	}
	for q := 0; q < c.NumQubits; q++ {
		c.Measure(q, q)
	}
	return c
}

// Validate checks a circuit that was built outside the panic-guarded
// builder (e.g. loaded from a QPY file) and returns the first
// inconsistency found.
func (c *Circuit) Validate() error {
	if c.NumQubits < 0 || c.NumClbits < 0 {
		return fmt.Errorf("circuit %q: negative register size", c.Name)
	}
	for i, op := range c.Ops {
		if !op.Gate.Valid() {
			return fmt.Errorf("circuit %q op %d: invalid gate %d", c.Name, i, uint8(op.Gate))
		}
		if op.Gate != gate.Barrier && len(op.Qubits) != op.Gate.Arity() {
			return fmt.Errorf("circuit %q op %d: %v wants %d qubits, has %d",
				c.Name, i, op.Gate, op.Gate.Arity(), len(op.Qubits))
		}
		if len(op.Params) != op.Gate.ParamCount() {
			return fmt.Errorf("circuit %q op %d: %v wants %d params, has %d",
				c.Name, i, op.Gate, op.Gate.ParamCount(), len(op.Params))
		}
		for _, q := range op.Qubits {
			if q < 0 || q >= c.NumQubits {
				return fmt.Errorf("circuit %q op %d: qubit %d out of range", c.Name, i, q)
			}
		}
		if len(op.Qubits) == 2 && op.Qubits[0] == op.Qubits[1] {
			return fmt.Errorf("circuit %q op %d: duplicate operand %d", c.Name, i, op.Qubits[0])
		}
		if op.Gate == gate.Measure && (op.Clbit < 0 || op.Clbit >= c.NumClbits) {
			return fmt.Errorf("circuit %q op %d: clbit %d out of range", c.Name, i, op.Clbit)
		}
	}
	return nil
}

// String renders the circuit as one op per line, e.g. "cx q1, q3".
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %q: %d qubits, %d clbits, %d ops\n", c.Name, c.NumQubits, c.NumClbits, len(c.Ops))
	for _, op := range c.Ops {
		b.WriteString("  ")
		b.WriteString(op.Gate.String())
		if len(op.Params) > 0 {
			b.WriteString("(")
			for i, p := range op.Params {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%.6g", p)
			}
			b.WriteString(")")
		}
		for i, q := range op.Qubits {
			if i == 0 {
				b.WriteString(" ")
			} else {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "q%d", q)
		}
		if op.Gate == gate.Measure {
			fmt.Fprintf(&b, " -> c%d", op.Clbit)
		}
		b.WriteString("\n")
	}
	return b.String()
}
