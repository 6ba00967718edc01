// Package kernel implements the "kernel based" side of the paper's
// Fig. 2b: a CUDA-Q-like kernel intermediate representation, the
// builder API that mirrors cudaq.kernel programs (h(qr[0]),
// x.ctrl(qr[0], qr[i]), mz(qr)), and the Q-GEAR transformation that
// converts object-based circuits into kernels gate-by-gate in constant
// time per gate (§2.2), with the small-angle approximation option of
// Appendix D.2. The paper's other option there, gate fusion, is what a
// compiled tile run already does exactly: one cache-resident pass per
// run of gates (TilePlan).
package kernel

import (
	"fmt"
	"strings"

	"qgear/internal/gate"
)

// InstrKind discriminates kernel instructions.
type InstrKind uint8

const (
	// KGate is a primitive gate instruction.
	KGate InstrKind = iota
	// 1 was a dense fused block; the decoder refuses it.
	_
	// KMeasure measures one qubit into a classical slot.
	KMeasure
	// KBarrier is a scheduling barrier.
	KBarrier
)

// Instr is one kernel instruction.
type Instr struct {
	Kind   InstrKind
	Gate   gate.Type // for KGate
	Qubits []int
	Params []float64
	Clbit  int // for KMeasure
}

// Kernel is a flat instruction stream over a qvector of NumQubits
// qubits — the GPU-executable form Q-GEAR targets.
type Kernel struct {
	Name      string
	NumQubits int
	NumClbits int
	Instrs    []Instr
}

// New returns an empty kernel over nq qubits (the cudaq.qvector(N)
// allocation of the paper's listing).
func New(name string, nq int) *Kernel {
	if nq < 0 {
		panic("kernel: negative qubit count")
	}
	return &Kernel{Name: name, NumQubits: nq}
}

func (k *Kernel) checkQubit(q int) {
	if q < 0 || q >= k.NumQubits {
		panic(fmt.Sprintf("kernel: qubit %d out of range [0,%d)", q, k.NumQubits))
	}
}

func (k *Kernel) gate1(g gate.Type, q int, params ...float64) *Kernel {
	k.checkQubit(q)
	k.Instrs = append(k.Instrs, Instr{Kind: KGate, Gate: g, Qubits: []int{q}, Params: params})
	return k
}

func (k *Kernel) gate2(g gate.Type, c, t int, params ...float64) *Kernel {
	k.checkQubit(c)
	k.checkQubit(t)
	if c == t {
		panic(fmt.Sprintf("kernel: %v with identical operands %d", g, c))
	}
	k.Instrs = append(k.Instrs, Instr{Kind: KGate, Gate: g, Qubits: []int{c, t}, Params: params})
	return k
}

// H appends a Hadamard.
func (k *Kernel) H(q int) *Kernel { return k.gate1(gate.H, q) }

// X appends a Pauli-X.
func (k *Kernel) X(q int) *Kernel { return k.gate1(gate.X, q) }

// Rx appends an X rotation.
func (k *Kernel) Rx(theta float64, q int) *Kernel { return k.gate1(gate.RX, q, theta) }

// Ry appends a Y rotation.
func (k *Kernel) Ry(theta float64, q int) *Kernel { return k.gate1(gate.RY, q, theta) }

// Rz appends a Z rotation.
func (k *Kernel) Rz(theta float64, q int) *Kernel { return k.gate1(gate.RZ, q, theta) }

// XCtrl appends a controlled-X (cudaq's x.ctrl(control, target)).
func (k *Kernel) XCtrl(c, t int) *Kernel { return k.gate2(gate.CX, c, t) }

// ZCtrl appends a controlled-Z.
func (k *Kernel) ZCtrl(c, t int) *Kernel { return k.gate2(gate.CZ, c, t) }

// CR1 appends the controlled arbitrary rotation of Eq. (9).
func (k *Kernel) CR1(lambda float64, c, t int) *Kernel { return k.gate2(gate.CP, c, t, lambda) }

// RyCtrl appends a controlled Ry.
func (k *Kernel) RyCtrl(theta float64, c, t int) *Kernel { return k.gate2(gate.CRY, c, t, theta) }

// Swap appends a swap.
func (k *Kernel) Swap(a, b int) *Kernel { return k.gate2(gate.SWAP, a, b) }

// Barrier appends a scheduling barrier.
func (k *Kernel) Barrier() *Kernel {
	k.Instrs = append(k.Instrs, Instr{Kind: KBarrier})
	return k
}

// Mz measures every qubit into the matching classical slot (cudaq's
// mz(qr)).
func (k *Kernel) Mz() *Kernel {
	if k.NumClbits < k.NumQubits {
		k.NumClbits = k.NumQubits
	}
	for q := 0; q < k.NumQubits; q++ {
		k.Instrs = append(k.Instrs, Instr{Kind: KMeasure, Qubits: []int{q}, Clbit: q})
	}
	return k
}

// MeasureOne measures a single qubit into clbit cb.
func (k *Kernel) MeasureOne(q, cb int) *Kernel {
	k.checkQubit(q)
	if cb < 0 {
		panic("kernel: negative clbit")
	}
	if cb >= k.NumClbits {
		k.NumClbits = cb + 1
	}
	k.Instrs = append(k.Instrs, Instr{Kind: KMeasure, Qubits: []int{q}, Clbit: cb})
	return k
}

// NumGates returns the number of executable gate instructions.
func (k *Kernel) NumGates() int {
	n := 0
	for _, in := range k.Instrs {
		if in.Kind == KGate {
			n++
		}
	}
	return n
}

// CountTwoQubit counts two-qubit gates.
func (k *Kernel) CountTwoQubit() int {
	n := 0
	for _, in := range k.Instrs {
		if in.Kind == KGate && in.Gate.IsEntangling() {
			n++
		}
	}
	return n
}

// HasMeasurements reports whether any KMeasure instruction exists.
func (k *Kernel) HasMeasurements() bool {
	for _, in := range k.Instrs {
		if in.Kind == KMeasure {
			return true
		}
	}
	return false
}

// Validate checks structural invariants of a kernel built or decoded
// outside the panic-guarded builder.
func (k *Kernel) Validate() error {
	if k.NumQubits < 0 || k.NumClbits < 0 {
		return fmt.Errorf("kernel %q: negative register size", k.Name)
	}
	for i, in := range k.Instrs {
		for _, q := range in.Qubits {
			if q < 0 || q >= k.NumQubits {
				return fmt.Errorf("kernel %q instr %d: qubit %d out of range", k.Name, i, q)
			}
		}
		switch in.Kind {
		case KGate:
			if !in.Gate.Valid() || !in.Gate.IsUnitary() {
				return fmt.Errorf("kernel %q instr %d: bad gate %v", k.Name, i, in.Gate)
			}
			if len(in.Qubits) != in.Gate.Arity() {
				return fmt.Errorf("kernel %q instr %d: %v arity mismatch", k.Name, i, in.Gate)
			}
			if len(in.Params) != in.Gate.ParamCount() {
				return fmt.Errorf("kernel %q instr %d: %v param mismatch", k.Name, i, in.Gate)
			}
			if len(in.Qubits) == 2 && in.Qubits[0] == in.Qubits[1] {
				return fmt.Errorf("kernel %q instr %d: duplicate operands", k.Name, i)
			}
		case KMeasure:
			if len(in.Qubits) != 1 {
				return fmt.Errorf("kernel %q instr %d: measure arity", k.Name, i)
			}
			if in.Clbit < 0 || in.Clbit >= k.NumClbits {
				return fmt.Errorf("kernel %q instr %d: clbit %d out of range", k.Name, i, in.Clbit)
			}
		case KBarrier:
		default:
			return fmt.Errorf("kernel %q instr %d: unknown kind %d", k.Name, i, in.Kind)
		}
	}
	return nil
}

// String renders the kernel in a cudaq-flavored listing.
func (k *Kernel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s(qvector[%d]):\n", k.Name, k.NumQubits)
	for _, in := range k.Instrs {
		switch in.Kind {
		case KBarrier:
			b.WriteString("  barrier\n")
		case KMeasure:
			fmt.Fprintf(&b, "  mz(q[%d]) -> c[%d]\n", in.Qubits[0], in.Clbit)
		default:
			name := in.Gate.String()
			if len(in.Params) > 0 {
				fmt.Fprintf(&b, "  %s(%.6g", name, in.Params[0])
				for _, p := range in.Params[1:] {
					fmt.Fprintf(&b, ", %.6g", p)
				}
				b.WriteString(")")
			} else {
				b.WriteString("  " + name)
			}
			fmt.Fprintf(&b, " q%v\n", in.Qubits)
		}
	}
	return b.String()
}
