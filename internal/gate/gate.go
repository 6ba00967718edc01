// Package gate defines the quantum gate set used throughout the Q-GEAR
// reproduction: the gate type enumeration, per-type metadata (arity,
// parameter count, names), the unitary matrices, and the one-hot
// gate-type encoding matrix of Eq. (8) in the paper.
//
// The set matches the gates the paper actually exercises: the native
// basis {h, rx, ry, rz, cx} of the random CX-block generator (Appendix
// D.1), the controlled arbitrary rotation cr1 of the QFT kernel
// (Appendix D.2, Eq. 9), and the Ry/CX structure of QCrank (Appendix
// D.3), plus the structural pseudo-gates measure and barrier.
package gate

import "fmt"

// Type identifies a gate kind. The zero value is I (identity), so a
// zeroed ops buffer is harmlessly interpretable.
type Type uint8

// Gate kinds. The order of the first five entries (H, RY, RZ, CX,
// Measure) matches the columns of the paper's one-hot matrix M in
// Eq. (8).
const (
	I Type = iota
	H
	RY
	RZ
	CX
	Measure
	X
	Y
	Z
	S
	Sdg
	T
	Tdg
	RX
	P  // phase gate diag(1, e^{iλ})
	CP // controlled-phase, the paper's cr1 (Eq. 9)
	CZ
	SWAP
	U3  // generic single-qubit rotation U3(θ, φ, λ)
	CRY // controlled Ry, used by block-encoding tests
	Barrier
	numTypes
)

// names uses the lowercase spellings Qiskit and CUDA-Q share, so the
// textual forms in QPY files and kernel dumps read like the paper's
// listings.
var names = [numTypes]string{
	I: "id", H: "h", RY: "ry", RZ: "rz", CX: "cx", Measure: "measure",
	X: "x", Y: "y", Z: "z", S: "s", Sdg: "sdg", T: "t", Tdg: "tdg",
	RX: "rx", P: "p", CP: "cr1", CZ: "cz", SWAP: "swap", U3: "u3",
	CRY: "cry", Barrier: "barrier",
}

// arity[t] is the number of qubit operands of gate type t.
var arity = [numTypes]int{
	I: 1, H: 1, RY: 1, RZ: 1, CX: 2, Measure: 1,
	X: 1, Y: 1, Z: 1, S: 1, Sdg: 1, T: 1, Tdg: 1,
	RX: 1, P: 1, CP: 2, CZ: 2, SWAP: 2, U3: 1, CRY: 2, Barrier: 0,
}

// paramCount[t] is the number of real parameters of gate type t.
var paramCount = [numTypes]int{
	RY: 1, RZ: 1, RX: 1, P: 1, CP: 1, U3: 3, CRY: 1,
}

// String returns the canonical lowercase gate name.
func (t Type) String() string {
	if int(t) >= int(numTypes) {
		return fmt.Sprintf("gate(%d)", uint8(t))
	}
	return names[t]
}

// Arity returns the number of qubit operands the gate takes (0 for
// barrier, which applies to a whole register).
func (t Type) Arity() int {
	if int(t) >= int(numTypes) {
		return 0
	}
	return arity[t]
}

// ParamCount returns the number of real rotation parameters.
func (t Type) ParamCount() int {
	if int(t) >= int(numTypes) {
		return 0
	}
	return paramCount[t]
}

// Valid reports whether t names a defined gate type.
func (t Type) Valid() bool { return int(t) < int(numTypes) }

// IsUnitary reports whether the gate is a unitary operation (as opposed
// to measure/barrier bookkeeping ops).
func (t Type) IsUnitary() bool {
	return t != Measure && t != Barrier && t.Valid()
}

// IsTwoQubit reports whether the gate acts on two qubits.
func (t Type) IsTwoQubit() bool { return t.Arity() == 2 }

// IsEntangling reports whether the gate can create entanglement (all
// two-qubit unitaries in this set can).
func (t Type) IsEntangling() bool { return t.IsTwoQubit() && t.IsUnitary() }

// Parse maps a canonical lowercase name back to its Type.
func Parse(name string) (Type, error) {
	for t := Type(0); t < numTypes; t++ {
		if names[t] == name {
			return t, nil
		}
	}
	return I, fmt.Errorf("gate: unknown gate name %q", name)
}

// OneHotSize is the number of gate categories in the paper's one-hot
// matrix M of Eq. (8): (h, ry, rz, cx, measure).
const OneHotSize = 5

// OneHot returns the 5×5 identity-like matrix M^T of Eq. (8) mapping the
// gate categories (h, ry, rz, cx, measure) to one-hot rows.
func OneHot() [OneHotSize][OneHotSize]float64 {
	var m [OneHotSize][OneHotSize]float64
	for i := 0; i < OneHotSize; i++ {
		m[i][i] = 1
	}
	return m
}
