// Package tensorenc implements the circuit encoding of §2.1 and
// Appendix B/D.1 of the paper: a quantum circuit list is converted into
// a three-dimensional tensor whose first dimension encodes per-circuit
// properties (circuit type, qubit count, gate count), second dimension
// the gate specifications (gate category, control qubit, target qubit),
// and third dimension the unified gate parameters.
//
// The tensors are pre-allocated at a fixed capacity d satisfying
// Lemma B.2 (d ≥ max(|G|, |C|)) and overridden in place as circuits are
// processed, which is what makes the conversion time constant per gate
// and independent of entanglement depth (Appendix C). The encoding
// persists as one deflated internal/artifact file with the Eq. (8)
// one-hot matrix attached.
package tensorenc

import (
	"fmt"
	"math"
	"os"
	"strings"

	"qgear/internal/artifact"
	"qgear/internal/circuit"
	"qgear/internal/gate"
)

// Circuit type ids stored in the circ_type tensor (first dimension of
// the encoding; "the type of circuit" in §2.1).
const (
	TypeOther int64 = iota
	TypeRandom
	TypeQFT
	TypeQCrank
)

// InferType maps a circuit name to its type id by prefix convention:
// the workload generators name their outputs "random_*", "qft_*",
// "qcrank_*".
func InferType(name string) int64 {
	switch {
	case strings.HasPrefix(name, "random"):
		return TypeRandom
	case strings.HasPrefix(name, "qft"):
		return TypeQFT
	case strings.HasPrefix(name, "qcrank"):
		return TypeQCrank
	default:
		return TypeOther
	}
}

// emptySlot marks unused tensor rows beyond a circuit's gate count.
const emptySlot int64 = -1

// noQubit marks an absent control/target operand.
const noQubit int64 = -1

// Encoding is the in-memory three-dimensional tensor set. All slices
// are row-major with the circuit index outermost.
type Encoding struct {
	NumCircuits int
	Capacity    int // d of Lemma B.2

	// CircType holds (type id, num qubits, gate count) per circuit.
	CircType []int64 // [NumCircuits][3]
	// GateType holds (gate id, control/aux, target) per gate slot; the
	// aux slot carries the classical bit for measure ops.
	GateType []int64 // [NumCircuits][Capacity][3]
	// GateParam holds one rotation angle per gate slot.
	GateParam []float64 // [NumCircuits][Capacity]
	// Names preserves circuit names (joined metadata, not part of the
	// numeric tensors).
	Names []string
}

// Encode builds the tensor encoding of the circuit list with the given
// capacity; capacity <= 0 auto-sizes to the largest gate count, per
// Lemma B.2. Gates with more than one parameter (u3) are rejected —
// callers transpile to the native basis first, matching the paper's
// "transpiled from native gate sets" step.
func Encode(circuits []*circuit.Circuit, capacity int) (*Encoding, error) {
	maxGates := 0
	for _, c := range circuits {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("tensorenc: %w", err)
		}
		if n := len(c.Ops); n > maxGates {
			maxGates = n
		}
	}
	if capacity <= 0 {
		capacity = maxGates
	}
	if capacity < maxGates {
		return nil, fmt.Errorf("tensorenc: capacity %d violates Lemma B.2: largest circuit has %d gates", capacity, maxGates)
	}
	n := len(circuits)
	e := &Encoding{
		NumCircuits: n,
		Capacity:    capacity,
		CircType:    make([]int64, n*3),
		GateType:    make([]int64, n*capacity*3),
		GateParam:   make([]float64, n*capacity),
		Names:       make([]string, n),
	}
	// Pre-fill gate slots with the empty marker; encoding then
	// overrides in place (the fixed-size override strategy of the
	// Lemma B.2 proof).
	for i := range e.GateType {
		e.GateType[i] = emptySlot
	}
	for ci, c := range circuits {
		e.Names[ci] = c.Name
		e.CircType[ci*3+0] = InferType(c.Name)
		e.CircType[ci*3+1] = int64(c.NumQubits)
		e.CircType[ci*3+2] = int64(len(c.Ops))
		for gi, op := range c.Ops {
			if op.Gate.ParamCount() > 1 {
				return nil, fmt.Errorf("tensorenc: circuit %q op %d: %v has %d params; transpile to the native basis first",
					c.Name, gi, op.Gate, op.Gate.ParamCount())
			}
			base := (ci*capacity + gi) * 3
			e.GateType[base+0] = int64(op.Gate)
			switch {
			case op.Gate == gate.Measure:
				e.GateType[base+1] = int64(op.Clbit)
				e.GateType[base+2] = int64(op.Qubits[0])
			case len(op.Qubits) == 2:
				e.GateType[base+1] = int64(op.Qubits[0])
				e.GateType[base+2] = int64(op.Qubits[1])
			case len(op.Qubits) == 1:
				e.GateType[base+1] = noQubit
				e.GateType[base+2] = int64(op.Qubits[0])
			default: // barrier
				e.GateType[base+1] = noQubit
				e.GateType[base+2] = noQubit
			}
			if len(op.Params) == 1 {
				e.GateParam[ci*capacity+gi] = op.Params[0]
			}
		}
	}
	return e, nil
}

// Decode reconstructs the circuit list from the tensors.
func (e *Encoding) Decode() ([]*circuit.Circuit, error) {
	if len(e.CircType) != e.NumCircuits*3 ||
		len(e.GateType) != e.NumCircuits*e.Capacity*3 ||
		len(e.GateParam) != e.NumCircuits*e.Capacity {
		return nil, fmt.Errorf("tensorenc: tensor dimensions inconsistent with header (%d circuits × %d capacity)",
			e.NumCircuits, e.Capacity)
	}
	out := make([]*circuit.Circuit, e.NumCircuits)
	for ci := 0; ci < e.NumCircuits; ci++ {
		nq := int(e.CircType[ci*3+1])
		ng := int(e.CircType[ci*3+2])
		if ng > e.Capacity {
			return nil, fmt.Errorf("tensorenc: circuit %d claims %d gates beyond capacity %d", ci, ng, e.Capacity)
		}
		c := &circuit.Circuit{NumQubits: nq}
		if ci < len(e.Names) {
			c.Name = e.Names[ci]
		}
		for gi := 0; gi < ng; gi++ {
			base := (ci*e.Capacity + gi) * 3
			gid := e.GateType[base+0]
			if gid == emptySlot {
				return nil, fmt.Errorf("tensorenc: circuit %d gate %d is an empty slot inside the declared gate count", ci, gi)
			}
			g := gate.Type(gid)
			if !g.Valid() {
				return nil, fmt.Errorf("tensorenc: circuit %d gate %d: invalid gate id %d", ci, gi, gid)
			}
			op := circuit.Op{Gate: g}
			a, b := e.GateType[base+1], e.GateType[base+2]
			switch {
			case g == gate.Measure:
				op.Qubits = []int{int(b)}
				op.Clbit = int(a)
				if op.Clbit >= c.NumClbits {
					c.NumClbits = op.Clbit + 1
				}
			case g == gate.Barrier:
			case g.Arity() == 2:
				op.Qubits = []int{int(a), int(b)}
			default:
				op.Qubits = []int{int(b)}
			}
			if g.ParamCount() == 1 {
				op.Params = []float64{e.GateParam[ci*e.Capacity+gi]}
			}
			c.Ops = append(c.Ops, op)
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("tensorenc: decoded circuit %d invalid: %w", ci, err)
		}
		out[ci] = c
	}
	return out, nil
}

// Version tags the tensor-file payload layout (2: the shared
// envelope).
const Version uint16 = 2

// Marshal renders the encoding as one sealed, deflated artifact: the
// two dimensions, the three tensors, the circuit names and the Eq. (8)
// one-hot matrix of the gate set the gate ids index.
func (e *Encoding) Marshal() ([]byte, error) {
	w := artifact.NewWriter(64 + 8*(len(e.CircType)+len(e.GateType)+len(e.GateParam)))
	w.U32(uint32(e.NumCircuits))
	w.U32(uint32(e.Capacity))
	w.I64s(e.CircType)
	w.I64s(e.GateType)
	w.F64s(e.GateParam)
	w.Count(len(e.Names))
	for _, name := range e.Names {
		w.Str(name)
	}
	oneHot := gate.OneHot()
	w.Count(len(oneHot) * len(oneHot))
	for _, row := range oneHot {
		for _, v := range row {
			w.F64(v)
		}
	}
	data, err := w.Seal(artifact.KindTensors, Version, true)
	if err != nil {
		return nil, fmt.Errorf("tensorenc: %w", err)
	}
	return data, nil
}

// Unmarshal parses an artifact written by Marshal — checksum first,
// then the fields — and rejects tensors whose lengths disagree with
// the recorded dimensions or a one-hot matrix of another gate set.
func Unmarshal(data []byte) (*Encoding, error) {
	r, err := artifact.Open(artifact.KindTensors, Version, data)
	if err != nil {
		return nil, fmt.Errorf("tensorenc: %w", err)
	}
	e := &Encoding{NumCircuits: int(r.U32()), Capacity: int(r.U32())}
	e.CircType = r.I64s()
	e.GateType = r.I64s()
	e.GateParam = r.F64s()
	e.Names = make([]string, r.Count(4))
	for i := range e.Names {
		e.Names[i] = r.Str()
	}
	oneHot, want := r.F64s(), gate.OneHot()
	same := len(oneHot) == len(want)*len(want)
	for i := 0; same && i < len(oneHot); i++ {
		same = math.Float64bits(oneHot[i]) == math.Float64bits(want[i/len(want)][i%len(want)])
	}
	if !same {
		r.Failf("one-hot matrix is not this gate set's")
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("tensorenc: %w", err)
	}
	n, d := int64(e.NumCircuits), int64(e.Capacity)
	if int64(len(e.CircType)) != n*3 || int64(len(e.GateType)) != n*d*3 ||
		int64(len(e.GateParam)) != n*d || int64(len(e.Names)) != n {
		return nil, fmt.Errorf("tensorenc: tensor lengths inconsistent with %d circuits × %d capacity", n, d)
	}
	return e, nil
}

// SaveFile writes the encoding to a tensor file at path.
func (e *Encoding) SaveFile(path string) error {
	data, err := e.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("tensorenc: %w", err)
	}
	return nil
}

// LoadFile reads an encoding back from path.
func LoadFile(path string) (*Encoding, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tensorenc: %w", err)
	}
	return Unmarshal(data)
}
