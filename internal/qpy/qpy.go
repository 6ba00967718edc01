// Package qpy implements a binary circuit serialization format filling
// the role Qiskit's QPY files play in the paper's pipeline (Fig. 2c:
// "Qiskit Circuit → Save QPY → Read QPY → Transformation → CudaQuantum
// Kernels"): the workload generator persists circuit lists, and the
// transformer reads them back in a separate process.
//
// A file is one internal/artifact envelope of kind "QGCL" around
//
//	count u32
//	per circuit: name | nqubits u32 | nclbits u32 | nops u32 | ops…
//	per op: gate u8 | nqubits u8 | qubit u32… | nparams u8 | param f64… | clbit i32
package qpy

import (
	"fmt"
	"os"

	"qgear/internal/artifact"
	"qgear/internal/circuit"
	"qgear/internal/gate"
)

// Version is the current payload layout (2: the shared envelope).
const Version uint16 = 2

// Smallest encodings of one circuit and one op, the divisors of
// Reader.Count.
const (
	minCircuitBytes = 4 + 4 + 4 + 4
	minOpBytes      = 1 + 1 + 1 + 4
)

// Marshal renders circuits as one sealed artifact.
func Marshal(circuits []*circuit.Circuit) ([]byte, error) {
	w := artifact.NewWriter(64)
	w.Count(len(circuits))
	for _, c := range circuits {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("qpy: refusing to serialize invalid circuit: %w", err)
		}
		w.Str(c.Name)
		w.U32(uint32(c.NumQubits))
		w.U32(uint32(c.NumClbits))
		w.Count(len(c.Ops))
		for _, op := range c.Ops {
			if len(op.Qubits) > 255 || len(op.Params) > 255 {
				return nil, fmt.Errorf("qpy: circuit %q: op with %d qubits and %d params does not fit the format",
					c.Name, len(op.Qubits), len(op.Params))
			}
			w.U8(uint8(op.Gate))
			w.U8(uint8(len(op.Qubits)))
			for _, q := range op.Qubits {
				w.U32(uint32(q))
			}
			w.U8(uint8(len(op.Params)))
			for _, p := range op.Params {
				w.F64(p)
			}
			w.U32(uint32(int32(op.Clbit)))
		}
	}
	data, err := w.Seal(artifact.KindCircuits, Version, false)
	if err != nil {
		return nil, fmt.Errorf("qpy: %w", err)
	}
	return data, nil
}

// Unmarshal parses an artifact written by Marshal — checksum first,
// then the fields — and validates every decoded circuit.
func Unmarshal(data []byte) ([]*circuit.Circuit, error) {
	r, err := artifact.Open(artifact.KindCircuits, Version, data)
	if err != nil {
		return nil, fmt.Errorf("qpy: %w", err)
	}
	circuits := make([]*circuit.Circuit, r.Count(minCircuitBytes))
	for ci := range circuits {
		c := &circuit.Circuit{Name: r.Str(), NumQubits: int(r.U32()), NumClbits: int(r.U32())}
		c.Ops = make([]circuit.Op, r.Count(minOpBytes))
		for i := range c.Ops {
			op := &c.Ops[i]
			op.Gate = gate.Type(r.U8())
			if nq := int(r.U8()); nq > 0 {
				op.Qubits = make([]int, nq)
				for j := range op.Qubits {
					op.Qubits[j] = int(r.U32())
				}
			}
			if np := int(r.U8()); np > 0 {
				op.Params = make([]float64, np)
				for j := range op.Params {
					op.Params[j] = r.F64()
				}
			}
			op.Clbit = int(int32(r.U32()))
		}
		if r.Err() == nil {
			if err := c.Validate(); err != nil {
				r.Failf("circuit %d invalid: %v", ci, err)
			}
		}
		circuits[ci] = c
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("qpy: %w", err)
	}
	return circuits, nil
}

// SaveFile writes circuits to a file path.
func SaveFile(path string, circuits []*circuit.Circuit) error {
	data, err := Marshal(circuits)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("qpy: %w", err)
	}
	return nil
}

// LoadFile reads circuits from a file path.
func LoadFile(path string) ([]*circuit.Circuit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("qpy: %w", err)
	}
	return Unmarshal(data)
}
