package kernel

import (
	"fmt"
	"math"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/statevec"
)

// Options configures the Q-GEAR circuit→kernel transformation.
type Options struct {
	// PruneAngle drops parameterized rotations whose angles are all
	// below this threshold in magnitude — the paper's "approximations
	// for negligible rotation angles". 0 disables pruning.
	PruneAngle float64
	// FusionLocalQubits is ignored: the transform no longer fuses gates
	// (a compiled tile run is the fusion, exact). It stays only for
	// source compatibility with callers that still set it.
	FusionLocalQubits int
}

// Stats reports what the transformation did; Q-GEAR surfaces these so
// pipelines can log conversion behaviour (the paper's constant-time
// conversion claim is tested against Stats.SourceOps).
type Stats struct {
	SourceOps    int // circuit ops transformed
	EmittedOps   int // kernel instructions produced
	PrunedGates  int // rotations dropped by the angle threshold
	Measurements int // measure ops carried over
}

// FromCircuit converts an object-based circuit into a kernel,
// gate-by-gate (§2.2), optionally pruning negligible rotations. The
// conversion is O(1) per gate: each op maps to at most one instruction
// without global analysis.
func FromCircuit(c *circuit.Circuit, opts Options) (*Kernel, Stats, error) {
	var st Stats
	if err := c.Validate(); err != nil {
		return nil, st, fmt.Errorf("kernel: source circuit invalid: %w", err)
	}
	k := New(c.Name+"_kernel", c.NumQubits)
	k.NumClbits = c.NumClbits
	// Operands of all gate instructions live in two arenas sized up
	// front (circuit.Carve).
	nq, np := 0, 0
	for _, op := range c.Ops {
		nq += len(op.Qubits)
		np += len(op.Params)
	}
	qubits := make([]int, 0, nq)
	params := make([]float64, 0, np)
	k.Instrs = make([]Instr, 0, len(c.Ops))
	for _, op := range c.Ops {
		st.SourceOps++
		switch op.Gate {
		case gate.Barrier:
			k.Barrier()
		case gate.Measure:
			st.Measurements++
			k.MeasureOne(op.Qubits[0], op.Clbit)
		case gate.I:
			// Identity contributes nothing to the kernel.
		default:
			if opts.PruneAngle > 0 && prunable(op) && maxAbs(op.Params) < opts.PruneAngle {
				st.PrunedGates++
				continue
			}
			k.Instrs = append(k.Instrs, Instr{
				Kind:   KGate,
				Gate:   op.Gate,
				Qubits: circuit.Carve(&qubits, op.Qubits),
				Params: circuit.Carve(&params, op.Params),
			})
		}
	}
	st.EmittedOps = len(k.Instrs)
	return k, st, nil
}

// prunable reports whether the gate is a pure rotation that limits to
// identity (up to global phase) as its angles go to zero.
func prunable(op circuit.Op) bool {
	switch op.Gate {
	case gate.RX, gate.RY, gate.RZ, gate.P, gate.CP, gate.CRY:
		return true
	}
	return false
}

func maxAbs(params []float64) float64 {
	m := 0.0
	for _, p := range params {
		if a := math.Abs(p); a > m {
			m = a
		}
	}
	return m
}

// Adjoint returns the inverse kernel: instructions reversed with each
// gate replaced by its adjoint. Kernels with
// measurements cannot be inverted.
func (k *Kernel) Adjoint() (*Kernel, error) {
	out := New(k.Name+"_adj", k.NumQubits)
	out.NumClbits = k.NumClbits
	for i := len(k.Instrs) - 1; i >= 0; i-- {
		in := k.Instrs[i]
		switch in.Kind {
		case KMeasure:
			return nil, fmt.Errorf("kernel: cannot take adjoint of measured kernel %q", k.Name)
		case KBarrier:
			out.Barrier()
		case KGate:
			adjT, adjP, ok := gate.AdjointParams(in.Gate, in.Params)
			if !ok {
				return nil, fmt.Errorf("kernel: no adjoint for %v", in.Gate)
			}
			out.Instrs = append(out.Instrs, Instr{Kind: KGate, Gate: adjT, Qubits: append([]int(nil), in.Qubits...), Params: adjP})
		}
	}
	return out, nil
}

// Execute applies the kernel's unitary instructions to the state, gate
// by gate: it compiles the width-0 plan and runs it, which is what aer
// and every state too small to tile execute, and the reference the tiled
// and distributed schedules are held bit-identical to. Measure
// instructions compile to nothing (sampling happens on the final state).
func Execute(k *Kernel, s *statevec.State) error {
	p, err := Plan(k, PlanConfig{})
	if err != nil {
		return err
	}
	return p.Execute(s)
}

// Apply runs one gate instruction, operands physical, as a full sweep
// over s — a one-instruction SegGlobal, on a single state or a rank
// shard alike.
func (in *Instr) Apply(s *statevec.State) {
	if in.Kind == KGate {
		s.ApplyGate(in.Gate, in.Qubits, in.Params)
	}
}
