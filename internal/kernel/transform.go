package kernel

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/statevec"
)

// Options configures the Q-GEAR circuit→kernel transformation.
type Options struct {
	// FusionWindow is the maximum qubit width of a fused unitary block;
	// 0 or 1 disables fusion. The paper's QFT kernel uses 5
	// (Appendix D.2: "gate fusion = 5").
	FusionWindow int
	// PruneAngle drops parameterized rotations whose angles are all
	// below this threshold in magnitude — the paper's "approximations
	// for negligible rotation angles". 0 disables pruning.
	PruneAngle float64
	// FusionLocalQubits, when positive, restricts fusion to gates whose
	// operands all lie below this qubit index. Distributed (mgpu)
	// executions set it to the per-device local qubit count so fused
	// blocks never straddle the device boundary (Plan refuses one that
	// does).
	FusionLocalQubits int
	// DropMeasurements omits measure instructions, producing the pure
	// unitary kernel (the caller samples from the final state instead).
	DropMeasurements bool
}

// Stats reports what the transformation did; Q-GEAR surfaces these so
// pipelines can log conversion behaviour (the paper's constant-time
// conversion claim is tested against Stats.SourceOps).
type Stats struct {
	SourceOps    int // circuit ops transformed
	EmittedOps   int // kernel instructions produced
	FusedGroups  int // KFused blocks created
	FusedGates   int // source gates absorbed into fused blocks
	PrunedGates  int // rotations dropped by the angle threshold
	Measurements int // measure ops carried over
}

// FromCircuit converts an object-based circuit into a kernel,
// gate-by-gate (§2.2), optionally fusing adjacent gates into dense
// unitaries and pruning negligible rotations. The conversion itself is
// O(1) per gate: each op maps to one instruction without global
// analysis; fusion is a separate linear pass.
func FromCircuit(c *circuit.Circuit, opts Options) (*Kernel, Stats, error) {
	var st Stats
	if err := c.Validate(); err != nil {
		return nil, st, fmt.Errorf("kernel: source circuit invalid: %w", err)
	}
	if opts.FusionWindow > statevec.MaxFusedQubits {
		return nil, st, fmt.Errorf("kernel: fusion window %d exceeds max %d", opts.FusionWindow, statevec.MaxFusedQubits)
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
			if opts.DropMeasurements {
				continue
			}
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
	if opts.FusionWindow >= 2 {
		fuse(k, opts.FusionWindow, opts.FusionLocalQubits, &st)
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

// fuse greedily merges runs of adjacent gate instructions whose union
// of operands fits in `window` qubits into single dense unitaries,
// mirroring cuQuantum-style gate fusion. Barriers and measurements cut
// fusion groups; gates touching qubits at or above localLimit (when
// positive) are emitted unfused, and so is a group whose gates are all
// diagonal, which the plan lowers to a phase table instead.
func fuse(k *Kernel, window, localLimit int, st *Stats) {
	var out []Instr
	var group []Instr
	groupQubits := map[int]bool{}

	flush := func() {
		switch {
		case len(group) == 0:
		case len(group) == 1 || !slices.ContainsFunc(group, func(in Instr) bool { return !statevec.IsDiagonalGate(in.Gate) }):
			// A lone gate, or a group of diagonals: the plan runs those as
			// one phase table (diagGroup), one multiply per amplitude
			// where a dense block would pay 2^k.
			out = append(out, group...)
		default:
			qubits := make([]int, 0, len(groupQubits))
			for q := range groupQubits {
				qubits = append(qubits, q)
			}
			sortInts(qubits)
			mat := denseMatrix(group, qubits)
			out = append(out, Instr{Kind: KFused, Qubits: qubits, Mat: mat})
			st.FusedGroups++
			st.FusedGates += len(group)
		}
		group = group[:0]
		groupQubits = map[int]bool{}
	}

	fusable := func(in Instr) bool {
		if in.Kind != KGate {
			return false
		}
		if localLimit > 0 {
			for _, q := range in.Qubits {
				if q >= localLimit {
					return false
				}
			}
		}
		return true
	}

	for _, in := range k.Instrs {
		if !fusable(in) {
			flush()
			out = append(out, in)
			continue
		}
		newQ := 0
		for _, q := range in.Qubits {
			if !groupQubits[q] {
				newQ++
			}
		}
		if len(groupQubits)+newQ > window {
			flush()
		}
		for _, q := range in.Qubits {
			groupQubits[q] = true
		}
		group = append(group, in)
	}
	flush()
	k.Instrs = out
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// denseMatrix computes the product unitary of a gate group over the
// (sorted) qubit list by running the ops on each basis column of a
// width-k scratch state; column results are the matrix columns.
// qubits[j] is bit j of the local index.
func denseMatrix(group []Instr, qubits []int) []complex128 {
	kw := len(qubits)
	dim := 1 << uint(kw)
	local := make(map[int]int, kw)
	for j, q := range qubits {
		local[q] = j
	}
	m := make([]complex128, dim*dim)
	s := statevec.MustNew(kw, 1)
	defer s.Release()
	for col := 0; col < dim; col++ {
		if err := s.PrepareBasis(uint64(col)); err != nil {
			panic(err) // col < dim by construction
		}
		for _, in := range group {
			lq := make([]int, len(in.Qubits))
			for i, q := range in.Qubits {
				lq[i] = local[q]
			}
			s.ApplyGate(in.Gate, lq, in.Params)
		}
		for row := 0; row < dim; row++ {
			m[row*dim+col] = s.Amp(uint64(row))
		}
	}
	return m
}

// Adjoint returns the inverse kernel: instructions reversed with each
// gate (or fused matrix) replaced by its adjoint. Kernels with
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
		case KFused:
			kw := len(in.Qubits)
			dim := 1 << uint(kw)
			adj := make([]complex128, dim*dim)
			for r := 0; r < dim; r++ {
				for c := 0; c < dim; c++ {
					adj[c*dim+r] = cmplx.Conj(in.Mat[r*dim+c])
				}
			}
			out.Instrs = append(out.Instrs, Instr{Kind: KFused, Qubits: append([]int(nil), in.Qubits...), Mat: adj})
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

// Apply runs one gate or fused instruction, operands physical, as a full
// sweep over s — a one-instruction SegGlobal, on a single state or a rank
// shard alike.
func (in *Instr) Apply(s *statevec.State) error {
	switch in.Kind {
	case KGate:
		s.ApplyGate(in.Gate, in.Qubits, in.Params)
	case KFused:
		return s.ApplyFused(in.Qubits, in.Mat)
	}
	return nil
}
