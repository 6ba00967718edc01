package kernel

import (
	"fmt"

	"qgear/internal/gate"
	"qgear/internal/statevec"
)

// Parameterized plans: a TilePlan compiled from a parameterized kernel
// records, for every gate whose matrix depends on a rotation angle,
// *where* the value-derived artifact landed (a micro-op in a tile run
// or a global-sweep instruction). Rebinding then patches exactly those
// artifacts with the values a fresh compile derives (a micro-op's by
// the (*TileOp).Rebind that statevec.Lower ends in), while reusing the
// plan's structure — run boundaries, the relabeling schedule across the
// tile and rank boundaries — untouched. At the default transform
// configuration the plan structure is value-independent (mixingTargets
// never reads Params), so a rebound plan is bit-identical to a fresh
// compile at the new values: the compile-once guarantee parameter
// sweeps rest on.
// Neither the transform nor the plan compiler folds one gate's values
// into another's, so every plan is bindable.

// BindSiteKind says which arena a binding site patches.
type BindSiteKind uint8

const (
	// BindRun patches op Op of run segment Seg (a tile micro-op).
	BindRun BindSiteKind = iota
	// BindGlobal patches the Params of global segment Seg's instruction.
	BindGlobal
)

// bindSegment is the kind of segment each kind of site must point at:
// the site indexes that segment's arena.
var bindSegment = [...]SegmentKind{BindRun: SegRun, BindGlobal: SegGlobal}

// BindSite locates one parameterized gate's value-derived artifact
// inside a compiled plan. Slot/NParams address the gate's values in
// the flat parameter vector (program order over the source kernel).
type BindSite struct {
	Kind    BindSiteKind
	Gate    gate.Type // source gate, for re-deriving the matrix
	Seg     int32     // segment index
	Op      int32     // op index within the segment's range (unused for BindGlobal)
	Slot    int32     // offset into the flat parameter vector
	NParams int32     // parameter count of the gate
}

// NumParams returns the kernel's free-parameter count: summed
// parameter counts of parameterized gate instructions in program
// order. Angle pruning drops gates, so callers gating on NumParams
// equality with the source circuit detect a pruned slot.
func (k *Kernel) NumParams() int {
	n := 0
	for _, in := range k.Instrs {
		if parameterized(in) {
			n += len(in.Params)
		}
	}
	return n
}

// parameterized reports whether in is a gate whose matrix depends on
// rotation angles — an instruction that owns slots of the flat parameter
// vector and a plan binding site.
func parameterized(in Instr) bool {
	return in.Kind == KGate && in.Gate.ParamCount() > 0
}

// Bind returns a copy of the kernel with its free parameters replaced
// by params (flat vector, program order). Instruction slices are
// copy-on-write: parameterized instructions get windows into one
// private copy of params; everything else is shared with the receiver.
func (k *Kernel) Bind(params []float64) (*Kernel, error) {
	if want := k.NumParams(); len(params) != want {
		return nil, fmt.Errorf("kernel %q: binding %d values to %d parameter slots", k.Name, len(params), want)
	}
	out := *k
	out.Instrs = append([]Instr(nil), k.Instrs...)
	vals := append([]float64(nil), params...)
	i := 0
	for j := range out.Instrs {
		in := &out.Instrs[j]
		if parameterized(*in) {
			end := i + len(in.Params)
			in.Params = vals[i:end:end]
			i = end
		}
	}
	return &out, nil
}

// Bind returns a copy of the plan rebound to a new parameter vector.
// Segment headers, binding sites and the final permutation are shared;
// the two arenas are copied — one copy each, whatever the segment
// count — and only the value-derived fields of the sites themselves are
// recomputed, by the Rebind statevec.Lower itself ends in, so at
// configurations where plan structure is value-independent the result
// is bit-identical to freshly compiling the rebound kernel.
// The receiver is never mutated (plans are executed concurrently), and
// neither is the kernel a width-0 plan shares its Globals with.
func (p *TilePlan) Bind(params []float64) (*TilePlan, error) {
	if len(params) != p.BindSlots {
		return nil, fmt.Errorf("kernel: binding %d values to a plan with %d parameter slots", len(params), p.BindSlots)
	}
	out := *p
	out.Ops = append([]statevec.TileOp(nil), p.Ops...)
	out.Globals = append([]Instr(nil), p.Globals...)
	// Global sites get capacity-clipped windows into one owned copy of
	// params, taken at the first of them, as Kernel.Bind does.
	var owned []float64
	for _, b := range p.Binds {
		if b.Seg < 0 || int(b.Seg) >= len(p.Segments) {
			return nil, fmt.Errorf("kernel: binding site references segment %d of %d", b.Seg, len(p.Segments))
		}
		lo, hi := int(b.Slot), int(b.Slot)+int(b.NParams)
		if lo < 0 || hi < lo || hi > len(params) {
			return nil, fmt.Errorf("kernel: binding site slot [%d,%d) outside %d-slot vector", lo, hi, len(params))
		}
		seg := p.Segments[b.Seg]
		if int(b.Kind) >= len(bindSegment) || seg.Kind != bindSegment[b.Kind] {
			return nil, fmt.Errorf("kernel: binding site of kind %d references segment %d of kind %d", b.Kind, b.Seg, seg.Kind)
		}
		if b.Op < 0 || b.Op >= seg.Hi-seg.Lo {
			return nil, fmt.Errorf("kernel: binding site references op %d of %d in segment %d", b.Op, seg.Hi-seg.Lo, b.Seg)
		}
		at := seg.Lo + b.Op
		vals := params[lo:hi]
		switch b.Kind {
		case BindRun:
			if out.Ops[at].Kind == statevec.TileTable {
				return nil, fmt.Errorf("kernel: binding site references the header of a diagonal group in segment %d", b.Seg)
			}
			out.Ops[at].Rebind(b.Gate, vals)
		case BindGlobal:
			if owned == nil {
				owned = append([]float64(nil), params...)
			}
			out.Globals[at].Params = owned[lo:hi:hi]
		}
	}
	return &out, nil
}
