package kernel

import (
	"fmt"

	"qgear/internal/gate"
	"qgear/internal/statevec"
)

// Parameterized plans: a TilePlan compiled from a parameterized kernel
// records, for every gate whose matrix depends on a rotation angle,
// *where* the value-derived artifact landed (a micro-op in a tile run,
// a global-sweep instruction, an exchange op). Rebinding then patches
// exactly those artifacts with matrices derived by the same
// gate.Matrix1 calls a fresh compile would make, while reusing the
// plan's structure — run boundaries, relabeling schedule, exchange
// batching — untouched. At the default transform configuration the
// plan structure is value-independent (mixingTargets never reads
// Params), so a rebound plan is bit-identical to a fresh compile at
// the new values: the compile-once guarantee parameter sweeps rest on.
//
// Run fusion (PlanConfig.FuseRuns) pre-multiplies matrices at compile
// time, entangling values with structure; fused plans are compiled
// with Bindable=false and sweeps fall back to per-point compiles.

// BindSiteKind says which segment field a binding site patches.
type BindSiteKind uint8

const (
	// BindRun patches Segments[Seg].Ops[Op] (a tile-run micro-op).
	BindRun BindSiteKind = iota
	// BindGlobal patches Segments[Seg].Instr.Params (a full-sweep op).
	BindGlobal
	// BindExch patches Segments[Seg].XOps[Op].M (an exchange-segment op).
	BindExch
)

// BindSite locates one parameterized gate's value-derived artifact
// inside a compiled plan. Slot/NParams address the gate's values in
// the flat parameter vector (program order over the source kernel).
type BindSite struct {
	Kind    BindSiteKind
	Seg     int       // segment index
	Op      int       // op index within Ops/XOps (unused for BindGlobal)
	Gate    gate.Type // source gate, for re-deriving the matrix
	Slot    int       // offset into the flat parameter vector
	NParams int       // parameter count of the gate
}

// NumParams returns the kernel's free-parameter count: summed
// parameter counts of parameterized gate instructions in program
// order. Fused instructions bake their values into matrices and
// contribute nothing — callers gating on NumParams equality with the
// source circuit therefore also detect fusion having eaten a slot.
func (k *Kernel) NumParams() int {
	n := 0
	for _, in := range k.Instrs {
		if in.Kind == KGate && in.Gate.ParamCount() > 0 {
			n += len(in.Params)
		}
	}
	return n
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
		if in.Kind == KGate && in.Gate.ParamCount() > 0 {
			end := i + len(in.Params)
			in.Params = vals[i:end:end]
			i = end
		}
	}
	return &out, nil
}

// Bind returns a copy of the plan rebound to a new parameter vector.
// Segment structure is shared; only segments holding a binding site
// get copy-on-write op slices, and only the value-derived fields of
// the sites themselves are recomputed — with the identical
// gate.Matrix1 derivations compileTileOp makes, so at configurations
// where plan structure is value-independent the result is
// bit-identical to freshly compiling the rebound kernel. The receiver
// is never mutated (plans are executed concurrently).
func (p *TilePlan) Bind(params []float64) (*TilePlan, error) {
	if !p.Bindable {
		return nil, fmt.Errorf("kernel: plan was compiled without binding sites (run fusion entangles values with structure)")
	}
	if len(params) != p.BindSlots {
		return nil, fmt.Errorf("kernel: binding %d values to a plan with %d parameter slots", len(params), p.BindSlots)
	}
	out := *p
	out.Segments = append([]Segment(nil), p.Segments...)
	copied := make(map[int]bool, len(p.Binds))
	for _, b := range p.Binds {
		if b.Seg < 0 || b.Seg >= len(out.Segments) {
			return nil, fmt.Errorf("kernel: binding site references segment %d of %d", b.Seg, len(out.Segments))
		}
		if b.Slot < 0 || b.NParams < 0 || b.Slot+b.NParams > len(params) {
			return nil, fmt.Errorf("kernel: binding site slot [%d,%d) outside %d-slot vector", b.Slot, b.Slot+b.NParams, len(params))
		}
		seg := &out.Segments[b.Seg]
		vals := params[b.Slot : b.Slot+b.NParams]
		switch b.Kind {
		case BindRun:
			if b.Op < 0 || b.Op >= len(seg.Ops) {
				return nil, fmt.Errorf("kernel: binding site references op %d of %d in segment %d", b.Op, len(seg.Ops), b.Seg)
			}
			if !copied[b.Seg] {
				seg.Ops = append([]statevec.TileOp(nil), seg.Ops...)
				copied[b.Seg] = true
			}
			rebindTileOp(&seg.Ops[b.Op], b.Gate, vals)
		case BindGlobal:
			// Segment structs were copied with the slice; give the
			// instruction a fresh Params backing so the source plan's
			// slice (shared with the kernel) stays untouched.
			seg.Instr.Params = append([]float64(nil), vals...)
		case BindExch:
			if b.Op < 0 || b.Op >= len(seg.XOps) {
				return nil, fmt.Errorf("kernel: binding site references exchange op %d of %d in segment %d", b.Op, len(seg.XOps), b.Seg)
			}
			if !copied[b.Seg] {
				seg.XOps = append([]ExchOp(nil), seg.XOps...)
				copied[b.Seg] = true
			}
			seg.XOps[b.Op].M = exchMatrix(b.Gate, vals)
		default:
			return nil, fmt.Errorf("kernel: unknown binding-site kind %d", b.Kind)
		}
	}
	return &out, nil
}

// rebindTileOp recomputes the value-derived fields of a tile micro-op
// for new parameter values, mirroring compileTileOp's lowering exactly:
// positions, masks, and control layout are structure and stay put.
func rebindTileOp(op *statevec.TileOp, g gate.Type, vals []float64) {
	switch {
	case g == gate.RZ:
		m := gate.Matrix1(g, vals)
		op.A, op.B = m[0], m[3]
	case statevec.IsDiagonalGate(g):
		src := g
		if g == gate.CP {
			src = gate.P
		}
		op.Phase = gate.Matrix1(src, vals)[3]
	case g == gate.CRY:
		op.M = gate.Matrix1(gate.RY, vals)
	default: // rx, ry, u3, and any future parameterized mat1
		op.M = gate.Matrix1(g, vals)
	}
}

// exchMatrix re-derives an exchange op's 2×2 for new values, mirroring
// the exchange lowering in Plan's add.
func exchMatrix(g gate.Type, vals []float64) gate.Mat2 {
	switch {
	case g == gate.CRY:
		return gate.Matrix1(gate.RY, vals)
	default:
		return gate.Matrix1(g, vals)
	}
}
