package kernel

import (
	"io"
	"unsafe"

	"qgear/internal/artifact"
	"qgear/internal/gate"
	"qgear/internal/statevec"
)

// Binary serialization for the execution IR: kernels and compiled
// TilePlans are artifact payloads (internal/artifact). EncodeKernel and
// EncodePlan seal one value per artifact; WriteKernel/ReadKernel and
// WritePlan/ReadPlan are the payload halves, for the artifacts that
// embed them (a backend.Compiled, a store plan file) under their own
// single checksum. Encodings are exact — float64 parameters and complex
// matrix entries are written bit-for-bit — so a decoded plan executes
// amplitude-identically to the one that was saved.

// serialVersion tags the kernel and plan payload layouts.
const serialVersion uint16 = 1

// Smallest encodings of one element, the divisors of Reader.Count.
const (
	minInstrBytes   = 1 + 1 + 4 + 4 + 4 + 8
	minSegmentBytes = 1 + 4
	minTileOpBytes  = 1 + 4 + 4 + 1 + 8 + 8 + 7*16 + 4 + 4
	exchOpBytes     = 4*16 + 8 + 8
	bindSiteBytes   = 1 + 4 + 4 + 1 + 4 + 4
)

// EncodeKernel writes k to w as one sealed artifact.
func EncodeKernel(w io.Writer, k *Kernel) error {
	aw := artifact.NewWriter(64 + 64*len(k.Instrs))
	WriteKernel(aw, k)
	return aw.SealTo(w, artifact.KindKernel, serialVersion, false)
}

// DecodeKernel reads a kernel written by EncodeKernel: checksum first,
// then the fields, then the kernel's structural invariants.
func DecodeKernel(r io.Reader) (*Kernel, error) {
	ar, err := artifact.Read(r, artifact.KindKernel, serialVersion)
	if err != nil {
		return nil, err
	}
	k := ReadKernel(ar)
	if err := ar.Close(); err != nil {
		return nil, err
	}
	return k, nil
}

// WriteKernel appends k's payload encoding.
func WriteKernel(w *artifact.Writer, k *Kernel) {
	w.Str(k.Name)
	w.U32(uint32(k.NumQubits))
	w.U32(uint32(k.NumClbits))
	w.Count(len(k.Instrs))
	for _, in := range k.Instrs {
		writeInstr(w, in)
	}
}

// ReadKernel reads a WriteKernel payload and validates the kernel; a
// failure is left on r.
func ReadKernel(r *artifact.Reader) *Kernel {
	k := &Kernel{Name: r.Str()}
	k.NumQubits = int(r.U32())
	k.NumClbits = int(r.U32())
	k.Instrs = make([]Instr, r.Count(minInstrBytes))
	for i := range k.Instrs {
		k.Instrs[i] = readInstr(r)
	}
	if r.Err() == nil {
		if err := k.Validate(); err != nil {
			r.Failf("decoded kernel invalid: %v", err)
		}
	}
	return k
}

func writeInstr(w *artifact.Writer, in Instr) {
	w.U8(uint8(in.Kind))
	w.U8(uint8(in.Gate))
	w.Count(len(in.Qubits))
	for _, q := range in.Qubits {
		w.U32(uint32(q))
	}
	w.F64s(in.Params)
	writeC128s(w, in.Mat)
	w.Int(in.Clbit)
}

func readInstr(r *artifact.Reader) Instr {
	var in Instr
	in.Kind = InstrKind(r.U8())
	in.Gate = gate.Type(r.U8())
	if nq := r.Count(4); nq > 0 {
		in.Qubits = make([]int, nq)
		for j := range in.Qubits {
			in.Qubits[j] = int(r.U32())
		}
	}
	in.Params = r.F64s()
	in.Mat = readC128s(r)
	in.Clbit = r.Int()
	return in
}

func writeC128s(w *artifact.Writer, v []complex128) {
	w.Count(len(v))
	for _, m := range v {
		w.C128(m)
	}
}

func readC128s(r *artifact.Reader) []complex128 {
	n := r.Count(16)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	for i := range out {
		out[i] = r.C128()
	}
	return out
}

// WriteStats appends the transformation statistics.
func WriteStats(w *artifact.Writer, s Stats) {
	for _, v := range [...]int{s.SourceOps, s.EmittedOps, s.FusedGroups, s.FusedGates, s.PrunedGates, s.Measurements} {
		w.Int(v)
	}
}

// ReadStats reads what WriteStats wrote.
func ReadStats(r *artifact.Reader) (s Stats) {
	for _, dst := range [...]*int{&s.SourceOps, &s.EmittedOps, &s.FusedGroups, &s.FusedGates, &s.PrunedGates, &s.Measurements} {
		*dst = r.Int()
	}
	return s
}

// WritePlanStats appends the plan compiler's statistics.
func WritePlanStats(w *artifact.Writer, s PlanStats) {
	for _, v := range [...]int{
		s.TileLocal, s.Global, s.Runs, s.BitSwaps, s.PermSwaps,
		s.FusedOps, s.ExchangeSegs, s.ExchangeGates, s.RankLocal,
	} {
		w.Int(v)
	}
}

// ReadPlanStats reads what WritePlanStats wrote.
func ReadPlanStats(r *artifact.Reader) (s PlanStats) {
	for _, dst := range [...]*int{
		&s.TileLocal, &s.Global, &s.Runs, &s.BitSwaps, &s.PermSwaps,
		&s.FusedOps, &s.ExchangeSegs, &s.ExchangeGates, &s.RankLocal,
	} {
		*dst = r.Int()
	}
	return s
}

// EncodePlan writes p to w as one sealed artifact.
func EncodePlan(w io.Writer, p *TilePlan) error {
	aw := artifact.NewWriter(256 + int(p.SizeBytes()))
	WritePlan(aw, p)
	return aw.SealTo(w, artifact.KindPlan, serialVersion, false)
}

// DecodePlan reads a plan written by EncodePlan.
func DecodePlan(r io.Reader) (*TilePlan, error) {
	ar, err := artifact.Read(r, artifact.KindPlan, serialVersion)
	if err != nil {
		return nil, err
	}
	p := ReadPlan(ar)
	if err := ar.Close(); err != nil {
		return nil, err
	}
	return p, nil
}

// WritePlan appends p's payload encoding; a segment kind it cannot
// encode fails the Writer.
func WritePlan(w *artifact.Writer, p *TilePlan) {
	w.U32(uint32(p.TileBits))
	w.U32(uint32(p.NumQubits))
	w.U32(uint32(p.GlobalBits))
	w.Count(len(p.Segments))
	for _, seg := range p.Segments {
		w.U8(uint8(seg.Kind))
		switch seg.Kind {
		case SegRun:
			w.Count(len(seg.Ops))
			for _, op := range seg.Ops {
				writeTileOp(w, op)
			}
		case SegGlobal:
			writeInstr(w, seg.Instr)
		case SegBitSwap:
			w.U32(uint32(seg.A))
			w.U32(uint32(seg.B))
		case SegExchange:
			w.U32(uint32(seg.TBit))
			w.Count(len(seg.XOps))
			for _, x := range seg.XOps {
				for _, m := range x.M {
					w.C128(m)
				}
				w.U64(x.LowCtrl)
				w.U64(x.RankCtrl)
			}
		default:
			w.Failf("cannot encode segment kind %d", seg.Kind)
		}
	}
	w.Count(len(p.FinalPerm))
	for _, q := range p.FinalPerm {
		w.U32(uint32(q))
	}
	WritePlanStats(w, p.Stats)
	w.Bool(p.Bindable)
	w.U32(uint32(p.BindSlots))
	w.Count(len(p.Binds))
	for _, b := range p.Binds {
		w.U8(uint8(b.Kind))
		w.U32(uint32(b.Seg))
		w.U32(uint32(b.Op))
		w.U8(uint8(b.Gate))
		w.U32(uint32(b.Slot))
		w.U32(uint32(b.NParams))
	}
}

func writeTileOp(w *artifact.Writer, op statevec.TileOp) {
	w.U8(uint8(op.Kind))
	w.U32(uint32(op.T))
	w.U32(uint32(op.C))
	w.Bool(op.HasCtrl)
	w.U64(op.HighMask)
	w.U64(op.LowMask)
	w.C128(op.Phase)
	w.C128(op.A)
	w.C128(op.B)
	for _, m := range op.M {
		w.C128(m)
	}
	w.Count(len(op.Qubits))
	for _, q := range op.Qubits {
		w.U32(uint32(q))
	}
	writeC128s(w, op.Mat)
}

func readTileOp(r *artifact.Reader) statevec.TileOp {
	var op statevec.TileOp
	op.Kind = statevec.TileOpKind(r.U8())
	op.T = uint(r.U32())
	op.C = uint(r.U32())
	op.HasCtrl = r.Bool()
	op.HighMask = r.U64()
	op.LowMask = r.U64()
	op.Phase = r.C128()
	op.A = r.C128()
	op.B = r.C128()
	for i := range op.M {
		op.M[i] = r.C128()
	}
	if nq := r.Count(4); nq > 0 {
		op.Qubits = make([]uint, nq)
		for j := range op.Qubits {
			op.Qubits[j] = uint(r.U32())
		}
	}
	op.Mat = readC128s(r)
	return op
}

// ReadPlan reads a WritePlan payload and checks the plan's geometry; a
// failure is left on r.
func ReadPlan(r *artifact.Reader) *TilePlan {
	p := &TilePlan{}
	p.TileBits = int(r.U32())
	p.NumQubits = int(r.U32())
	p.GlobalBits = int(r.U32())
	p.Segments = make([]Segment, r.Count(minSegmentBytes))
	for i := range p.Segments {
		seg := &p.Segments[i]
		seg.Kind = SegmentKind(r.U8())
		switch seg.Kind {
		case SegRun:
			seg.Ops = make([]statevec.TileOp, r.Count(minTileOpBytes))
			for j := range seg.Ops {
				seg.Ops[j] = readTileOp(r)
			}
		case SegGlobal:
			seg.Instr = readInstr(r)
		case SegBitSwap:
			seg.A = int(r.U32())
			seg.B = int(r.U32())
		case SegExchange:
			seg.TBit = int(r.U32())
			seg.XOps = make([]ExchOp, r.Count(exchOpBytes))
			for j := range seg.XOps {
				x := &seg.XOps[j]
				for mi := range x.M {
					x.M[mi] = r.C128()
				}
				x.LowCtrl = r.U64()
				x.RankCtrl = r.U64()
			}
		default:
			r.Failf("unknown segment kind %d in encoded plan", seg.Kind)
		}
		if r.Err() != nil {
			return p
		}
	}
	if np := r.Count(4); np > 0 {
		p.FinalPerm = make([]int, np)
		for j := range p.FinalPerm {
			p.FinalPerm[j] = int(r.U32())
		}
	}
	p.Stats = ReadPlanStats(r)
	p.Bindable = r.Bool()
	p.BindSlots = int(r.U32())
	if nb := r.Count(bindSiteBytes); nb > 0 {
		p.Binds = make([]BindSite, nb)
		for j := range p.Binds {
			b := &p.Binds[j]
			b.Kind = BindSiteKind(r.U8())
			b.Seg = int(r.U32())
			b.Op = int(r.U32())
			b.Gate = gate.Type(r.U8())
			b.Slot = int(r.U32())
			b.NParams = int(r.U32())
		}
	}
	if r.Err() == nil && (p.NumQubits <= 0 || p.TileBits <= 0 || p.GlobalBits < 0 || p.GlobalBits >= p.NumQubits) {
		r.Failf("decoded plan has inconsistent geometry (%d qubits, tile %d, %d global bits)",
			p.NumQubits, p.TileBits, p.GlobalBits)
	}
	return p
}

// Static struct sizes for byte accounting (unsafe.Sizeof is the exact
// resident footprint of the fixed parts; dynamic slices are added per
// element below).
const (
	instrBase  = int64(unsafe.Sizeof(Instr{}))
	segBase    = int64(unsafe.Sizeof(Segment{}))
	tileOpBase = int64(unsafe.Sizeof(statevec.TileOp{}))
	exchOpBase = int64(unsafe.Sizeof(ExchOp{}))
	bindBase   = int64(unsafe.Sizeof(BindSite{}))
	planBase   = int64(unsafe.Sizeof(TilePlan{}))
	kernelBase = int64(unsafe.Sizeof(Kernel{}))
)

func instrBytes(in Instr) int64 {
	return instrBase + 8*int64(len(in.Qubits)) + 8*int64(len(in.Params)) + 16*int64(len(in.Mat))
}

// SizeBytes returns the kernel's resident memory footprint — the
// figure byte-accounted caches charge for holding it.
func (k *Kernel) SizeBytes() int64 {
	n := kernelBase + int64(len(k.Name))
	for _, in := range k.Instrs {
		n += instrBytes(in)
	}
	return n
}

// SizeBytes returns the plan's resident memory footprint: the segment
// array with every tile micro-op, exchange op, global instruction and
// the final permutation. Byte-accounted plan caches charge this figure
// per entry.
func (p *TilePlan) SizeBytes() int64 {
	n := planBase + 8*int64(len(p.FinalPerm)) + segBase*int64(len(p.Segments)) + bindBase*int64(len(p.Binds))
	for _, seg := range p.Segments {
		for _, op := range seg.Ops {
			n += tileOpBase + 8*int64(len(op.Qubits)) + 16*int64(len(op.Mat))
		}
		n += exchOpBase * int64(len(seg.XOps))
		if seg.Kind == SegGlobal {
			n += instrBytes(seg.Instr) - instrBase // Instr base already inside segBase
		}
	}
	return n
}
