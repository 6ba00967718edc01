package kernel

import (
	"io"
	"math"
	"slices"
	"unsafe"

	"qgear/internal/artifact"
	"qgear/internal/gate"
	"qgear/internal/statevec"
)

// Binary serialization for the execution IR: kernels and compiled
// TilePlans are artifact payloads (internal/artifact). EncodePlan seals
// one plan per artifact; WriteKernel/ReadKernel and WritePlan/ReadPlan
// are the payload halves, for the artifacts that embed them (a
// backend.Compiled, a store plan file) under their own single checksum.
// Encodings are exact — float64 parameters and complex matrix entries
// are written bit-for-bit — so a decoded plan executes
// amplitude-identically to the one that was saved.

// serialVersion tags the kernel and plan payload layouts.
const serialVersion uint16 = 1

// wireGlobalGroup is the wire tag of a SegGlobal that covers a diagonal
// group: a count and the members' instructions. A one-instruction sweep
// keeps SegGlobal's tag and layout, so plans without a group encode as
// they always have. Tag 3 was a batched rank-exchange segment.
const wireGlobalGroup = 4

// Smallest encodings of one element, the divisors of Reader.Count.
const (
	minInstrBytes   = 1 + 1 + 4 + 4 + 4 + 8
	minSegmentBytes = 1 + 4
	minTileOpBytes  = 1 + 4 + 4 + 1 + 8 + 8 + 7*16 + 4 + 4
	bindSiteBytes   = 1 + 4 + 4 + 1 + 4 + 4
	planStatsBytes  = 9 * 8
)

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
	w.Count(0) // the matrix of a fused block, which no instruction has now
	w.Int(in.Clbit)
}

func readInstr(r *artifact.Reader) Instr {
	var in Instr
	if in.Kind = InstrKind(r.U8()); in.Kind != KGate && in.Kind != KMeasure && in.Kind != KBarrier {
		r.Failf("unknown instruction kind %d (kind 1 was a fused block)", in.Kind)
	}
	in.Gate = gate.Type(r.U8())
	if nq := r.Count(4); nq > 0 {
		in.Qubits = make([]int, nq)
		for j := range in.Qubits {
			in.Qubits[j] = int(r.U32())
		}
	}
	in.Params = r.F64s()
	noFused(r, 16, "instruction")
	in.Clbit = r.Int()
	return in
}

// noFused reads one of the wire's counted slots for a fused block's
// contents — elements of elem bytes — which a writer leaves empty now
// that nothing fuses, and refuses a non-empty one.
func noFused(r *artifact.Reader, elem int, what string) {
	if n := r.Count(elem); n != 0 {
		r.Failf("%s carries a fused block (%d elements); gate fusion was removed", what, n)
	}
}

// WriteStats appends the transformation statistics. The two slots after
// EmittedOps counted fused blocks and the gates they absorbed; they are
// written as 0.
func WriteStats(w *artifact.Writer, s Stats) {
	for _, v := range [...]int{s.SourceOps, s.EmittedOps, 0, 0, s.PrunedGates, s.Measurements} {
		w.Int(v)
	}
}

// ReadStats reads what WriteStats wrote, refusing non-zero fused counts.
func ReadStats(r *artifact.Reader) (s Stats) {
	var fusedGroups, fusedGates int
	for _, dst := range [...]*int{&s.SourceOps, &s.EmittedOps, &fusedGroups, &fusedGates, &s.PrunedGates, &s.Measurements} {
		*dst = r.Int()
	}
	if fusedGroups != 0 || fusedGates != 0 {
		r.Failf("kernel statistics count %d fused blocks of %d gates; gate fusion was removed", fusedGroups, fusedGates)
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
	aw := artifact.NewWriter(p.EncodedLen())
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
// encode fails the Writer. The layout predates the arenas and is
// unchanged by them: every segment carries its own ops inline, and a
// tile op spells out Phase, A, B and the 2×2 as separate fields.
func WritePlan(w *artifact.Writer, p *TilePlan) {
	w.U32(uint32(p.TileBits))
	w.U32(uint32(p.NumQubits))
	w.U32(uint32(p.GlobalBits))
	w.Count(len(p.Segments))
	for _, seg := range p.Segments {
		if seg.Kind == SegGlobal && seg.Hi-seg.Lo > 1 {
			w.U8(wireGlobalGroup)
			w.Count(int(seg.Hi - seg.Lo))
			for _, in := range p.Globals[seg.Lo:seg.Hi] {
				writeInstr(w, in)
			}
			continue
		}
		w.U8(uint8(seg.Kind))
		switch seg.Kind {
		case SegRun:
			ops := p.Ops[seg.Lo:seg.Hi]
			w.Count(len(ops))
			for i := range ops {
				writeTileOp(w, &ops[i])
			}
		case SegGlobal:
			writeInstr(w, p.Globals[seg.Lo])
		case SegBitSwap:
			w.U32(uint32(seg.A))
			w.U32(uint32(seg.B))
		default:
			w.Failf("cannot encode segment kind %d", seg.Kind)
		}
	}
	w.Count(len(p.FinalPerm))
	for _, q := range p.FinalPerm {
		w.U32(uint32(q))
	}
	WritePlanStats(w, p.Stats)
	w.Bool(true) // bindable: every plan is, and the reader refuses false
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

func writeTileOp(w *artifact.Writer, op *statevec.TileOp) {
	w.U8(uint8(op.Kind))
	w.U32(uint32(op.T))
	w.U32(uint32(op.C))
	w.Bool(op.HasCtrl)
	w.U64(op.HighMask)
	w.U64(op.LowMask)
	// The one value slot spreads over the wire's seven: a TileMat1 writes
	// its matrix and zero factors, every other kind its factors and a
	// zero matrix. readTileOp accepts exactly these shapes.
	var phase, a, b complex128
	m := op.M
	if op.Kind != statevec.TileMat1 {
		a, b = op.AB()
		phase, m = op.Phase(), gate.Mat2{}
	}
	w.C128(phase)
	w.C128(a)
	w.C128(b)
	for _, v := range m {
		w.C128(v)
	}
	w.Count(0) // a fused block's qubits
	w.Count(0) // and its matrix
}

// valueBits is 0 only for +0 values: a -0 compares equal to 0, so it
// would decode and then re-encode as +0.
func valueBits(vs ...complex128) (b uint64) {
	for _, v := range vs {
		b |= math.Float64bits(real(v)) | math.Float64bits(imag(v))
	}
	return b
}

// readTileOp fails the Reader on what the 88-byte form cannot hold — a
// kind it does not have (4 was a fused block), a position that is no bit
// position, factors on a TileMat1, a matrix on any other kind, a fused
// block's contents — so what decodes re-encodes to the bytes it came
// from.
func readTileOp(r *artifact.Reader) statevec.TileOp {
	var op statevec.TileOp
	switch op.Kind = statevec.TileOpKind(r.U8()); op.Kind {
	case statevec.TileMat1, statevec.TileCX, statevec.TileDiag, statevec.TileRelPhase, statevec.TileTable:
	default:
		r.Failf("unknown tile op kind %d (kind 4 was a fused block)", op.Kind)
	}
	t, c := r.U32(), r.U32()
	if t > 63 || c > 63 {
		r.Failf("tile op positions %d, %d are not bit positions", t, c)
	}
	op.T, op.C = uint8(t), uint8(c)
	op.HasCtrl = r.Bool()
	op.HighMask = r.U64()
	op.LowMask = r.U64()
	phase, a, b := r.C128(), r.C128(), r.C128()
	for i := range op.M {
		op.M[i] = r.C128()
	}
	if op.Kind != statevec.TileMat1 {
		if valueBits(op.M[:]...) != 0 {
			r.Failf("tile op of kind %d carries a 2×2 matrix", op.Kind)
		}
		op.M = gate.Mat2{0: a, 1: phase, 3: b}
	} else if valueBits(phase, a, b) != 0 {
		r.Failf("mat1 tile op carries diagonal factors")
	}
	noFused(r, 4, "tile op")
	noFused(r, 16, "tile op")
	return op
}

// arenaSizes scans nseg segments on a copy of the reader and counts the
// tile ops and global instructions in them, so ReadPlan allocates each
// arena once at its final size. Every element counted was skipped, so
// no payload claims more than it has bytes for.
func arenaSizes(r artifact.Reader, nseg int) (ops, globals int) {
	skip := func(elem int) int { // one counted vector
		n := r.Count(elem)
		r.Skip(n * elem)
		return n
	}
	instr := func() {
		globals++
		r.Skip(2)
		skip(4)
		skip(8)
		skip(16)
		r.Skip(8)
	}
	for ; nseg > 0 && r.Err() == nil; nseg-- {
		switch SegmentKind(r.U8()) {
		case SegRun:
			n := r.Count(minTileOpBytes)
			for ops += n; n > 0; n-- {
				r.Skip(minTileOpBytes - 8)
				skip(4)
				skip(16)
			}
		case SegGlobal:
			instr()
		case wireGlobalGroup:
			for n := r.Count(minInstrBytes); n > 0 && r.Err() == nil; n-- {
				instr()
			}
		case SegBitSwap:
			r.Skip(8)
		default:
			return // ReadPlan fails on it
		}
	}
	return
}

// arena returns an empty arena with room for n elements; nil for none,
// so a plan that holds nothing of a kind is the same value however it
// was made.
func arena[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// ReadPlan reads a WritePlan payload and checks the plan's geometry; a
// failure is left on r. Segment ranges are assigned as the arenas fill,
// so they tile them exactly whatever the bytes say. What no executor
// can run is refused here rather than at execution: a bit-swap of a
// position with itself or outside the register, or of two rank
// positions; a global sweep with an operand outside the shard; a
// segment or binding-site kind the format does not have (kind 3 was a
// batched rank-exchange segment, kind 2 its binding site); a diagonal
// group whose header counts members outside its run, holds one that is
// not diagonal, or reads more than statevec.MaxTableBits free bits; and
// a sweep of several instructions that is not such a group of a width-0
// plan.
func ReadPlan(r *artifact.Reader) *TilePlan {
	p := &TilePlan{}
	p.TileBits = int(r.U32())
	p.NumQubits = int(r.U32())
	p.GlobalBits = int(r.U32())
	local := p.NumQubits - p.GlobalBits
	if n := r.Count(minSegmentBytes); n > 0 { // none is nil, as Plan leaves it
		p.Segments = make([]Segment, n)
	}
	nOps, nGlobals := arenaSizes(*r, len(p.Segments))
	p.Ops, p.Globals = arena[statevec.TileOp](nOps), arena[Instr](nGlobals)
	for i := range p.Segments {
		seg := &p.Segments[i]
		seg.Kind = SegmentKind(r.U8())
		switch seg.Kind {
		case SegRun:
			seg.Lo = int32(len(p.Ops))
			for n := r.Count(minTileOpBytes); n > 0; n-- {
				p.Ops = append(p.Ops, readTileOp(r))
			}
			seg.Hi = int32(len(p.Ops))
			if err := statevec.CheckGroups(p.Ops[seg.Lo:seg.Hi]); err != nil && r.Err() == nil {
				r.Failf("segment %d: %v", i, err)
			}
		case SegGlobal, wireGlobalGroup:
			n := 1
			if seg.Kind == wireGlobalGroup {
				if n = r.Count(minInstrBytes); n < 2 || p.TileBits != 0 {
					r.Failf("segment %d sweeps %d instructions in a plan of tile width %d", i, n, p.TileBits)
				}
			}
			seg.Kind, seg.Lo = SegGlobal, int32(len(p.Globals))
			for ; n > 0 && r.Err() == nil; n-- {
				in := readInstr(r)
				if slices.ContainsFunc(in.Qubits, func(q int) bool { return q >= local }) {
					r.Failf("global segment %d has an operand outside the %d-qubit shard", i, local)
				}
				p.Globals = append(p.Globals, in)
			}
			seg.Hi = int32(len(p.Globals))
			if err := checkGroup(p.Globals[seg.Lo:seg.Hi]); err != nil && r.Err() == nil {
				r.Failf("segment %d: %v", i, err)
			}
		case SegBitSwap:
			a, b := int(r.U32()), int(r.U32())
			if a == b || max(a, b) >= p.NumQubits || min(a, b) >= local {
				r.Failf("segment %d swaps bit positions %d and %d of %d qubits (%d rank bits)", i, a, b, p.NumQubits, p.GlobalBits)
			}
			seg.A, seg.B = int32(a), int32(b)
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
	if !r.Bool() && r.Err() == nil {
		r.Failf("encoded plan is not bindable (compiled with the removed run fusion)")
	}
	p.BindSlots = int(r.U32())
	if nb := r.Count(bindSiteBytes); nb > 0 {
		p.Binds = make([]BindSite, nb)
		for j := range p.Binds {
			b := &p.Binds[j]
			b.Kind = BindSiteKind(r.U8())
			b.Seg = int32(r.U32())
			b.Op = int32(r.U32())
			b.Gate = gate.Type(r.U8())
			b.Slot = int32(r.U32())
			b.NParams = int32(r.U32())
			if b.Kind > BindGlobal {
				r.Failf("unknown binding site kind %d in encoded plan", b.Kind)
			}
		}
	}
	// Width 0 is the single-process per-gate schedule and nothing else.
	ok := p.TileBits > 0 && p.GlobalBits >= 0 && p.GlobalBits < p.NumQubits
	if p.TileBits == 0 {
		ok = p.GlobalBits == 0 && !slices.ContainsFunc(p.Segments, func(seg Segment) bool { return seg.Kind != SegGlobal })
	}
	if r.Err() == nil && !ok {
		r.Failf("decoded plan has inconsistent geometry (%d qubits, tile %d, %d global bits)",
			p.NumQubits, p.TileBits, p.GlobalBits)
	}
	return p
}

// Two sizes of one value: SizeBytes is the resident footprint a
// byte-accounted cache charges, EncodedLen the exact payload length a
// Writer is sized with so that it never regrows mid-save. A tile op is
// 88 bytes in memory and 146 on the wire. unsafe.Sizeof is the
// exact footprint of the fixed parts; slices are added per element.
const (
	instrBase  = int64(unsafe.Sizeof(Instr{}))
	segBase    = int64(unsafe.Sizeof(Segment{}))
	tileOpBase = int64(unsafe.Sizeof(statevec.TileOp{}))
	bindBase   = int64(unsafe.Sizeof(BindSite{}))
	planBase   = int64(unsafe.Sizeof(TilePlan{}))
	kernelBase = int64(unsafe.Sizeof(Kernel{}))
)

// instrSizes is what one instruction adds to either size.
func instrSizes(in Instr) (resident int64, encoded int) {
	q, v := len(in.Qubits), 8*len(in.Params)
	return instrBase + int64(8*q+v), minInstrBytes + 4*q + v
}

func (k *Kernel) sizes() (resident int64, encoded int) {
	resident, encoded = kernelBase+int64(len(k.Name)), 4+len(k.Name)+3*4
	for _, in := range k.Instrs {
		r, e := instrSizes(in)
		resident, encoded = resident+r, encoded+e
	}
	return
}

// SizeBytes returns the kernel's resident memory footprint.
func (k *Kernel) SizeBytes() int64 { r, _ := k.sizes(); return r }

// EncodedLen returns the length of k's WriteKernel payload.
func (k *Kernel) EncodedLen() int { _, e := k.sizes(); return e }

// segFieldBytes is what follows a segment's kind byte, its ops aside: a
// count, nothing (a group's count is added apart), two positions.
var segFieldBytes = [4]int{SegRun: 4, SegGlobal: 0, SegBitSwap: 8}

func (p *TilePlan) sizes() (resident int64, encoded int) {
	resident = planBase + 8*int64(len(p.FinalPerm)) + segBase*int64(cap(p.Segments)) + bindBase*int64(cap(p.Binds)) +
		tileOpBase*int64(cap(p.Ops))
	encoded = 5*4 + 4*len(p.FinalPerm) + planStatsBytes + 1 + 2*4 + bindSiteBytes*len(p.Binds) +
		minTileOpBytes*len(p.Ops)
	for _, seg := range p.Segments {
		encoded += 1 + segFieldBytes[seg.Kind&3] // an unknown kind fails the encode anyway
		if seg.Kind == SegGlobal && seg.Hi-seg.Lo > 1 {
			encoded += 4
		}
	}
	for _, in := range p.Globals {
		r, e := instrSizes(in)
		resident, encoded = resident+r, encoded+e
	}
	return resident + instrBase*int64(cap(p.Globals)-len(p.Globals)), encoded
}

// SizeBytes returns the plan's resident memory footprint: headers,
// binding sites and arenas at their capacity (a global sweep leaves an
// op slot unused), what global instructions point at, and the final
// permutation.
func (p *TilePlan) SizeBytes() int64 { r, _ := p.sizes(); return r }

// SizeBytesBeside is SizeBytes for an owner that also holds, and charges
// in full, the kernel p was compiled from: a width-0 plan executes k's
// own instruction slice (planPerGate), which is resident once.
func (p *TilePlan) SizeBytesBeside(k *Kernel) int64 {
	n := p.SizeBytes()
	if len(p.Globals) > 0 && len(k.Instrs) > 0 && &p.Globals[0] == &k.Instrs[0] {
		n -= (&Kernel{Instrs: p.Globals}).SizeBytes() - kernelBase
	}
	return n
}

// EncodedLen returns the length of p's WritePlan payload.
func (p *TilePlan) EncodedLen() int { _, e := p.sizes(); return e }
