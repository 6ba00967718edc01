package kernel

import (
	"errors"
	"fmt"
	"math"
	mbits "math/bits"
	"slices"

	"qgear/internal/cancel"
	"qgear/internal/gate"
	"qgear/internal/statevec"
)

// The tiled scheduler: a linear pass that compiles a kernel's
// instruction stream into a TilePlan — the execution IR every engine
// consumes. A plan partitions the stream into *runs* of tile-local
// micro-ops — gates whose mixing operands all sit below the tile
// boundary once the lazy qubit permutation is applied — separated by
// the few genuinely global operations that still need a full sweep.
// Executing a run costs one memory pass over the state for the whole
// run (internal/statevec's ApplyTileRun), instead of one pass per gate;
// for gate-run-dominated workloads (QFT's cr1 mass, QCrank's Ry/CX
// ladders) this removes almost all DRAM traffic.
//
// Placement is managed with a logical→physical permutation table:
//   - SWAP gates never move data — they swap two table entries;
//   - a non-diagonal gate targeting a high qubit that will be targeted
//     again is *relabeled*: one physical bit-swap sweep moves it below
//     the boundary (evicting, Bélády-style, the resident qubit whose
//     next mixing use is farthest away), and every later gate on it is
//     tile-local;
//   - a high-target gate used only once falls back to today's full
//     sweep — a relabeling would cost the same pass without the payoff.
//
// Diagonal gates and controls are tile-local at *any* position (a high
// bit is constant within a tile), so only high non-diagonal targets
// ever force data movement.
//
// Distributed plans (PlanConfig.GlobalBits > 0) extend the same
// placement across the rank boundary of the mgpu engine: the top
// GlobalBits qubit positions are rank-index bits, one more kind of high
// position. Diagonal factors and controls there compile into the same
// HighMask predicates — each rank resolves them against its own rank
// bits with zero communication. A non-diagonal target at a rank
// position is always relabeled into the tile, whatever its remaining
// uses (the gate's own control may be the victim: at a rank position it
// is a predicate), and so is a target above the tile whose control sits
// on a rank bit. A bit-swap across the boundary is the plan's only
// communication — one half-shard exchange per rank — after which every
// gate on that qubit is tile-local. SWAPs are table updates on either
// side of the boundary. Before the plan ends every rank position gets
// its own logical qubit back, so FinalPerm never moves a rank bit. The
// distributed engine executes plans and nothing else, so a distributed
// plan always exists: the tile is clamped strictly inside the shard,
// and a 1-qubit shard is one tile.
//
// "No tile" is a plan too: width 0 compiles the per-gate schedule
// (planPerGate), one full sweep per instruction: aer's baseline, and the
// reference the tiled and distributed schedules are held bit-identical
// to. A single-process state that fits one tile is clamped the way a
// shard is, to two tiles of half the state, so each run is one pool
// dispatch over the two halves instead of one dispatch per gate. Below
// the fan-out threshold — half the state under statevec.MinParallelWork,
// 12 qubits or fewer — no per-gate sweep fans out, so there is no
// dispatch per gate to save, and such a state stays per-gate: its plan
// lowers nothing and shares the kernel's instructions, where a split
// plan would lower every gate into a TileOp.

// DefaultTileBits sizes tiles at 2^14 amplitudes × 16 B = 256 KiB —
// resident in any modern L2 — matching the cache blocking of
// hardware-accelerated simulators (Qibo, qibojit). AutoTileBits
// refines it from the detected cache geometry at startup.
const DefaultTileBits = 14

// minResidencyUses is how many remaining mixing uses a high qubit
// needs before a relabeling bit-swap pays for itself: the swap costs
// one sweep, the same as a single global fallback, so it takes two
// uses to come out ahead.
const minResidencyUses = 2

// ErrNoTiling is never returned: a state too small to tile compiles to
// the width-0 plan. It stays declared until benchmark/ (its own module,
// changed in PRs of its own) drops its three references.
var ErrNoTiling = errors.New("kernel: state too small to tile")

// SegmentKind discriminates plan segments.
type SegmentKind uint8

const (
	// SegRun is a run of tile-local micro-ops: one memory pass total.
	SegRun SegmentKind = iota
	// SegGlobal is a single full-sweep instruction (operands already
	// rewritten to physical positions).
	SegGlobal
	// SegBitSwap physically exchanges two bit positions to relabel a
	// hot high qubit into the tile-resident range. In a distributed plan
	// at most one of them is a rank position: the swap is then a
	// half-shard exchange with the partner rank across it.
	SegBitSwap
)

// Segment is one step of a tiled execution plan: a 20-byte header over
// the plan's arenas, so a run of one op costs what the op costs.
type Segment struct {
	Kind SegmentKind
	// [Lo, Hi) is the segment's range of TilePlan.Ops (SegRun) or
	// Globals (SegGlobal, one entry). Ranges follow program order and
	// tile their arena exactly.
	Lo, Hi int32
	// A, B are a SegBitSwap's physical bit positions.
	A, B int32
}

// PlanStats summarizes what the scheduler did. It travels with the
// plan into backend.Result.PlanStats, so the same counters show up in
// CLI output, the serving API, and the bench JSONs.
type PlanStats struct {
	TileLocal     int `json:"tile_local_gates"`   // gate instructions compiled into tile runs
	Global        int `json:"global_sweeps"`      // full-sweep fallbacks
	Runs          int `json:"runs"`               // tile runs emitted (≈ memory passes for local gates)
	BitSwaps      int `json:"bit_swaps"`          // relabeling swaps inserted, rank-boundary ones included
	PermSwaps     int `json:"perm_swaps"`         // SWAP gates absorbed into the permutation table
	FusedOps      int `json:"fused_ops"`          // micro-ops removed by within-run 1q fusion
	ExchangeSegs  int `json:"exchange_segments"`  // relabeling swaps across the rank boundary: one half-shard exchange per rank each
	ExchangeGates int `json:"exchange_gates"`     // always 0 (every gate is a tile op or a sweep); declared for benchmark/
	RankLocal     int `json:"rank_local_globals"` // rank-bit diagonal/control ops resolved with zero communication
}

// PlanConfig tunes plan compilation.
type PlanConfig struct {
	// TileBits is the tile width in qubits. 0 compiles the per-gate
	// schedule, and so does a width a single-process state fits in when
	// half the state is under statevec.MinParallelWork; a wider state
	// that fits is split into two tiles. Negative is an error. The
	// machine's width is AutoTileBits().
	TileBits int
	// GlobalBits marks the top GlobalBits qubit positions as
	// distributed rank-index bits (the mgpu engine's device boundary);
	// 0 compiles a single-process plan.
	GlobalBits int
	// FuseRuns pre-multiplies adjacent same-target single-qubit gates
	// into one mat1 micro-op at compile time, and folds single-target
	// diagonal/phase micro-ops into a neighboring mat1 on the same
	// target (merged 2×2 row/column scale). Off, plans are
	// arithmetic-identical to the per-gate path; on, amplitudes agree
	// to rounding (~1e-15) with fewer in-tile multiplies.
	FuseRuns bool
}

// TilePlan is a compiled execution schedule for one kernel, tiled or
// per-gate — the IR shared by the single-process statevec engine
// (Execute) and the distributed mgpu engine (ExecutePlanCancel). It is
// immutable after planning and safe to execute against many states
// concurrently, which lets the service layer cache plans across jobs.
//
// Everything a segment executes lives in one of two arenas the segment
// headers index into: a plan is three allocations plus its binding
// sites, whatever its length.
type TilePlan struct {
	TileBits   int // 0: the per-gate schedule, every segment a SegGlobal
	NumQubits  int
	GlobalBits int // rank-index bits of a distributed plan; 0 = single-process
	Segments   []Segment
	Ops        []statevec.TileOp // every SegRun's micro-ops, in program order
	Globals    []Instr           // every SegGlobal's instruction, with physical qubit operands (width 0: the kernel's own slice)
	// FinalPerm is the logical→physical layout the state data is left
	// in after all segments run (nil when it ends at the identity);
	// Execute hands it to the state, which materializes lazily on
	// readout. A distributed plan hands every rank position back to its
	// own qubit before it ends, so FinalPerm moves shard positions only
	// and a distributed executor applies FinalPerm[:local] to its shard.
	FinalPerm []int
	Stats     PlanStats
	// Binds locates every parameterized gate's value-derived artifact,
	// letting Bind rebind the plan to new rotation angles without
	// re-planning (see bind.go). BindSlots is the flat parameter-vector
	// length Bind expects; Bindable is false for plans compiled with
	// run fusion, whose matrices were pre-multiplied at compile time.
	Binds     []BindSite
	BindSlots int
	Bindable  bool
}

// planned reports whether the plan compiler emits anything for in:
// barriers, measurements and identities compile to nothing.
func planned(in Instr) bool {
	switch in.Kind {
	case KBarrier, KMeasure:
		return false
	case KGate:
		return in.Gate != gate.Barrier && in.Gate != gate.Measure && in.Gate != gate.I
	}
	return true
}

// mixingTargets appends to dst the logical qubits instruction in mixes
// non-diagonally — the operands that must sit below the tile boundary.
// Diagonal gates, controls, and SWAP (absorbed by the permutation
// table) contribute nothing.
func mixingTargets(in Instr, dst []int) []int {
	switch in.Kind {
	case KFused:
		return append(dst, in.Qubits...)
	case KGate:
		switch {
		case in.Gate == gate.Barrier || in.Gate == gate.Measure || in.Gate == gate.I:
			return dst
		case in.Gate == gate.SWAP:
			return dst
		case statevec.IsDiagonalGate(in.Gate):
			return dst
		case in.Gate.Arity() == 2: // cx, cry: control free, target mixes
			return append(dst, in.Qubits[1])
		default:
			return append(dst, in.Qubits[0])
		}
	}
	return dst
}

// Plan compiles the kernel into an execution plan: the per-gate
// schedule for TileBits 0, and for a single-process state that fits one
// tile while half of it is under statevec.MinParallelWork (12 qubits or
// fewer); tiled otherwise, the tile clamped strictly inside the shard —
// on one process, the state — so a state that fits one tile runs as two.
// The rule reads the qubit count, the width and the rank bits only, so
// every caller compiles a circuit to the same plan. It fails when the
// kernel does not validate or the configuration is inconsistent.
func Plan(k *Kernel, cfg PlanConfig) (*TilePlan, error) {
	tileBits, g := cfg.TileBits, cfg.GlobalBits
	if tileBits < 0 {
		return nil, fmt.Errorf("kernel: negative tile width %d", tileBits)
	}
	if g < 0 || g > 0 && g >= k.NumQubits {
		return nil, fmt.Errorf("kernel: %d global bits out of range for %d qubits", g, k.NumQubits)
	}
	if g > 0 && tileBits == 0 {
		return nil, fmt.Errorf("kernel: a distributed plan (%d global bits) needs a tile width", g)
	}
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("kernel: cannot plan invalid kernel: %w", err)
	}
	n, local := k.NumQubits, k.NumQubits-g
	if tileBits == 0 || g == 0 && tileBits >= n && 1<<n>>1 < statevec.MinParallelWork {
		return planPerGate(k, !cfg.FuseRuns), nil
	}
	// Tiles sit strictly inside the shard — on one process the state, so
	// a state that fits one tile runs as two; a 1-qubit shard is one tile.
	tileBits = max(1, min(tileBits, local-1))
	p := &TilePlan{TileBits: tileBits, NumQubits: n, GlobalBits: g}

	// One pass over the instruction stream sizes what the plan will
	// hold, so ops and binding sites are written in place and no arena
	// regrows. uses[q] lists the instruction indices where q must be
	// tile-resident (ptr[q] advances monotonically as planning walks the
	// stream); the sizing pass counts them into ptr, and every list is
	// carved out of one array. Every planned instruction but a SWAP
	// counts as a tile op; the few that fall back to a global sweep leave
	// their slot unused.
	ptr := make([]int, n)
	var scratch []int
	var nOps, nBinds, nUses int
	for _, in := range k.Instrs {
		if parameterized(in) {
			nBinds++
		}
		scratch = mixingTargets(in, scratch[:0])
		for _, q := range scratch {
			ptr[q]++
		}
		nUses += len(scratch)
		if planned(in) && (in.Kind != KGate || in.Gate != gate.SWAP) {
			nOps++
		}
	}
	uses := make([][]int, n)
	free := make([]int, nUses)
	for q, c := range ptr {
		uses[q], free = free[:0:c], free[c:]
		ptr[q] = 0
	}
	for i, in := range k.Instrs {
		scratch = mixingTargets(in, scratch[:0])
		for _, q := range scratch {
			uses[q] = append(uses[q], i)
		}
	}
	p.Ops = arena[statevec.TileOp](nOps)
	// Fusion pre-multiplies values into matrices, so fused plans record
	// no binding sites and stay non-bindable.
	if p.Bindable = !cfg.FuseRuns; p.Bindable {
		p.Binds = arena[BindSite](nBinds)
	}
	// bind records where the parameterized gate in left its value-derived
	// artifact — op op of segment seg — and advances BindSlots, the
	// gate's offset into the flat parameter vector (program order).
	bind := func(kind BindSiteKind, seg, op int, in Instr) {
		if !parameterized(in) {
			return
		}
		if p.Bindable {
			p.Binds = append(p.Binds, BindSite{Kind: kind, Gate: in.Gate, Seg: int32(seg), Op: int32(op), Slot: int32(p.BindSlots), NParams: int32(len(in.Params))})
		}
		p.BindSlots += len(in.Params)
	}

	nextUse := func(q, i int) int { // first mixing use at or after i
		for ptr[q] < len(uses[q]) && uses[q][ptr[q]] < i {
			ptr[q]++
		}
		if ptr[q] == len(uses[q]) {
			return math.MaxInt
		}
		return uses[q][ptr[q]]
	}
	remainingUses := func(q, i int) int {
		nextUse(q, i)
		return len(uses[q]) - ptr[q]
	}

	perm := make([]int, n) // logical → physical
	inv := make([]int, n)  // physical → logical
	for q := range perm {
		perm[q], inv[q] = q, q
	}

	// run indexes the open SegRun header — the one the next tile op
	// extends in place — or is -1; closing it is forgetting its index.
	run := -1

	// swap emits a physical bit-swap of positions a < b; b at a rank
	// position makes it an exchange with the partner rank.
	swap := func(a, b int) {
		run = -1
		p.Segments = append(p.Segments, Segment{Kind: SegBitSwap, A: int32(a), B: int32(b)})
		p.Stats.BitSwaps++
		if b >= local {
			p.Stats.ExchangeSegs++
		}
		la, lb := inv[a], inv[b]
		perm[la], perm[lb] = b, a
		inv[a], inv[b] = lb, la
	}

	// relabel brings logical qubit q below position span (the tile, or
	// the shard for a fused block wider than the tile) with one bit-swap,
	// evicting the resident qubit whose next mixing use is farthest away
	// and that keep does not name. It reports whether a slot qualified.
	relabel := func(keep []int, q, i, span int) bool {
		victim, victimNext := -1, -1
		for v := 0; v < span; v++ {
			lq := inv[v]
			if slices.Contains(keep, lq) {
				continue
			}
			nu := nextUse(lq, i+1)
			if nu == math.MaxInt { // never mixed again: perfect victim
				victim, victimNext = v, nu
				break
			}
			if nu > victimNext {
				victim, victimNext = v, nu
			}
		}
		if victim >= 0 {
			swap(victim, perm[q])
		}
		return victim >= 0
	}

	// plainMat1 reports whether op is an uncontrolled, unpredicated
	// mat1 micro-op — the only mat1 shape within-run fusion touches.
	plainMat1 := func(op *statevec.TileOp) bool {
		return op.Kind == statevec.TileMat1 && !op.HasCtrl && op.HighMask == 0
	}

	// diagFactors recognizes a single-target, unpredicated diagonal
	// micro-op on a low target and returns it as diag(a, b) on t:
	// TileRelPhase directly, TileDiag with one low bit as diag(1, Phase).
	diagFactors := func(op *statevec.TileOp) (t uint8, a, b complex128, ok bool) {
		if op.HighMask != 0 {
			return 0, 0, 0, false
		}
		switch op.Kind {
		case statevec.TileRelPhase:
			a, b = op.AB()
			return op.T, a, b, true
		case statevec.TileDiag:
			if mbits.OnesCount64(op.LowMask) == 1 {
				return uint8(mbits.TrailingZeros64(op.LowMask)), 1, op.Phase(), true
			}
		}
		return 0, 0, 0, false
	}

	// appendRunOp adds a compiled micro-op to the open run, folding it
	// into the previous op when within-run fusion (cfg.FuseRuns)
	// applies: adjacent uncontrolled, unpredicated mat1 ops on the same
	// target pre-multiply at compile time, and single-target diagonal
	// micro-ops fold into a neighboring mat1 on the same target as a
	// row scale (diag after mat1: D·M) or column scale (mat1 after
	// diag: M·D) — one merged 2×2 instead of two passes over the pair.
	// Adjacent diagonals on one target collapse to a single
	// TileRelPhase. Folding reassociates the products, so fused plans
	// agree with per-gate execution to rounding, not bitwise — the
	// documented FuseRuns trade.
	appendRunOp := func(op statevec.TileOp) {
		if run < 0 {
			run = len(p.Segments)
			p.Segments = append(p.Segments, Segment{Kind: SegRun, Lo: int32(len(p.Ops)), Hi: int32(len(p.Ops))})
			p.Stats.Runs++
		} else if cfg.FuseRuns {
			last := &p.Ops[len(p.Ops)-1]
			if plainMat1(&op) {
				if plainMat1(last) && last.T == op.T {
					last.M = op.M.Mul(last.M)
					p.Stats.FusedOps++
					return
				}
				if t, a, b, ok := diagFactors(last); ok && t == op.T {
					m := op.M // column-scale: combined = M·diag(a, b)
					m[0] *= a
					m[2] *= a
					m[1] *= b
					m[3] *= b
					*last = statevec.TileOp{Kind: statevec.TileMat1, T: op.T, M: m}
					p.Stats.FusedOps++
					return
				}
			} else if t, a, b, ok := diagFactors(&op); ok {
				if plainMat1(last) && last.T == t {
					// row-scale: combined = diag(a, b)·M
					last.M[0] *= a
					last.M[1] *= a
					last.M[2] *= b
					last.M[3] *= b
					p.Stats.FusedOps++
					return
				}
				if lt, la, lb, lok := diagFactors(last); lok && lt == t {
					*last = statevec.RelPhaseOp(la*a, lb*b, t, 0)
					p.Stats.FusedOps++
					return
				}
			}
		}
		p.Ops = append(p.Ops, op)
		p.Segments[run].Hi++
	}

	// add processes one instruction.
	add := func(in Instr, i int) error {
		if !planned(in) {
			return nil
		}
		if in.Kind == KGate && in.Gate == gate.SWAP {
			a, b := in.Qubits[0], in.Qubits[1]
			pa, pb := perm[a], perm[b]
			perm[a], perm[b] = pb, pa
			inv[pa], inv[pb] = b, a
			p.Stats.PermSwaps++
			return nil
		}
		// A fused block wider than the tile runs as a shard sweep, which
		// needs its operands in the shard: it may name shard-local qubits
		// only (backend keeps fusion below the rank boundary).
		if in.Kind == KFused {
			if j := slices.IndexFunc(in.Qubits, func(q int) bool { return q >= local }); j >= 0 {
				return fmt.Errorf("kernel: fused op touches rank-global qubit %d; restrict fusion to local qubits", in.Qubits[j])
			}
		}

		scratch = mixingTargets(in, scratch[:0])

		// Relabel any mixing target off a rank position — into the tile,
		// the gate's own control a possible victim — and any high one
		// that will be mixed again or whose control sits on a rank bit
		// (no full sweep is predicated on a rank bit).
		fits := len(scratch) <= tileBits
		rankCtrl := in.Kind == KGate && in.Gate.Arity() == 2 && perm[in.Qubits[0]] >= local
		for _, q := range scratch {
			switch pq := perm[q]; {
			case pq >= local:
				span := tileBits
				if !fits {
					span = local
				}
				if !relabel(scratch, q, i, span) {
					return fmt.Errorf("kernel: no shard position free for rank-global qubit %d", q)
				}
			case pq >= tileBits && fits && (rankCtrl || remainingUses(q, i) >= minResidencyUses):
				relabel(in.Qubits, q, i, tileBits)
			}
		}

		if slices.ContainsFunc(scratch, func(q int) bool { return perm[q] >= tileBits }) {
			run = -1
			at := int32(len(p.Globals))
			p.Globals = append(p.Globals, physInstr(in, perm))
			bind(BindGlobal, len(p.Segments), 0, in)
			p.Segments = append(p.Segments, Segment{Kind: SegGlobal, Lo: at, Hi: at + 1})
			p.Stats.Global++
			return nil
		}
		op := compileTileOp(in, perm, tileBits)
		if g > 0 && op.HighMask>>uint(local) != 0 {
			p.Stats.RankLocal++
		}
		appendRunOp(op)
		bind(BindRun, run, len(p.Ops)-1-int(p.Segments[run].Lo), in)
		p.Stats.TileLocal++
		return nil
	}

	for i, in := range k.Instrs {
		if err := add(in, i); err != nil {
			return nil, err
		}
	}
	// Every rank position gets its own qubit back: one swap from the
	// shard position it sits at, or two — through position 0 — when it is
	// parked on another rank position.
	for r := local; r < n; r++ {
		if perm[r] != r && perm[r] >= local {
			swap(0, perm[r])
		}
		if perm[r] != r {
			swap(perm[r], r)
		}
	}

	identity := true
	for q, pos := range perm {
		if q != pos {
			identity = false
			break
		}
	}
	if !identity {
		p.FinalPerm = append([]int(nil), perm...)
	}
	return p, nil
}

// planPerGate compiles the width-0 plan: one SegGlobal per planned
// instruction at the identity layout, so a SWAP stays a real sweep and
// nothing is left to materialize. No op is lowered — the plan executes
// the kernel's own instructions: Globals is the shared, capacity-clipped
// prefix of k.Instrs when every barrier and measurement trails the gates
// (any measured circuit) and a filtered copy otherwise, DeepEqual to the
// decoded plan either way. Only headers and binding sites are allocated.
func planPerGate(k *Kernel, bindable bool) *TilePlan {
	p := &TilePlan{NumQubits: k.NumQubits, Bindable: bindable}
	m, nBinds, prefix := 0, 0, true
	for i, in := range k.Instrs {
		if planned(in) {
			prefix = prefix && i == m
			m++
			if bindable && parameterized(in) {
				nBinds++
			}
		}
	}
	if m == 0 {
		return p
	}
	p.Globals = k.Instrs[:m:m]
	if !prefix {
		p.Globals = slices.DeleteFunc(slices.Clone(k.Instrs), func(in Instr) bool { return !planned(in) })
	}
	p.Segments, p.Binds, p.Stats.Global = make([]Segment, m), arena[BindSite](nBinds), m
	for i, in := range p.Globals {
		p.Segments[i] = Segment{Kind: SegGlobal, Lo: int32(i), Hi: int32(i + 1)}
		if parameterized(in) {
			if bindable {
				p.Binds = append(p.Binds, BindSite{Kind: BindGlobal, Gate: in.Gate, Seg: int32(i), Slot: int32(p.BindSlots), NParams: int32(len(in.Params))})
			}
			p.BindSlots += len(in.Params)
		}
	}
	return p
}

// physInstr rewrites an instruction's operands to physical positions.
func physInstr(in Instr, perm []int) Instr {
	out := in
	out.Qubits = make([]int, len(in.Qubits))
	for j, q := range in.Qubits {
		out.Qubits[j] = perm[q]
	}
	return out
}

// compileTileOp lowers one tile-local instruction to a micro-op. The
// matrices and phases are derived exactly as the per-gate path derives
// them (statevec.ApplyGate), keeping the two executors
// arithmetic-identical. Positions at or above the tile width
// land in HighMask — including rank-bit positions of distributed
// plans, which each rank's shard base answers (statevec.ApplyTileRun).
func compileTileOp(in Instr, perm []int, tileBits int) statevec.TileOp {
	split := func(pos int) (low uint64, high uint64) {
		if pos < tileBits {
			return 1 << uint(pos), 0
		}
		return 0, 1 << uint(pos)
	}
	// ctrl places a control: a low one is the op's C, a high one a
	// HighMask predicate.
	ctrl := func(op statevec.TileOp, pos int) statevec.TileOp {
		if pos < tileBits {
			op.C, op.HasCtrl = uint8(pos), true
		} else {
			op.HighMask = 1 << uint(pos)
		}
		return op
	}
	if in.Kind == KFused {
		fb := &statevec.FusedBlock{Mat: in.Mat, Qubits: make([]uint, len(in.Qubits))}
		for j, q := range in.Qubits {
			fb.Qubits[j] = uint(perm[q])
		}
		return statevec.TileOp{Kind: statevec.TileFused, Fused: fb}
	}
	g := in.Gate
	switch {
	case statevec.IsDiagonalGate(g):
		switch g {
		case gate.RZ:
			m := gate.Matrix1(g, in.Params)
			pos := perm[in.Qubits[0]]
			if pos < tileBits {
				return statevec.RelPhaseOp(m[0], m[3], uint8(pos), 0)
			}
			return statevec.RelPhaseOp(m[0], m[3], 0, 1<<uint(pos))
		default: // z, s, sdg, t, tdg, p, cz, cp: one phase where every operand bit is 1
			phase := complex128(-1) // cz
			if g == gate.CP {
				phase = gate.Matrix1(gate.P, in.Params)[3]
			} else if g != gate.CZ {
				phase = gate.Matrix1(g, in.Params)[3]
			}
			var lowMask, highMask uint64
			for _, q := range in.Qubits {
				low, high := split(perm[q])
				lowMask |= low
				highMask |= high
			}
			return statevec.DiagOp(phase, lowMask, highMask)
		}
	case g == gate.CX:
		return ctrl(statevec.TileOp{Kind: statevec.TileCX, T: uint8(perm[in.Qubits[1]])}, perm[in.Qubits[0]])
	case g == gate.CRY: // cz/cp are diagonal, swap never reaches here
		return ctrl(statevec.TileOp{Kind: statevec.TileMat1, T: uint8(perm[in.Qubits[1]]), M: gate.Matrix1(gate.RY, in.Params)}, perm[in.Qubits[0]])
	case g.Arity() == 2:
		panic(fmt.Sprintf("kernel: unhandled two-qubit gate %v in tile compiler", g))
	default:
		return statevec.TileOp{Kind: statevec.TileMat1, T: uint8(perm[in.Qubits[0]]), M: gate.Matrix1(g, in.Params)}
	}
}

// Execute runs a single-process plan against a state. The state must
// be in the canonical layout (any pending permutation is materialized
// first); afterwards the state carries the plan's final permutation,
// which readout materializes lazily. Distributed plans (GlobalBits >
// 0) belong to mgpu.DistState.ExecutePlanCancel and are rejected here.
func (p *TilePlan) Execute(s *statevec.State) error {
	return p.ExecuteCancel(s, nil)
}

// ExecuteCancel is Execute with a cooperative cancellation flag, polled
// once per segment — a tile run is the natural unit of interruptible
// work (one full memory pass over the state). A nil flag never trips.
func (p *TilePlan) ExecuteCancel(s *statevec.State, flag *cancel.Flag) error {
	if p.GlobalBits != 0 {
		return fmt.Errorf("kernel: distributed plan (%d rank bits) cannot run on a single state", p.GlobalBits)
	}
	if s.NumQubits() != p.NumQubits {
		return fmt.Errorf("kernel: state has %d qubits, plan wants %d", s.NumQubits(), p.NumQubits)
	}
	s.MaterializePerm()
	for i, seg := range p.Segments {
		if err := flag.Err(); err != nil {
			return fmt.Errorf("kernel: segment %d: %w", i, err)
		}
		switch seg.Kind {
		case SegRun:
			if err := s.ApplyTileRun(p.TileBits, 0, p.Ops[seg.Lo:seg.Hi]); err != nil {
				return fmt.Errorf("kernel: tile run %d: %w", i, err)
			}
		case SegBitSwap:
			s.ApplySwap(int(seg.A), int(seg.B))
		case SegGlobal:
			if err := p.Globals[seg.Lo].Apply(s); err != nil {
				return fmt.Errorf("kernel: global segment %d: %w", i, err)
			}
		default:
			return fmt.Errorf("kernel: segment %d has kind %d, which no single-process executor handles", i, seg.Kind)
		}
	}
	if p.FinalPerm != nil {
		return s.SetPermutation(p.FinalPerm)
	}
	return nil
}
