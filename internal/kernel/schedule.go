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
//   - a resident qubit's last mixing use makes it the perfect victim,
//     so the relabel that would evict it later is made right there
//     (evictEarly): the outside qubit the planner relabels next moves
//     into its slot while the state is still sparse. Under the support
//     skip (statevec.State) a tile or rank whose high bits hold a qubit
//     never yet mixed holds only zeros and does nothing; moving those
//     qubits down early puts a mixed one above every tile — the
//     global/local qubit swap of Qibo's distributed engine, made where
//     it is cheapest — so every worker and every rank has work, with
//     the same swaps and exchanges the plan would pay anyway;
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
// Diagonal groups: every maximal run of two or more adjacent diagonal
// gates (diagGroup, one rule for every plan shape) runs as one
// phase-table pass (statevec/table.go). In a tiled or distributed plan
// the group is a TileTable header op followed by its members' own
// micro-ops, all in one run — a diagonal gate never relabels or falls
// back — and in the per-gate plan one SegGlobal over the members'
// instructions. Members keep their binding sites either way.
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

// evictFloor is the lowest in-tile position an early eviction takes
// its victim from (see Plan's evictEarly). The classical qubit moving
// in stays known until its first mixing use, and every sweep skips the
// half of the tile it rules out, so its position is the width of the
// contiguous windows the sweeps run on until then: at position p,
// windows of 2^p amplitudes. On QCrank a9_d6 at one worker
// (internal/backend's BenchmarkQCrankSchedule, 2-core Xeon, go1.24.0,
// medians of three runs of 15 ops) a floor of 0 ran 52 ms per run, 4
// 48 ms, 5 40 ms, 6 35 ms, 7 37 ms and 8 34 ms, against 43 ms with no
// early eviction. 6 is the lowest floor at the plateau, and it leaves
// QCrank's three address qubits 6–8 to park the three data qubits a
// 4-rank plan holds above its tile.
const evictFloor = 6

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
	// Globals (SegGlobal: one entry, or a width-0 plan's diagonal group).
	// Ranges follow program order and tile their arena exactly.
	Lo, Hi int32
	// A, B are a SegBitSwap's physical bit positions.
	A, B int32
}

// PlanStats summarizes what the scheduler did. It travels with the
// plan into backend.Result.PlanStats, so the same counters show up in
// CLI output, the serving API, and the bench JSONs.
type PlanStats struct {
	TileLocal     int `json:"tile_local_gates"`   // gate instructions compiled into tile runs
	Global        int `json:"global_sweeps"`      // full sweeps: fallbacks, a width-0 plan's gates and diagonal groups
	Runs          int `json:"runs"`               // tile runs emitted (≈ memory passes for local gates)
	BitSwaps      int `json:"bit_swaps"`          // relabeling swaps inserted, rank-boundary ones included
	PermSwaps     int `json:"perm_swaps"`         // SWAP gates absorbed into the permutation table
	FusedOps      int `json:"fused_ops"`          // always 0 (nothing fuses; a tile run is the fusion); declared for benchmark/
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
	Globals    []Instr           // every SegGlobal's instructions, with physical qubit operands (width 0: the kernel's own slice)
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
	// length Bind expects.
	Binds     []BindSite
	BindSlots int
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
	switch {
	case in.Kind != KGate:
		return dst
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

// diagMasks returns the qubits a diagonal gate requires to be 1 for its
// factor to apply (req: every operand of z, s, sdg, t, tdg, p, cz, cp;
// none of rz) and every qubit it reads (all); ok is false for any other
// instruction.
func diagMasks(in Instr) (req, all uint64, ok bool) {
	if in.Kind != KGate || !statevec.IsDiagonalGate(in.Gate) {
		return 0, 0, false
	}
	for _, q := range in.Qubits {
		if q >= 64 {
			return 0, 0, false
		}
		all |= 1 << uint(q)
	}
	if in.Gate != gate.RZ {
		req = all
	}
	return req, all, true
}

// diagGroup is the grouping rule every plan shape shares, on the
// kernel's logical instruction stream: it returns how many instructions
// from the start of instrs form one diagonal group — a maximal run of
// adjacent diagonal gates, extended greedily while the group has at most
// statevec.MaxTableBits free bits (the bits its members read, less the
// common ones every member requires to be 1). Any other instruction
// ends it: a SWAP (the tiled plan absorbs it into its permutation
// table, the per-gate plan sweeps it), a barrier, a measurement. 0
// means instrs starts with no diagonal gate, 1 a lone one, which
// compiles exactly as it always has; a group of two or more runs as one
// phase-table pass (statevec/table.go).
func diagGroup(instrs []Instr) int {
	common, union, ok := diagMasks(instrs[0])
	if !ok {
		return 0
	}
	n := 1
	for ; n < len(instrs); n++ {
		req, all, ok := diagMasks(instrs[n])
		if !ok || mbits.OnesCount64((union|all)&^(common&req)) > statevec.MaxTableBits {
			break
		}
		common, union = common&req, union|all
	}
	return n
}

// checkGroup accepts the instructions of one SegGlobal: a single one, or
// one diagonal group — what a plan reader must see before a sweep runs
// them as one table. A prefix of a group reads no more free bits than
// the group, so diagGroup takes a whole valid group in.
func checkGroup(ins []Instr) error {
	if len(ins) > 1 && diagGroup(ins) != len(ins) {
		return fmt.Errorf("a sweep of %d instructions is not one group of diagonal gates over at most %d free bits", len(ins), statevec.MaxTableBits)
	}
	return nil
}

// diagGroups counts the groups diagGroup cuts instrs into.
func diagGroups(instrs []Instr) int {
	groups := 0
	for i := 0; i < len(instrs); {
		n := diagGroup(instrs[i:])
		if n >= 2 {
			groups++
		}
		i += max(n, 1)
	}
	return groups
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
		return planPerGate(k), nil
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
	nOps += diagGroups(k.Instrs) // one header op per group
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
	p.Ops, p.Binds = arena[statevec.TileOp](nOps), arena[BindSite](nBinds)
	// bind records where the parameterized gate in left its value-derived
	// artifact — op op of segment seg — and advances BindSlots, the
	// gate's offset into the flat parameter vector (program order).
	bind := func(kind BindSiteKind, seg, op int, in Instr) {
		if !parameterized(in) {
			return
		}
		p.Binds = append(p.Binds, BindSite{Kind: kind, Gate: in.Gate, Seg: int32(seg), Op: int32(op), Slot: int32(p.BindSlots), NParams: int32(len(in.Params))})
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

	// relabel brings logical qubit q into the tile with one bit-swap,
	// evicting the resident qubit whose next mixing use is farthest away
	// and that keep does not name. It reports whether a slot qualified.
	relabel := func(keep []int, q, i int) bool {
		victim, victimNext := -1, -1
		for v := 0; v < tileBits; v++ {
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

	// evictEarly runs the next relabel now when resident qubit q has
	// just had its last mixing use at instruction i: the outside qubit
	// whose mixing use comes first among those the planner relabels
	// (minResidencyUses uses to go, or any use at a rank position) takes
	// q's slot, the slot Bélády would hand it then. The swap is the one
	// the plan pays anyway, made while the state is sparser, and every
	// tile and rank holds live amplitudes from here on (the support skip
	// idles those that hold only zeros). q must sit at or above
	// evictFloor, so the classical qubit it takes in does not cut the
	// sweeps' windows short.
	evictEarly := func(q, i int) {
		if v := perm[q]; v < evictFloor || v >= tileBits || nextUse(q, i+1) != math.MaxInt {
			return
		}
		next, nextAt := -1, math.MaxInt
		for pos := tileBits; pos < n; pos++ {
			lq := inv[pos]
			nu := nextUse(lq, i+1)
			if nu < nextAt && (pos >= local || remainingUses(lq, i+1) >= minResidencyUses) {
				next, nextAt = pos, nu
			}
		}
		if next >= 0 {
			swap(perm[q], next)
		}
	}

	// appendRunOp adds a compiled micro-op to the open run, opening one
	// when none is.
	appendRunOp := func(op statevec.TileOp) {
		if run < 0 {
			run = len(p.Segments)
			p.Segments = append(p.Segments, Segment{Kind: SegRun, Lo: int32(len(p.Ops)), Hi: int32(len(p.Ops))})
			p.Stats.Runs++
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
		scratch = mixingTargets(in, scratch[:0])

		// Relabel any mixing target off a rank position — into the tile,
		// the gate's own control a possible victim — and any high one
		// that will be mixed again or whose control sits on a rank bit
		// (no full sweep is predicated on a rank bit).
		rankCtrl := in.Kind == KGate && in.Gate.Arity() == 2 && perm[in.Qubits[0]] >= local
		for _, q := range scratch {
			switch pq := perm[q]; {
			case pq >= local:
				if !relabel(scratch, q, i) {
					return fmt.Errorf("kernel: no shard position free for rank-global qubit %d", q)
				}
			case pq >= tileBits && (rankCtrl || remainingUses(q, i) >= minResidencyUses):
				relabel(in.Qubits, q, i)
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
		op := statevec.Lower(in.Gate, in.Qubits, in.Params, perm, tileBits)
		if g > 0 && op.HighMask>>uint(local) != 0 {
			p.Stats.RankLocal++
		}
		appendRunOp(op)
		bind(BindRun, run, len(p.Ops)-1-int(p.Segments[run].Lo), in)
		p.Stats.TileLocal++
		for _, q := range scratch {
			evictEarly(q, i)
		}
		return nil
	}

	for i := 0; i < len(k.Instrs); {
		n := diagGroup(k.Instrs[i:])
		if n < 2 {
			if err := add(k.Instrs[i], i); err != nil {
				return nil, err
			}
			i++
			continue
		}
		// A group is its header and then its members, each compiled and
		// bound as it would be alone. A diagonal gate never relabels or
		// falls back to a sweep, so all of them land in one run.
		appendRunOp(statevec.TableOp(n))
		for end := i + n; i < end; i++ {
			if err := add(k.Instrs[i], i); err != nil {
				return nil, err
			}
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
// nothing is left to materialize — or per diagonal group (diagGroup),
// whose SegGlobal covers its members and runs as one phase-table sweep.
// No op is lowered — the plan executes the kernel's own instructions:
// Globals is the shared, capacity-clipped prefix of k.Instrs when every
// barrier and measurement trails the gates (any measured circuit) and a
// filtered copy otherwise, DeepEqual to the decoded plan either way.
// Only headers and binding sites are allocated.
func planPerGate(k *Kernel) *TilePlan {
	p := &TilePlan{NumQubits: k.NumQubits}
	m, nBinds, prefix := 0, 0, true
	for i, in := range k.Instrs {
		if planned(in) {
			prefix = prefix && i == m
			m++
			if parameterized(in) {
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
	// A group's members are planned and adjacent in k.Instrs, so they are
	// adjacent in Globals too.
	nseg := m
	for i := 0; i < len(k.Instrs); {
		n := max(diagGroup(k.Instrs[i:]), 1)
		nseg -= n - 1
		i += n
	}
	p.Segments, p.Binds, p.Stats.Global = make([]Segment, 0, nseg), arena[BindSite](nBinds), nseg
	at := 0
	for i := 0; i < len(k.Instrs); {
		n := max(diagGroup(k.Instrs[i:]), 1)
		if planned(k.Instrs[i]) {
			seg := int32(len(p.Segments))
			p.Segments = append(p.Segments, Segment{Kind: SegGlobal, Lo: int32(at), Hi: int32(at + n)})
			for j, in := range p.Globals[at : at+n] {
				if !parameterized(in) {
					continue
				}
				p.Binds = append(p.Binds, BindSite{Kind: BindGlobal, Gate: in.Gate, Seg: seg, Op: int32(j), Slot: int32(p.BindSlots), NParams: int32(len(in.Params))})
				p.BindSlots += len(in.Params)
			}
			at += n
		}
		i += n
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
			if err := p.ApplyGlobal(s, seg); err != nil {
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

// ApplyGlobal runs a SegGlobal of p against s (a state or a rank shard):
// one instruction as its own sweep, a diagonal group as one phase-table
// sweep over its members lowered at the state's width (every position
// low, so the table's bits are the members' operands).
func (p *TilePlan) ApplyGlobal(s *statevec.State, seg Segment) error {
	ins := p.Globals[seg.Lo:seg.Hi]
	if len(ins) == 1 {
		if in := &ins[0]; in.Kind == KGate {
			s.ApplyGate(in.Gate, in.Qubits, in.Params)
		}
		return nil
	}
	if err := checkGroup(ins); err != nil {
		return fmt.Errorf("kernel: %w", err)
	}
	var buf [16]statevec.TileOp
	ops := buf[:0]
	for _, in := range ins {
		ops = append(ops, statevec.Lower(in.Gate, in.Qubits, in.Params, nil, s.NumQubits()))
	}
	return s.ApplyPhaseGroup(ops)
}
