package statevec

import (
	"fmt"
	"math/bits"

	"qgear/internal/gate"
)

// Tiled execution: the state vector is partitioned into cache-resident
// tiles of 2^tileBits amplitudes, and a *run* of gates whose mixing
// operands all lie below the tile boundary is applied gate-after-gate
// to each tile while it is hot in L2 — one memory pass for the whole
// run instead of one per gate. Within a tile, every micro-op performs
// exactly the arithmetic of its own whole-state sweep (ApplyOp) on the
// same amplitude pairs — a diagonal group (TileTable) the same table
// entry per amplitude as ApplyPhaseGroup, a CX fused into the real
// 2×2 before it (FusesCX) the same values moved — so tiled execution is
// bit-identical to the per-gate path; only the order in which disjoint
// tiles are visited changes, and tiles never interact inside a run.
//
// The state's support (State) skips work at both levels: a run visits
// only the tiles whose base agrees with the support's bits above the
// tile, which no op of a run can change, and each micro-op enumerates
// only the in-tile amplitudes the support leaves at that op — the set
// the per-gate sweep of the same gate enumerates. Until a circuit's
// first mixing gate on a high qubit, one tile holds every amplitude
// that can be non-zero, and a run over it costs one tile's pass.
//
// Operand placement rules (what the scheduler in internal/kernel may
// compile into a run):
//   - diagonal factors may sit anywhere: a bit at or above the tile
//     boundary is constant within a tile, so it costs one predicate on
//     the tile base index (HighMask), not data movement;
//   - controls may sit anywhere, for the same reason;
//   - only non-diagonal *targets* must sit below the boundary — a high
//     target mixes amplitudes across tiles and forces either a planned
//     relabeling bit-swap or a full-sweep fallback.

// TileOpKind discriminates the tile micro-ops.
type TileOpKind uint8

const (
	// TileMat1 applies a 2×2 unitary to a low target, optionally
	// conditioned on a low control (HasCtrl) and/or high controls
	// (HighMask).
	TileMat1 TileOpKind = iota
	// TileCX is the swap-only controlled-X special case of TileMat1.
	TileCX
	// TileDiag multiplies by Phase every amplitude whose LowMask bits
	// (in-tile) are all 1, in tiles whose HighMask bits are all 1 —
	// z/s/t/p/cz/cr1 at any operand placement.
	TileDiag
	// TileRelPhase applies diag(A, B) on a target qubit: pairwise when
	// the target is low (T), tile-constant when it is high (HighMask
	// holds the target bit) — rz at any placement.
	TileRelPhase
	// 4 was a dense fused block; decoders refuse it.
	_
	// TileTable heads a diagonal group: its Members() ops that follow
	// (TileDiag and TileRelPhase) apply as one phase-table pass over
	// the tile (table.go) instead of one pass each.
	TileTable
)

// TileOp is one compiled tile-local micro-op, 88 bytes and no pointer
// — the tile loop streams the whole run once per tile. Qubit positions
// are physical bit positions (Lower resolves the scheduler's permutation
// table). Ops are immutable once built: a plan may be executed
// concurrently against many states.
//
// M is the one value slot: TileMat1's 2×2, TileRelPhase's diag(A, B) on
// its diagonal (M[0], M[3]), TileDiag's Phase in M[1] — written by
// Rebind, DiagOp and RelPhaseOp, read by Phase and AB. A TileTable
// header keeps its member count in LowMask (TableOp, Members).
type TileOp struct {
	Kind     TileOpKind
	T, C     uint8     // low physical positions: target, control (HasCtrl)
	HasCtrl  bool      // low control present (TileMat1 / TileCX)
	HighMask uint64    // absolute bit positions ≥ tile width that must be 1
	LowMask  uint64    // TileDiag: in-tile bits that must be 1; TileTable: member count
	M        gate.Mat2 // TileMat1 matrix; TileDiag / TileRelPhase factors
}

// DiagOp returns the TileDiag micro-op multiplying by phase where every
// lowMask (in-tile) and highMask (tile-base) bit is 1.
func DiagOp(phase complex128, lowMask, highMask uint64) TileOp {
	return TileOp{Kind: TileDiag, LowMask: lowMask, HighMask: highMask, M: gate.Mat2{1: phase}}
}

// RelPhaseOp returns the TileRelPhase micro-op applying diag(a, b) on
// low target t, or — highMask non-zero — on the one high bit it holds.
func RelPhaseOp(a, b complex128, t uint8, highMask uint64) TileOp {
	return TileOp{Kind: TileRelPhase, T: t, HighMask: highMask, M: gate.Mat2{0: a, 3: b}}
}

// Phase is a TileDiag op's factor.
func (op *TileOp) Phase() complex128 { return op.M[1] }

// AB are a TileRelPhase op's factors diag(A, B).
func (op *TileOp) AB() (a, b complex128) { return op.M[0], op.M[3] }

// ApplyTileRun applies a compiled run of tile-local micro-ops, one
// cache-resident tile at a time. Tiles are independent by
// construction, so they shard across the worker pool like any other
// sweep — but the whole run costs a single pass over the state (one
// more per table cap its diagonal groups' tables exceed).
//
// base is the absolute index of this state's amplitude 0: 0 on one
// device, rank << local on a rank shard. HighMask is tested against
// base | tile base, so a predicate on a rank-index bit is the same test
// as one on a high local bit and every rank runs the plan's ops as is.
func (s *State) ApplyTileRun(tileBits int, base uint64, ops []TileOp) error {
	s.live()
	if len(ops) == 0 {
		return nil
	}
	if tileBits < 1 || tileBits > s.n { // tileBits == n: the whole state is one tile
		return fmt.Errorf("statevec: tile width %d outside [1,%d]", tileBits, s.n)
	}
	if s.perm != nil {
		// Tile runs address physical positions; a pending logical
		// permutation means the caller and the plan disagree on layout.
		return fmt.Errorf("statevec: tile run on a state with a pending qubit permutation")
	}
	if base&uint64(len(s.amps)-1) != 0 {
		return fmt.Errorf("statevec: shard base %#x is not a multiple of the %d-amplitude shard", base, len(s.amps))
	}
	if err := CheckGroups(ops); err != nil {
		return err
	}

	// Validate every op's in-tile positions up front — a bad position
	// must surface as an error here, not as an index panic inside a
	// pool goroutine.
	for i := range ops {
		op := &ops[i]
		if op.HighMask&(1<<uint(tileBits)-1) != 0 {
			// A predicate bit below the boundary can never be set in a
			// tile base: the op would be silently dropped everywhere.
			return fmt.Errorf("statevec: tile op %d high mask %#x has bits below tile width %d", i, op.HighMask, tileBits)
		}
		switch op.Kind {
		case TileMat1, TileCX, TileRelPhase:
			if int(op.T) >= tileBits && (op.Kind != TileRelPhase || op.HighMask == 0) { // a high rz target sits in HighMask
				return fmt.Errorf("statevec: tile op %d target %d at or above tile width %d", i, op.T, tileBits)
			}
			if op.HasCtrl && (int(op.C) >= tileBits || op.C == op.T) {
				return fmt.Errorf("statevec: tile op %d control %d invalid for tile width %d", i, op.C, tileBits)
			}
		case TileDiag:
			if op.LowMask>>uint(tileBits) != 0 {
				return fmt.Errorf("statevec: tile op %d low mask %#x exceeds tile width %d", i, op.LowMask, tileBits)
			}
		case TileTable:
		default:
			return fmt.Errorf("statevec: tile op %d has unknown kind %d", i, op.Kind)
		}
	}

	// Every group's table is expanded once per pass into the state's table
	// scratch, in op order, and each tile reads its row of each. A run
	// whose tables exceed the scratch's cap takes one pass per stretch of
	// ops whose tables fit: every amplitude still meets every op in order.
	limit := maxTableEntries(s.n)
	for lo := 0; lo < len(ops); {
		hi, entries := lo, 0
		for hi < len(ops) {
			span, size := 1, 0
			if ops[hi].Kind == TileTable {
				_, free, _ := groupMasks(ops[hi+1 : hi+1+ops[hi].Members()])
				span, size = 1+ops[hi].Members(), 1<<bits.OnesCount64(free)
			}
			if hi > lo && entries+size > limit {
				break
			}
			hi, entries = hi+span, entries+size
		}
		s.tilePass(tileBits, base, ops[lo:hi], s.tableScratch(entries))
		lo = hi
	}
	return nil
}

// tilePass is one pass of ApplyTileRun over the tiles the support
// leaves: ops validated, tabs room for their groups' tables. A run mixes
// only bits inside the tile, so the support's bits above the tile hold
// through it and a tile that disagrees with them is all zeros. Inside a
// tile each op runs on the support as the ops before it left it — the
// same support the per-gate schedule sweeps at that gate — and the pass
// leaves the state the support after the last op.
func (s *State) tilePass(tileBits int, base uint64, ops []TileOp, tabs []complex128) {
	off := 0
	for i := range ops {
		if ops[i].Kind == TileTable {
			members := ops[i+1 : i+1+ops[i].Members()]
			_, free, _ := groupMasks(members)
			expandTable(tabs[off:off+1<<bits.OnesCount64(free)], members, free)
			off += 1 << bits.OnesCount64(free)
		}
	}
	if s.sup.Zero {
		return // no tile holds a non-zero amplitude, and no op makes one
	}
	amps, tileSize, nq := s.amps, 1<<uint(tileBits), s.n
	start := s.sup
	low := uint64(tileSize - 1)
	high, hval := start.Mask&^low, start.Val&^low
	s.parallelTiles(len(s.amps)>>uint(tileBits)>>bits.OnesCount64(high), tileBits, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			off := uint64(t) << uint(tileBits)
			for f := high; f != 0; f &= f - 1 {
				pos := uint(bits.TrailingZeros64(f))
				off = insertBit(off, pos, hval>>pos&1)
			}
			tile := amps[off : off+uint64(tileSize)]
			abs := base | off
			tab, sp := tabs, start
			for i := 0; i < len(ops); i++ {
				op := &ops[i]
				in := Support{Mask: sp.Mask & low, Val: sp.Val & low}
				if abs&op.HighMask == op.HighMask || op.Kind == TileRelPhase {
					switch op.Kind {
					case TileTable:
						n := op.Members()
						common, free, _ := groupMasks(ops[i+1 : i+1+n])
						size := 1 << bits.OnesCount64(free)
						applyTileTable(tile, abs, tileBits, common, free, tab[:size], in)
						tab, i = tab[size:], i+n
					case TileMat1:
						if i+1 < len(ops) && op.FusesCX(&ops[i+1]) {
							applyTileMat1CX(tile, op, ops[i+1].C, in)
							sp.tileOp(op, base, nq)
							i++
							op = &ops[i] // the support steps past the CX below
							break
						}
						applyTileMat1(tile, op, in)
					case TileCX:
						applyTileCX(tile, op, in)
					case TileDiag:
						applyTileDiag(tile, op, in)
					case TileRelPhase:
						applyTileRelPhase(tile, abs, op, in)
					}
				}
				sp.tileOp(op, base, nq)
			}
		}
	})
	for i := range ops {
		s.sup.tileOp(&ops[i], base, nq)
	}
}

// FusesCX reports whether the TileCX next, directly after op in a run,
// runs in op's pass (applyTileMat1CX): op is an uncontrolled real
// TileMat1, and next a CX on its target under the same HighMask with
// its control inside the tile — QCrank's multiplexed-ry chains are
// nothing but such pairs. Any other CX keeps its own swap pass.
func (op *TileOp) FusesCX(next *TileOp) bool {
	return next.Kind == TileCX && next.HasCtrl && next.T == op.T && next.HighMask == op.HighMask &&
		op.Kind == TileMat1 && !op.HasCtrl && mat2Lanes(op.M).isReal
}

// tileOp steps the support past one micro-op of a run on the shard at
// base of an n-qubit shard. Only TileMat1 and TileCX mix; a control
// above the shard (a rank bit) is known to be its bit of base.
func (sp *Support) tileOp(op *TileOp, base uint64, n int) {
	if op.Kind != TileMat1 && op.Kind != TileCX {
		return
	}
	ctrl := op.HighMask
	if op.HasCtrl {
		ctrl |= 1 << op.C
	}
	if rank := ctrl >> uint(n) << uint(n); rank != 0 {
		if base&rank != rank {
			return
		}
		ctrl &^= rank
	}
	sp.mat(ctrl, uint(op.T), op.Kind == TileCX || isX(op.M))
}

// The in-tile kernels below run on the float64 lane layer (lanes.go):
// a tile's affected subspace is enumerated as sets of strided windows
// — the same enumeration the full-sweep kernels run on a worker's
// chunk, no per-index bit insertion — and each set is one call of a
// lane primitive, whose arithmetic is bit-identical to the complex128
// form (see the contract in lanes.go; pinned by the fuzz suite in
// lanes_test.go). Each takes the tile's support (its bits inside the
// tile) and narrows the subspace by it exactly as the full sweep
// narrows its own, so a tile visits the amplitudes the per-gate sweep
// visits there. Visit order over the disjoint pairs changes relative
// to the full-sweep kernels, but the per-amplitude arithmetic is
// identical, so results stay bit-identical; the sequential access
// pattern is what lets a hot tile stream through the core at L2 speed.

// applyTileMat1 is ApplyOp's TileMat1 sweep (pairSweep) within one tile.
// With the control below the target (C < T) the pairs take the full
// complex update even for a real matrix, as this kernel always has, so
// tile results stay bit-identical to earlier releases' down to the sign
// of an exact zero (the real fast path note in lanes.go).
func applyTileMat1(tile []complex128, op *TileOp, sp Support) {
	lm := mat2Lanes(op.M)
	var cbit uint64
	if op.HasCtrl {
		cbit = 1 << op.C
		lm.isReal = lm.isReal && op.C > op.T
	}
	fixed, val, ok := sp.narrow(cbit, cbit, 1<<op.T)
	if !ok {
		return
	}
	lm.pairSubspace(lanes(tile), uint(op.T), fixed, val, 0, len(tile)>>(1+bits.OnesCount64(fixed)))
}

// applyTileMat1CX is applyTileMat1 (uncontrolled, real) and then
// applyTileCX with control c on the same target, as one pass over the
// Mat1's pairs: a pair whose bit c is 1 stores its two results swapped
// (pairReal's swap form). The CX's pairs are the Mat1's with bit c set —
// the support narrows both by the same known bits, those but the
// target's — so the values are the two kernels' bit for bit.
func applyTileMat1CX(tile []complex128, op *TileOp, c uint8, sp Support) {
	fixed, val, ok := sp.narrow(0, 0, 1<<op.T)
	if !ok {
		return
	}
	lm := mat2Lanes(op.M)
	v, dist, cb := lanes(tile), 1<<op.T, 1<<c
	subspaceSets(fixed|1<<op.T, val, 0, len(tile)>>(1+bits.OnesCount64(fixed)), func(off, run, period, count int) {
		r0, r1, r2, r3, swap := lm.r0, lm.r1, lm.r2, lm.r3, 0
		switch {
		case cb < run || cb >= period && cb < period*count: // c varies in the set
			swap = 2 * cb
		case off&cb != 0: // c is 1 throughout: every pair trades, the rows swap
			r0, r1, r2, r3 = r2, r3, r0, r1
		}
		end := off + (count-1)*period + dist + run
		pairReal(v[2*off:2*end], 2*dist, 2*run, 2*period, r0, r1, r2, r3, swap)
	})
}

// applyTileCX is ApplyOp's TileCX sweep (swapSweep), controlled or not,
// within one tile, on the same enumeration; swaps move complex128
// values directly.
func applyTileCX(tile []complex128, op *TileOp, sp Support) {
	var cbit uint64
	if op.HasCtrl {
		cbit = 1 << op.C
	}
	tbit := uint64(1) << op.T
	fixed, val, ok := sp.narrow(cbit|tbit, cbit, tbit)
	if !ok {
		return
	}
	swapSubspace(tile, fixed, val, int(tbit), 0, len(tile)>>bits.OnesCount64(fixed))
}

// applyTileDiag multiplies by op.Phase() every tile amplitude whose
// LowMask bits are all set, enumerating only the affected subspace as
// sets of strided windows — any number of mask bits, the cr1 inner loop
// that dominates the QFT tile profile among them.
func applyTileDiag(tile []complex128, op *TileOp, sp Support) {
	phase := op.Phase()
	fixed, val, ok := sp.narrow(op.LowMask, op.LowMask, 0)
	if !ok {
		return
	}
	scaleSubspace(lanes(tile), fixed, val, 0, len(tile)>>bits.OnesCount64(fixed), real(phase), imag(phase))
}

// applyTileRelPhase is ApplyOp's TileRelPhase sweep: diag(A, B) on
// a low target multiplies pairs in-tile; on a high target, or a low one
// the support knows, the tile shares one factor chosen by the bit.
func applyTileRelPhase(tile []complex128, base uint64, op *TileOp, sp Support) {
	v := lanes(tile)
	a, b := op.AB()
	bit := uint64(1) << op.T
	switch {
	case op.HighMask != 0:
		if base&op.HighMask != 0 {
			a = b
		}
	case sp.Mask&bit != 0:
		if sp.Val&bit != 0 {
			a = b
		}
	default:
		relPhaseSubspace(v, uint(op.T), a, b, sp.Mask, sp.Val, 0, len(tile)>>(1+bits.OnesCount64(sp.Mask)))
		return
	}
	scaleSubspace(v, sp.Mask, sp.Val, 0, len(tile)>>bits.OnesCount64(sp.Mask), real(a), imag(a))
}
