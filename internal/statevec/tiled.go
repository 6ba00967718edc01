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
// exactly the arithmetic of the corresponding full-sweep kernel on the
// same amplitude pairs, so tiled execution is bit-identical to the
// per-gate path; only the order in which disjoint tiles are visited
// changes, and tiles never interact inside a run.
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
	// TileFused applies a dense 2^k×2^k unitary to k low qubits,
	// sharing the unrolled k=1..3 fast paths with ApplyFused.
	TileFused
)

// TileOp is one compiled tile-local micro-op, 96 bytes — the tile loop
// streams the whole run once per tile. Qubit positions are physical bit
// positions (the scheduler resolves its permutation table before
// compiling). Ops are immutable once built: a plan may be executed
// concurrently against many states.
//
// M is the one value slot: TileMat1's 2×2, TileRelPhase's diag(A, B) on
// its diagonal (M[0], M[3]), TileDiag's Phase in M[1] — written by
// DiagOp and RelPhaseOp, read by Phase and AB.
type TileOp struct {
	Kind     TileOpKind
	T, C     uint8       // low physical positions: target, control (HasCtrl)
	HasCtrl  bool        // low control present (TileMat1 / TileCX)
	HighMask uint64      // absolute bit positions ≥ tile width that must be 1
	LowMask  uint64      // TileDiag: in-tile bits that must be 1
	M        gate.Mat2   // TileMat1 matrix; TileDiag / TileRelPhase factors
	Fused    *FusedBlock // TileFused payload, nil otherwise
}

// FusedBlock is a TileFused micro-op's dense unitary on a few low
// qubits — rare, so behind a pointer instead of widening every op.
type FusedBlock struct {
	Qubits []uint       // low positions; qubit j is bit j of the matrix index
	Mat    []complex128 // row-major 2^k × 2^k
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

// tileFusedPre caches the per-op expansion tables a fused micro-op
// needs inside the tile loop (sorted insertion positions and masks).
type tileFusedPre struct {
	sorted []uint
	masks  []uint64
	dim    int
}

// ApplyTileRun applies a compiled run of tile-local micro-ops, one
// cache-resident tile at a time. Tiles are independent by
// construction, so they shard across the worker pool like any other
// sweep — but the whole run costs a single pass over the state.
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
	tileSize := 1 << uint(tileBits)
	tiles := len(s.amps) >> uint(tileBits)

	// Validate every op's in-tile positions up front — a bad position
	// must surface as an error here, not as an index panic inside a
	// pool goroutine — and pre-resolve fused expansion tables.
	var pres []*tileFusedPre
	maxDim := 0
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
		case TileFused:
			if op.Fused == nil {
				return fmt.Errorf("statevec: tile op %d is fused without a payload", i)
			}
			qs := op.Fused.Qubits
			kw := len(qs)
			if kw == 0 || kw > min(tileBits, MaxFusedQubits) {
				return fmt.Errorf("statevec: tile op %d fused width %d outside [1,%d]", i, kw, min(tileBits, MaxFusedQubits))
			}
			if len(op.Fused.Mat) != 1<<uint(2*kw) {
				return fmt.Errorf("statevec: tile op %d fused matrix has %d entries, want %d", i, len(op.Fused.Mat), 1<<uint(2*kw))
			}
			pre := &tileFusedPre{sorted: append([]uint(nil), qs...), masks: make([]uint64, kw), dim: 1 << uint(kw)}
			for a := 1; a < kw; a++ {
				for b := a; b > 0 && pre.sorted[b] < pre.sorted[b-1]; b-- {
					pre.sorted[b], pre.sorted[b-1] = pre.sorted[b-1], pre.sorted[b]
				}
			}
			for j, q := range qs {
				if int(q) >= tileBits {
					return fmt.Errorf("statevec: tile op %d fused qubit %d at or above tile width %d", i, q, tileBits)
				}
				if j > 0 && pre.sorted[j] == pre.sorted[j-1] {
					return fmt.Errorf("statevec: tile op %d duplicate fused qubit %d", i, pre.sorted[j])
				}
				pre.masks[j] = 1 << q
			}
			if pres == nil {
				pres = make([]*tileFusedPre, len(ops))
			}
			pres[i] = pre
			maxDim = max(maxDim, pre.dim)
		}
	}

	amps := s.amps
	s.parallelTiles(tiles, tileBits, func(_, lo, hi int) {
		var scr fusedScratch
		in, out, idx := scr.amps[:maxDim], scr.amps[maxDim:2*maxDim], scr.idx[:maxDim]
		for t := lo; t < hi; t++ {
			off := uint64(t) << uint(tileBits)
			tile := amps[off : off+uint64(tileSize)]
			abs := base | off
			for i := range ops {
				op := &ops[i]
				if abs&op.HighMask != op.HighMask && op.Kind != TileRelPhase {
					continue
				}
				switch op.Kind {
				case TileMat1:
					applyTileMat1(tile, op)
				case TileCX:
					applyTileCX(tile, op)
				case TileDiag:
					applyTileDiag(tile, op)
				case TileRelPhase:
					applyTileRelPhase(tile, abs, op)
				case TileFused:
					pre := pres[i]
					outer := len(tile) >> uint(len(pre.sorted))
					for p := 0; p < outer; p++ {
						b := uint64(p)
						for _, q := range pre.sorted {
							b = insertBit(b, q, 0)
						}
						fusedApplyAt(tile, b, pre.masks, op.Fused.Mat, in, out, idx)
					}
				}
			}
		}
	})
	return nil
}

// The in-tile kernels below run on the float64 lane layer (lanes.go):
// a tile's affected subspace is enumerated as sets of strided windows
// — the same enumeration the full-sweep kernels run on a worker's
// chunk, no per-index bit insertion — and each set is one call of a
// lane primitive, whose arithmetic is bit-identical to the complex128
// form (see the contract in lanes.go; pinned by the fuzz suite in
// lanes_test.go). Visit order over the disjoint pairs changes relative
// to the full-sweep kernels, but the per-amplitude arithmetic is
// identical, so results stay bit-identical; the sequential access
// pattern is what lets a hot tile stream through the core at L2 speed.

// applyTileMat1 mirrors ApplyMat1 / applyControlled1 within one tile.
// With the control below the target (C < T) the pairs take the full
// complex update even for a real matrix, as this kernel always has, so
// tile results stay bit-identical to earlier releases' down to the sign
// of an exact zero (the real fast path note in lanes.go).
func applyTileMat1(tile []complex128, op *TileOp) {
	lm := mat2Lanes(op.M)
	var cbit uint64
	if op.HasCtrl {
		cbit = 1 << op.C
		lm.isReal = lm.isReal && op.C > op.T
	}
	lm.pairSubspace(lanes(tile), uint(op.T), cbit, cbit, 0, len(tile)>>(1+bits.OnesCount64(cbit)))
}

// applyTileCX mirrors ApplyCX (and the uncontrolled X pair-swap)
// within one tile, with the same run decomposition as applyTileMat1;
// swaps move complex128 values directly.
func applyTileCX(tile []complex128, op *TileOp) {
	step := 1 << op.T
	if !op.HasCtrl {
		swapSweep(tile, step)
		return
	}
	cstep := 1 << op.C
	if op.C > op.T {
		for cb := cstep; cb < len(tile); cb += 2 * cstep {
			swapSweep(tile[cb:cb+cstep:cb+cstep], step)
		}
		return
	}
	if op.C == 0 {
		for blk := 0; blk < len(tile); blk += 2 * step {
			swapOdd(tile[blk:blk+step:blk+step], tile[blk+step:blk+2*step:blk+2*step])
		}
		return
	}
	for blk := 0; blk < len(tile); blk += 2 * step {
		for cb := blk + cstep; cb < blk+step; cb += 2 * cstep {
			swapRun(tile[cb:cb+cstep:cb+cstep], tile[cb+step:cb+step+cstep:cb+step+cstep])
		}
	}
}

// applyTileDiag multiplies by op.Phase() every tile amplitude whose
// LowMask bits are all set, enumerating only the affected subspace as
// sets of strided windows — any number of mask bits, the cr1 inner loop
// that dominates the QFT tile profile among them.
func applyTileDiag(tile []complex128, op *TileOp) {
	phase := op.Phase()
	m := op.LowMask
	scaleSubspace(lanes(tile), m, m, 0, len(tile)>>bits.OnesCount64(m), real(phase), imag(phase))
}

// applyTileRelPhase mirrors ApplyGlobalAndRelativePhase: diag(A, B) on
// a low target multiplies pairs in-tile; on a high target the whole
// tile shares one factor chosen by the tile base bit.
func applyTileRelPhase(tile []complex128, base uint64, op *TileOp) {
	v := lanes(tile)
	a, b := op.AB()
	if op.HighMask != 0 {
		if base&op.HighMask != 0 {
			a = b
		}
		scaleWindows(v, len(v), len(v), real(a), imag(a))
		return
	}
	diag1Chunk(v, uint(op.T), a, b, 0, len(tile)>>1)
}
