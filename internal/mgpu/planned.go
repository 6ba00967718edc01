package mgpu

import (
	"fmt"
	"time"

	"qgear/internal/cancel"
	"qgear/internal/kernel"
	"qgear/internal/statevec"
)

// Planned execution: the distributed engine consumes the same compiled
// TilePlan IR as the single-process engine, and nothing else. A
// distributed plan (kernel.PlanConfig.GlobalBits = log2(ranks))
// classifies every instruction exactly once, at compile time:
//
//   - tile-local micro-ops run against the rank shard through
//     statevec.ApplyTileRun — one memory pass per run, as on a single
//     device;
//   - diagonal factors and controls on rank-index bits arrive as
//     HighMask predicates; ApplyTileRun tests them against the shard's
//     absolute base (rank << local) exactly as it tests high local
//     bits, with zero communication and no per-rank copy of the ops;
//   - a non-diagonal target on a rank bit never arrives at all: the
//     planner relabels it into the tile first, with a bit-swap across
//     the rank boundary (swapRankBit, one half-shard exchange with the
//     partner rank), and hands every rank position back before the
//     plan ends.
//
// Each shard keeps its support record (statevec.State) across all of
// it: a shard starts all zero on every rank but 0 and skips its sweeps
// while it is, and an exchange ships the record beside the data, sends
// no half the record proves zero and steps both ranks' records past
// the swap (exchangedSupport), so a rank skips what it can prove zero
// after an exchange as before it.
//
// Every gate therefore runs on the lane kernels, as the same
// arithmetic on the same amplitudes as the single-device per-gate
// schedule (kernel.Execute's width-0 plan on one statevec.State), and
// a bit-swap only moves values — so planned execution is bit-identical
// to it. The randomized suite in planned_test.go pins that across rank
// counts and shard shapes (1-qubit shards included), and oracle_test.go
// holds both to a naive dense reference.

// ExecutePlanCancel runs a compiled distributed plan against this
// rank's shard. The plan must have been compiled with GlobalBits
// matching the world size. Every rank must call it (SPMD, like an MPI
// program). The cooperative cancellation flag (nil = run unbounded) is
// polled collectively (see pollCancel) at every segment boundary — the
// natural SPMD-aligned point where all ranks agree on whether to stop
// before any of them commits to the segment's pairwise exchange.
func (d *DistState) ExecutePlanCancel(p *kernel.TilePlan, flag *cancel.Flag) error {
	if p.NumQubits != d.n {
		return fmt.Errorf("mgpu: plan wants %d qubits, state has %d", p.NumQubits, d.n)
	}
	if gbits := d.n - d.local; p.GlobalBits != gbits {
		return fmt.Errorf("mgpu: plan compiled for %d rank bits, world has %d", p.GlobalBits, gbits)
	}
	if p.TileBits < 1 || p.TileBits > d.local {
		return fmt.Errorf("mgpu: plan tile width %d outside [1,%d]", p.TileBits, d.local)
	}
	d.st.MaterializePerm()
	for i, seg := range p.Segments {
		err := d.pollCancel(flag)
		if err == nil {
			err = d.runSegment(p, seg)
		}
		if err != nil {
			return fmt.Errorf("mgpu: plan segment %d: %w", i, err)
		}
	}
	if p.FinalPerm != nil {
		// Every rank position holds its own qubit again, so the shard
		// applies the local slice.
		return d.st.SetPermutation(p.FinalPerm[:d.local])
	}
	return nil
}

// runSegment runs one segment of p on this rank's shard.
func (d *DistState) runSegment(p *kernel.TilePlan, seg kernel.Segment) error {
	switch seg.Kind {
	case kernel.SegRun:
		// The shard's absolute index base: ApplyTileRun tests every
		// HighMask predicate against it, so rank-bit predicates need no
		// rewriting.
		return d.st.ApplyTileRun(p.TileBits, uint64(d.comm.Rank())<<uint(d.local), p.Ops[seg.Lo:seg.Hi])
	case kernel.SegBitSwap:
		if a, b := int(min(seg.A, seg.B)), int(max(seg.A, seg.B)); b >= d.local {
			d.swapRankBit(a, b)
		} else {
			d.st.ApplySwap(a, b)
		}
		return nil
	case kernel.SegGlobal:
		// The planner keeps every operand of a sweep in the shard.
		return p.ApplyGlobal(d.st, seg)
	}
	return fmt.Errorf("unknown segment kind %d", seg.Kind)
}

// swapRankBit exchanges shard position l with rank position r. The
// amplitudes whose bit l equals this rank's bit r stay put; the other
// half goes to the partner rank across r, whose matching half comes
// back into the same indices. Both halves are packed in index order, so
// the k-th amplitude sent is the k-th received. Each side ships half a
// shard — in the front of a whole exchange slab, which is what the free
// list recycles — and its support record beside it.
//
// The support crosses the exchange instead of being forgotten: a half
// the sender's record proves zero is not sent, and the receiver writes
// +0 there, and the shard's new record is exchangedSupport of the two.
// A shard left all zero skips every sweep until an exchange brings it
// amplitudes.
func (d *DistState) swapRankBit(l, r int) {
	start := time.Now()
	bit := uint(l)
	mine := uint64(d.comm.Rank() >> uint(r-d.local) & 1)
	own := d.st.Support()
	amps, buf := d.st.AmplitudesRaw(), d.slab()
	run := 1 << bit
	first := int(mine^1) << bit // the first index whose bit l differs
	n := 0
	if !own.HalfZero(bit, mine^1) {
		for i := first; i < len(amps); i += 2 * run {
			n += copy(buf[n:], amps[i:i+run])
		}
	}
	d.out.sup = own
	theirs := d.trade(d.comm.Rank()^1<<uint(r-d.local), n, start)
	switch {
	case !theirs.sup.HalfZero(bit, mine):
		n = 0
		for i := first; i < len(amps); i += 2 * run {
			n += copy(amps[i:i+run], theirs.buf[n:])
		}
	case n > 0: // a zero half comes back where a live one left
		for i := first; i < len(amps); i += 2 * run {
			clear(amps[i : i+run])
		}
	}
	d.st.SetSupport(exchangedSupport(own, theirs.sup, bit, mine))
}

// exchangedSupport is the record of a shard after swapRankBit on bit l:
// the half where bit l is mine is its own (own's record), the other
// half came from the partner (theirs, a record of the partner's half
// where bit l is mine too). A half either record proves zero adds
// nothing: both zero leave the shard all zero, one zero makes bit l
// known (the live half's value) and keeps the other half's bits. Two
// live halves keep the bits both records know with equal values, and
// bit l is unknown.
func exchangedSupport(own, theirs statevec.Support, l uint, mine uint64) statevec.Support {
	ownZero, theirZero := own.HalfZero(l, mine), theirs.HalfZero(l, mine)
	lb := uint64(1) << l
	switch {
	case ownZero && theirZero:
		return statevec.Support{Zero: true}
	case theirZero:
		return statevec.Support{Mask: own.Mask | lb, Val: own.Val&^lb | mine<<l}
	case ownZero:
		return statevec.Support{Mask: theirs.Mask | lb, Val: theirs.Val&^lb | (mine^1)<<l}
	}
	mask := own.Mask & theirs.Mask &^ (own.Val ^ theirs.Val) &^ lb
	return statevec.Support{Mask: mask, Val: own.Val & mask}
}

// SimulateCompiled runs a compiled plan on nRanks simulated devices and
// returns the gathered result — the distributed half of the shared-IR
// pipeline: transform once, plan once, execute anywhere. A nil plan is
// an error: this engine has no other executor.
func SimulateCompiled(k *kernel.Kernel, plan *kernel.TilePlan, nRanks, workersPerRank int) (*Result, error) {
	return SimulateCompiledCancel(k, plan, nRanks, workersPerRank, nil)
}

// SimulateCompiledCancel is SimulateCompiled with a cooperative
// cancellation flag shared by all ranks; a tripped flag stops the whole
// world at the next collective poll and surfaces through mpi.Run as a
// rank error wrapping the flag's verdict.
func SimulateCompiledCancel(k *kernel.Kernel, plan *kernel.TilePlan, nRanks, workersPerRank int, flag *cancel.Flag) (*Result, error) {
	res := &Result{}
	var err error
	res.CommStats, err = runWorld(k, plan, nRanks, workersPerRank, flag, func(d *DistState) error {
		if probs := d.Probabilities(); probs != nil {
			res.Probabilities = probs
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
