package mgpu

import (
	"fmt"

	"qgear/internal/cancel"
	"qgear/internal/gate"
	"qgear/internal/kernel"
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
//   - non-diagonal targets on rank bits arrive as exchange segments:
//     one pairwise buffer exchange serves every gate in the segment,
//     because after the exchange a rank holds both halves of the pair
//     subspace and can co-update them locally.
//
// Every step performs the same arithmetic on the same amplitudes as
// the single-device per-gate schedule (kernel.Execute's width-0 plan on
// one statevec.State), so planned execution is bit-identical to it — the
// randomized suite in planned_test.go pins that across rank counts,
// shard shapes (1-qubit shards included) and fusion settings, and
// oracle_test.go holds both to a naive dense reference.

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
	// The shard's absolute index base: ApplyTileRun tests every HighMask
	// predicate against it, so rank-bit predicates need no rewriting.
	rankAbs := uint64(d.comm.Rank()) << uint(d.local)
	for i, seg := range p.Segments {
		var err error
		if err = d.pollCancel(flag); err != nil {
			return fmt.Errorf("mgpu: plan segment %d: %w", i, err)
		}
		switch seg.Kind {
		case kernel.SegRun:
			err = d.st.ApplyTileRun(p.TileBits, rankAbs, p.Ops[seg.Lo:seg.Hi])
		case kernel.SegBitSwap:
			d.st.ApplySwap(int(seg.A), int(seg.B))
		case kernel.SegGlobal:
			err = d.applyGlobal(p.Globals[seg.Lo])
		case kernel.SegExchange:
			d.execExchange(int(seg.A), p.XOps[seg.Lo:seg.Hi], rankAbs)
		default:
			err = fmt.Errorf("unknown segment kind %d", seg.Kind)
		}
		if err != nil {
			return fmt.Errorf("mgpu: plan segment %d: %w", i, err)
		}
	}
	if p.FinalPerm != nil {
		// Rank bits never permute, so the shard applies the local slice.
		return d.st.SetPermutation(p.FinalPerm[:d.local])
	}
	return nil
}

// applyGlobal runs one full-sweep segment on the shard. Operands are
// physical positions, and the planner only emits a global for a mixing
// target that is shard-local (a rank-bit target is an exchange segment,
// a diagonal is a tile op), so the one rank-bit case left is a control
// on a rank bit: ranks whose bit is 1 apply the target's one-qubit
// unitary, the rest idle — no communication, the reason control-qubit
// placement matters for comm volume. Everything else is the shard's own
// gate kernel.
func (d *DistState) applyGlobal(in kernel.Instr) error {
	if in.Kind == kernel.KFused || in.Gate.Arity() != 2 || in.Qubits[0] < d.local {
		return in.Apply(d.st)
	}
	var u gate.Type
	switch in.Gate {
	case gate.CX:
		u = gate.X
	case gate.CRY:
		u = gate.RY
	default:
		return fmt.Errorf("mgpu: global %v with a rank-bit control is not something the planner emits", in.Gate)
	}
	if d.rankBit(in.Qubits[0]) == 1 {
		d.st.ApplyGate(u, in.Qubits[1:], in.Params)
	}
	return nil
}

// execExchange runs one batched exchange segment on rank-bit target
// tbit: skip the ops whose rank-bit controls this rank does not satisfy
// (the partner rank differs only in the target bit, so it skips the
// same ones), perform a single buffer exchange if any is left, then
// co-update both halves of the pair subspace gate by gate. The
// two-buffer update computes, per gate, exactly the pair expressions a
// single device computes with both halves resident, so the retained
// half is bit-identical to it.
func (d *DistState) execExchange(tbit int, ops []kernel.ExchOp, rankAbs uint64) {
	active := 0
	for i := range ops {
		if rankAbs&ops[i].RankCtrl == ops[i].RankCtrl {
			active++
		}
	}
	if active == 0 {
		return
	}
	partner := d.comm.Rank() ^ 1<<uint(tbit-d.local)
	theirs := d.exchange(partner)
	d.avoidedExch += active - 1
	amps := d.st.AmplitudesRaw()
	bit1 := d.rankBit(tbit) == 1
	for k := range ops {
		op := &ops[k]
		if rankAbs&op.RankCtrl != op.RankCtrl {
			continue
		}
		m0, m1, m2, m3 := op.M[0], op.M[1], op.M[2], op.M[3]
		ctrl := op.LowCtrl
		for i := range amps {
			if uint64(i)&ctrl != ctrl {
				continue
			}
			var a0, a1 complex128
			if bit1 {
				a0, a1 = theirs[i], amps[i]
				theirs[i] = m0*a0 + m1*a1
				amps[i] = m2*a0 + m3*a1
			} else {
				a0, a1 = amps[i], theirs[i]
				amps[i] = m0*a0 + m1*a1
				theirs[i] = m2*a0 + m3*a1
			}
		}
	}
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
