package mgpu

import (
	"fmt"
	"math/bits"

	"qgear/internal/cancel"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/statevec"
)

// Distributed observable estimation: every rank executes the compiled
// plan on its shard, then evaluates each
// Pauli term against the *resident* shard amplitudes — no probability
// gather, no permutation materialization. The canonical reduction of
// statevec's expectation contract makes rank partials exact subtrees
// of the single-device reduction, so the gathered value is
// bit-identical to the local engines (for up to 2^4 ranks, the
// reserve the chunk width guarantees).
//
// Rank-index bits of a term resolve per rank with zero communication:
// a Z factor on a rank bit is a constant sign, a pure-rank-bit Z
// string selects which ranks sit in the odd-parity subspace at all.
// Only X/Y factors on rank bits move data — one pairwise buffer
// exchange per such term (partner = rank XOR the term's global flip
// mask), after which each rank holds both members of every amplitude
// pair it owns. Per-term rank partials are gathered once at root:
// rank-local partial sums plus a single reduction.

// ExpResult is what ExpectationCompiled returns at root.
type ExpResult struct {
	Value float64
	Terms int
	// CommStats cover plan execution plus the expectation exchanges for
	// rank-bit X/Y factors.
	CommStats
}

// termSpec is one term's SPMD-identical classification: every rank
// (and the root combiner) derives scheduling from the same masks.
type termSpec struct {
	coef     float64
	xm       uint64
	ym       uint64
	zm       uint64
	flip     uint64
	pivot    int // absolute qubit position of the pairing/parity pivot
	identity bool
}

// buildTermSpecs validates the Hamiltonian against the register and
// precomputes each term's masks and pivot, before any rank spawns.
func buildTermSpecs(h *observable.Hamiltonian, n int) ([]termSpec, error) {
	if h == nil {
		return nil, fmt.Errorf("mgpu: nil hamiltonian")
	}
	specs := make([]termSpec, len(h.Terms))
	for i, t := range h.Terms {
		xm, ym, zm, err := t.Masks(n)
		if err != nil {
			return nil, fmt.Errorf("mgpu: term %d: %w", i, err)
		}
		sp := termSpec{coef: t.Coef, xm: xm, ym: ym, zm: zm, flip: xm | ym}
		switch {
		case sp.flip != 0:
			sp.pivot = bits.TrailingZeros64(sp.flip)
		case zm != 0:
			sp.pivot = bits.TrailingZeros64(zm)
		default:
			sp.identity = true
		}
		specs[i] = sp
	}
	return specs, nil
}

// expTermPartial computes this rank's tree-reduced partial for one
// term. Ranks that own no slice of the term's enumeration still take
// part in its pairwise exchange (their partner needs the buffer) and
// return 0.
func (d *DistState) expTermPartial(ev *statevec.PauliEvaluator, sp termSpec) float64 {
	if sp.identity {
		return 0 // folded in at root as coef·1
	}
	lmask := uint64(1)<<uint(d.local) - 1
	rank := uint64(d.comm.Rank())
	args := statevec.PauliShardArgs{
		XMask:     sp.xm & lmask,
		YMask:     sp.ym & lmask,
		ZMask:     sp.zm & lmask,
		ChunkBits: statevec.ExpChunkBits(d.n),
	}
	if sp.flip != 0 {
		args.Flip = true
		ph := statevec.IPow(bits.OnesCount64(sp.ym))
		if bits.OnesCount64(rank&((sp.ym|sp.zm)>>uint(d.local)))&1 == 1 {
			ph = -ph
		}
		args.Phase0 = ph
		if sp.pivot < d.local {
			args.Pivot = sp.pivot
		} else {
			args.Pivot = -1
		}
		if gflip := sp.flip >> uint(d.local); gflip != 0 {
			// One exchange serves every pair of this term; both sides of
			// a pivot pair must call it even if only one side sums.
			args.Partner = d.exchange(d.comm.Rank() ^ int(gflip))
		}
		if args.Pivot < 0 && d.rankBit(sp.pivot) == 1 {
			return 0 // the pivot-0 partner owns these pairs
		}
		v, _ := ev.Shard(args)
		return v
	}
	// Pure-Z term: rank bits contribute parity, never data movement.
	gz := sp.zm >> uint(d.local)
	if sp.pivot < d.local {
		args.Pivot = sp.pivot
		args.ParityBase = bits.OnesCount64(rank&gz) & 1
	} else {
		// The Z string lives entirely on rank bits: this shard is wholly
		// inside or wholly outside the odd-parity subspace.
		if bits.OnesCount64(rank&gz)&1 == 0 {
			return 0
		}
		args.Pivot = -1
	}
	v, _ := ev.Shard(args)
	return v
}

// rankParticipates reports whether rank r owns a block of the term's
// canonical enumeration — the root-side mirror of expTermPartial's
// scheduling, used to assemble block partials in compact-index order.
func rankParticipates(sp termSpec, r, local int) bool {
	if sp.identity {
		return false
	}
	if sp.pivot < local {
		return true
	}
	if sp.flip != 0 {
		return r>>uint(sp.pivot-local)&1 == 0
	}
	return bits.OnesCount64(uint64(r)&(sp.zm>>uint(local)))&1 == 1
}

// combineExpectation finishes the reduction at root: for each term,
// tree-reduce the participating ranks' block partials (ascending rank
// order is ascending compact order — see the participation analysis
// above), convert odd-parity mass to 1 − 2·S for pure-Z strings, and
// accumulate coefficient-weighted values in term order — the exact
// expression sequence the single-device evaluator runs.
func combineExpectation(specs []termSpec, all []float64, ranks, local int) float64 {
	nTerms := len(specs)
	blocks := make([]float64, 0, ranks)
	var total float64
	for ti, sp := range specs {
		if sp.identity {
			total += sp.coef * 1
			continue
		}
		blocks = blocks[:0]
		for r := 0; r < ranks; r++ {
			if rankParticipates(sp, r, local) {
				blocks = append(blocks, all[r*nTerms+ti])
			}
		}
		s := statevec.TreeSum(blocks)
		if sp.flip == 0 {
			total += sp.coef * (1 - 2*s)
		} else {
			total += sp.coef * s
		}
	}
	return total
}

// ExpectationCompiled executes the compiled plan on nRanks simulated
// devices (a nil plan is an error, as in SimulateCompiled) and evaluates
// ⟨H⟩ against the resident shards: rank-local partial sums, one
// gather, bit-identical to the single-device engines for up to
// 2^4 = 16 ranks (the reserve statevec.ExpChunkBits bakes into the
// canonical chunk width). Beyond 16 ranks the value is still exact to
// normal floating-point accuracy, but shard blocks may be smaller
// than one canonical chunk, so the reduction tree — and therefore the
// last ulp — can differ from the single-device engines.
func ExpectationCompiled(k *kernel.Kernel, plan *kernel.TilePlan, h *observable.Hamiltonian, nRanks, workersPerRank int) (*ExpResult, error) {
	return ExpectationCompiledCancel(k, plan, h, nRanks, workersPerRank, nil)
}

// ExpectationCompiledCancel is ExpectationCompiled with a cooperative
// cancellation flag: polled collectively during plan execution and once
// per Pauli term of the reduction (terms with rank-bit X/Y factors pay
// a pairwise exchange, so the per-term poll uses the same
// all-ranks-agree discipline).
func ExpectationCompiledCancel(k *kernel.Kernel, plan *kernel.TilePlan, h *observable.Hamiltonian, nRanks, workersPerRank int, flag *cancel.Flag) (*ExpResult, error) {
	specs, err := buildTermSpecs(h, k.NumQubits)
	if err != nil {
		return nil, err
	}
	res := &ExpResult{Terms: len(specs)}
	res.CommStats, err = runWorld(k, plan, nRanks, workersPerRank, flag, func(d *DistState) error {
		// One evaluator per rank: the shard layout (including a pending
		// plan permutation) is frozen for the whole term sweep.
		ev := d.st.PauliEvaluator()
		partials := make([]float64, len(specs))
		for ti, sp := range specs {
			if err := d.pollCancel(flag); err != nil {
				return fmt.Errorf("mgpu: expectation term %d: %w", ti, err)
			}
			partials[ti] = d.expTermPartial(ev, sp)
		}
		if all := d.comm.GatherFloat64s(0, partials); all != nil {
			res.Value = combineExpectation(specs, all, d.comm.Size(), d.local)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
