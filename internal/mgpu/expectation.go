package mgpu

import (
	"errors"
	"fmt"
	"slices"

	"qgear/internal/cancel"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/statevec"
)

// Distributed observable estimation runs the single-device grouped
// evaluator on every resident shard (statevec.ShardEvaluator): terms,
// blocks and chunks are addressed in the whole register, so Z/Y signs,
// parity and pivots on rank bits need nothing from this package. Only
// X/Y factors on rank bits move data: each distinct rank part g of the
// flip masks costs one exchange with rank ⊕ g and one two-sided sweep
// against the partner's buffer, in canonical order on both sides. Chunk partials land in their canonical
// slots of one slab root shares, and root finishes as one device does,
// so up to 2^4 ranks give the single-device value by construction.

// ExpResult is what ExpectationCompiledCancel returns at root.
type ExpResult struct {
	Value float64
	// Sweeps counts the root rank's passes over its shard: the local
	// groups plus the two-sided sweeps after its exchanges.
	Sweeps int
	// CommStats cover plan execution plus the expectation exchanges for
	// rank-bit X/Y factors.
	CommStats
}

// ExpectationCompiledCancel executes the compiled plan on nRanks
// simulated devices (a nil plan is an error, as in SimulateCompiled)
// and evaluates ⟨H⟩ on the resident shards: bit-identical to the
// single-device engines for up to 16 ranks (the reserve the canonical
// chunk width keeps). Beyond that a shard is smaller than one canonical
// chunk and the last ulp can differ.
//
// A non-nil flag is a cooperative cancellation, polled collectively
// during plan execution, before the local sweep and before every
// expectation exchange. It is never polled inside a sweep: a rank that
// stopped alone there would strand its partner in the next exchange.
func ExpectationCompiledCancel(k *kernel.Kernel, plan *kernel.TilePlan, h *observable.Hamiltonian, nRanks, workersPerRank int, flag *cancel.Flag) (*ExpResult, error) {
	if h == nil {
		return nil, errors.New("mgpu: nil hamiltonian")
	}
	terms, err := h.PauliTerms(k.NumQubits)
	if err != nil {
		return nil, fmt.Errorf("mgpu: %w", err)
	}
	res := &ExpResult{}
	res.CommStats, err = runWorld(k, plan, nRanks, workersPerRank, flag, func(d *DistState) error {
		rank := d.comm.Rank()
		// One evaluator per rank, built before the first exchange: it
		// materializes the plan's pending permutation, so the buffer
		// every exchange ships is in canonical order.
		ev := d.st.ShardEvaluator(d.n, uint64(rank)<<uint(d.local))
		var slab []float64
		if rank == 0 {
			slab, _ = ev.PartialSlab(terms) // PauliTerms has checked every term
		}
		slab = d.comm.Bcast(0, slab).([]float64)
		// 0 first — the local sweep — then each distinct rank part of a
		// flip mask in term order: the same list on every rank.
		flips, sweeps := []uint64{0}, 0
		for _, t := range terms {
			if g := (t.X | t.Y) >> uint(d.local); !slices.Contains(flips, g) {
				flips = append(flips, g)
			}
		}
		for _, g := range flips {
			if err := d.pollCancel(flag); err != nil {
				return fmt.Errorf("mgpu: expectation: %w", err)
			}
			var partner []complex128
			if g != 0 {
				partner = d.exchange(rank ^ int(g))
			}
			// Without a poll the sweep cannot fail.
			n, _ := ev.SweepShard(terms, slab, g, partner, nil)
			sweeps += n
		}
		d.comm.Barrier() // root reduces only once every slot is written
		if rank == 0 {
			res.Value = h.Combine(statevec.PauliValues(terms, slab))
			res.Sweeps = sweeps
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
