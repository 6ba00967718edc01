package service

import (
	"qgear/internal/backend"
	"qgear/internal/store"
)

// The server's two in-memory caches are byte-accounted, cost-aware
// instances of store.Cache: the result cache (canonical (fingerprint,
// options) hashes from core.CacheKey → completed simulation results)
// and the compiled-plan cache ((fingerprint, tile width) →
// backend.Compiled execution IR). Every entry is charged its real
// resident size — a 2^n probability vector is 8·2^n bytes, a plan its
// segment arrays — and eviction weighs recompute cost per byte
// (Greedy-Dual-Size), so a cheap giant entry leaves before an
// expensive small one. Evicted and shutdown-time entries flow to the
// persistent store when one is configured. Neither cache is safe for
// concurrent use on its own; the Server serializes access under its
// mutex.
type (
	resultCache = store.Cache[*backend.Result]
	planCache   = store.Cache[*backend.Compiled]
)

// Accounting note: seed-variant entries of one fingerprint produced by
// one shared run share one underlying probability slice but are
// each charged its full size. The overstatement is deliberate — it is
// the safe side (resident memory can only be below the budget, never
// above it), it disappears as soon as any variant is evicted, and
// per-entry accounting stays O(1) with no slice-identity refcounting.

// resultCost models a result's recompute cost: simulation work is
// proportional to gate count × state size. A deterministic model (not
// the measured wall-clock, which is noisy at millisecond scale) keeps
// eviction decisions reproducible across runs and machines; entries
// with equal shape tie exactly and fall back to LRU. Expectation
// results carry no probability vector but cost the same simulation to
// recompute, so their state size comes from the recorded qubit count —
// a few dozen resident bytes protecting a 2^n-scale recompute makes
// them close to free to keep, which is exactly right.
func resultCost(res *backend.Result) float64 {
	size := len(res.Probabilities)
	if size == 0 && res.NumQubits > 0 && res.NumQubits < 63 {
		size = 1 << uint(res.NumQubits)
	}
	return float64(1+res.KernelStats.EmittedOps) * float64(size)
}
