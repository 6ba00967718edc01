package statevec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinParallelWork is the smallest index-space size worth fanning out;
// below it the dispatch overhead dominates the amplitude math (the
// same reason real GPU simulators batch tiny kernels). kernel.Plan
// reads it too: a state whose half falls below it — where no per-gate
// sweep fans out — stays on the per-gate schedule instead of being
// split into two tiles.
const MinParallelWork = 1 << 12

// The process-wide pool behind every in-process fan-out (amplitude
// sweeps; mqpu circuits, shots and sweep points in internal/backend):
// live workers keep the per-gate overhead at a few microseconds, which
// matters for QCrank's ~10^5 gates. ParallelFor, its only entry, keeps
// four invariants:
//
//   - Caller works too. The caller claims chunks from the call's atomic
//     counter itself and offers the rest to the pool with non-blocking
//     sends: when the queue is full, it does the work instead of blocking.
//   - Safe to nest. The caller waits only for chunks another goroutine
//     has already claimed, so a chunk that calls ParallelFor from a pool
//     worker cannot deadlock.
//   - Panics reach the caller. A chunk's panic is recovered, and the first
//     value is re-raised on the caller once every claimed chunk finished.
//   - No new allocations. The caller returns the per-call record to a
//     free list as it returns. An offer carries the record's generation,
//     so one still queued then finds the record reused and claims nothing.
type forCall struct {
	fn               func(lo, hi int)
	n, chunk, chunks int
	claim            atomic.Uint64 // generation << 32 | chunks not yet claimed
	finished         atomic.Int64
	pval             atomic.Pointer[any] // the first panic's value
	done             chan struct{}       // the last chunk's finisher, when not the caller, signals once
}

type forOffer struct {
	c   *forCall
	gen uint32
}

var (
	poolOnce  sync.Once
	poolCalls chan forOffer
	// A channel, not a sync.Pool, which drops entries at GC and under the
	// race detector; sized like the queue, as each nested call holds one.
	freeCalls = make(chan *forCall, 4*runtime.NumCPU())
)

func poolInit() {
	poolOnce.Do(func() {
		poolCalls = make(chan forOffer, 4*runtime.NumCPU())
		for i := 0; i < runtime.NumCPU(); i++ {
			go func() {
				for o := range poolCalls {
					if o.c.work(o.gen) {
						o.c.done <- struct{}{}
					}
				}
			}()
		}
	})
}

// ParallelFor runs fn over [0, n) in contiguous chunks of
// ceil(n/min(w, n)) indices, on the caller and the shared pool, and
// returns once every chunk has finished. The chunks never overlap, so fn
// may write disjoint indices without synchronization — the contract a
// CUDA kernel launch gives its thread blocks. With min(w, n) ≤ 1, fn
// runs once on [0, n) on the caller.
func ParallelFor(n, w int, fn func(lo, hi int)) {
	if w = min(w, n); w <= 1 {
		fn(0, n)
		return
	}
	poolInit()
	var c *forCall
	select {
	case c = <-freeCalls:
	default:
		c = &forCall{done: make(chan struct{}, 1)}
	}
	c.fn, c.n, c.chunk = fn, n, (n+w-1)/w
	c.chunks = (n + c.chunk - 1) / c.chunk
	gen := uint32(c.claim.Load()>>32) + 1 // wraps to 0 after 2^32 reuses
	c.claim.Store(uint64(gen)<<32 | uint64(c.chunks))
offer:
	for i := 1; i < c.chunks; i++ {
		select {
		case poolCalls <- forOffer{c, gen}:
		default:
			break offer
		}
	}
	if !c.work(gen) {
		<-c.done
	}
	p := c.pval.Swap(nil)
	c.fn = nil // fn may hold a state's amplitudes
	c.finished.Store(0)
	select {
	case freeCalls <- c:
	default:
	}
	if p != nil {
		panic(*p)
	}
}

// work runs chunks of generation gen until none is left to claim and
// reports whether this goroutine finished the call's last chunk. A
// claimed chunk keeps the record from reuse until it finishes.
func (c *forCall) work(gen uint32) (last bool) {
	for {
		w := c.claim.Load()
		if uint32(w>>32) != gen || uint32(w) == 0 {
			return last
		}
		if !c.claim.CompareAndSwap(w, w-1) {
			continue
		}
		chunks := c.chunks // c may be reused once this chunk is counted
		i := chunks - int(uint32(w))
		c.run(i*c.chunk, min((i+1)*c.chunk, c.n))
		last = c.finished.Add(1) == int64(chunks)
	}
}

// run is one chunk; the first panic of the call is kept for the caller.
func (c *forCall) run(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			v := r // escapes: taken only on a panic, so a chunk allocates nothing
			c.pval.CompareAndSwap(nil, &v)
		}
	}()
	c.fn(lo, hi)
}

// serial reports whether a sweep over [0, n) runs on the caller's
// goroutine: a single-worker state, or an index space too small for the
// dispatch to pay. Every kernel keeps its chunk body as a plain
// function of (lo, hi) and asks this first: the serial case calls the
// body directly on [0, n) and builds nothing, and only the fan-out case
// wraps the same body in the closure it hands to ParallelFor.
func (s *State) serial(n int) bool {
	return s.workers <= 1 || n < MinParallelWork
}

// parallelTiles runs fn over [0, tiles) — the per-run sweeps (tile runs,
// Pauli blocks), whose one closure is amortized over a run of gates — on
// the state's workers once the tiles hold MinParallelWork amplitudes
// (2^tileBits each): the threshold is judged on amplitudes, as a 2^24
// state in 2^10 tiles is far past the point where dispatch pays.
func (s *State) parallelTiles(tiles, tileBits int, fn func(lo, hi int)) {
	w := s.workers
	if tiles<<uint(tileBits) < MinParallelWork {
		w = 1
	}
	ParallelFor(tiles, w, fn)
}
