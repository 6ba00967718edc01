package statevec

import (
	"runtime"
	"sync"
)

// MinParallelWork is the smallest index-space size worth fanning out;
// below it the dispatch overhead dominates the amplitude math (the
// same reason real GPU simulators batch tiny kernels). kernel.Plan
// reads it too: a state whose half falls below it — where no per-gate
// sweep fans out — stays on the per-gate schedule instead of being
// split into two tiles.
const MinParallelWork = 1 << 12

// The amplitude-sweep executor: a process-wide pool of worker
// goroutines fed from one task channel. Gate application dispatches
// one task per chunk and waits; reusing live workers instead of
// spawning goroutines per gate keeps the per-gate overhead at a few
// microseconds, which matters for the paper's QCrank workloads
// (~10^5 gates on mid-sized states). Multiple states (mqpu batches,
// mgpu ranks) share the pool safely: tasks are self-contained chunk
// closures.
type sweepTask struct {
	fn     func(worker, lo, hi int)
	worker int
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce  sync.Once
	poolTasks chan sweepTask
	// waitGroups is fanOut's free list: a WaitGroup goes back once its
	// Wait has returned, so a fan-out allocates nothing of its own in
	// steady state. A channel, not a sync.Pool: a Pool drops entries
	// under the race detector and at GC, and the allocation tests pin
	// the count.
	waitGroups = make(chan *sync.WaitGroup, runtime.NumCPU())
)

func poolInit() {
	poolOnce.Do(func() {
		poolTasks = make(chan sweepTask, 4*runtime.NumCPU())
		for i := 0; i < runtime.NumCPU(); i++ {
			go func() {
				for t := range poolTasks {
					t.fn(t.worker, t.lo, t.hi)
					t.wg.Done()
				}
			}()
		}
	})
}

// serial reports whether a sweep over [0, n) runs on the caller's
// goroutine: a single-worker state, or an index space too small for the
// dispatch to pay. Every kernel keeps its chunk body as a plain
// function of (lo, hi) and asks this first: the serial case calls the
// body directly on [0, n) and builds nothing, and only the fan-out case
// wraps the same body in the closure fanOut ships to the pool. The
// chunks never overlap, so a body may write disjoint amplitude indices
// without synchronization — the contract a CUDA kernel launch gives its
// thread blocks.
func (s *State) serial(n int) bool {
	return s.workers <= 1 || n < MinParallelWork
}

// serialTiles is serial for an index space of tiles, each covering
// 2^tileBits amplitudes. The fan-out threshold is judged on amplitudes,
// not tiles: a 2^24 state split into 2^10 tiles is far past the point
// where dispatch pays for itself even though the tile count alone sits
// below MinParallelWork.
func (s *State) serialTiles(tiles, tileBits int) bool {
	return s.workers <= 1 || tiles < 2 || tiles<<uint(tileBits) < MinParallelWork
}

// parallelTiles runs fn over [0, tiles), fanned out unless serialTiles —
// for the per-run sweeps (tile runs, Pauli blocks), whose one closure is
// amortized over a whole run of gates.
func (s *State) parallelTiles(tiles, tileBits int, fn func(worker, lo, hi int)) {
	if s.serialTiles(tiles, tileBits) {
		fn(0, 0, tiles)
		return
	}
	s.fanOut(tiles, fn)
}

// fanOut dispatches [0, n) to the shared pool in at most s.workers
// contiguous chunks.
func (s *State) fanOut(n int, fn func(worker, lo, hi int)) {
	poolInit()
	w := s.workers
	if w > n {
		w = n
	}
	chunk := (n + w - 1) / w
	var wg *sync.WaitGroup
	select {
	case wg = <-waitGroups:
	default:
		wg = new(sync.WaitGroup)
	}
	id := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		poolTasks <- sweepTask{fn: fn, worker: id, lo: lo, hi: hi, wg: wg}
		id++
	}
	wg.Wait()
	select {
	case waitGroups <- wg:
	default:
	}
}
