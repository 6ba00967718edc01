package statevec

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The state-slab free list. A run's amplitude vector is the largest
// thing it allocates and the one thing it never returns, so New takes a
// 2^n-amplitude slab from here and Release gives it back: a warmed
// process allocates per run what the run hands its caller and nothing
// state-sized. The distributed engine's exchange buffers come from the
// same list.
//
// Retention is the standard library object pool's rule without its
// per-P slots (they hide one large object from a caller that migrated
// Ps, making a deterministic hit a probable one): every GC cycle drops
// the slabs that were already old and ages the fresh ones, so a slab
// nobody took across two cycles is garbage and a server that once ran a
// 4 GiB job does not hold 4 GiB.
type slabList struct {
	mu sync.Mutex
	// fresh[n] and old[n]: free 2^n-amplitude slabs released since the
	// last GC cycle, and during the cycle before it.
	fresh, old [MaxQubits + 1][][]complex128
	armed      bool // the list waits for a gcSentinel's finalizer
	stats      PoolStats
}

// PoolStats is the free list's one set of counters, process-wide: takes
// served by a recycled slab or by allocating, and bytes held for reuse.
type PoolStats struct {
	Hits, Misses  uint64
	RetainedBytes int64
}

// slabs holds state-sized slabs and exchange buffers — what SlabStats
// counts; tables holds the phase tables of diagonal groups (table.go), a
// few KiB each, and the sampler's sum trees and outputs, under the same
// retention rule and out of those counters, so a run's state-slab traffic reads the same whether
// or not its circuit groups diagonals.
var slabs, tables slabList

// SlabStats snapshots the free list's counters.
func SlabStats() PoolStats {
	slabs.mu.Lock()
	defer slabs.mu.Unlock()
	return slabs.stats
}

// TakeSlab returns 2^n zeroed amplitudes, recycled when the free list
// holds a slab of that size. The caller owns them until PutSlab.
func TakeSlab(n int) []complex128 { return slabs.take(n) }

func (l *slabList) take(n int) []complex128 {
	l.mu.Lock()
	gen := &l.fresh[n]
	if len(*gen) == 0 {
		gen = &l.old[n]
	}
	k := len(*gen) - 1
	if k < 0 {
		l.stats.Misses++
		l.mu.Unlock()
		return make([]complex128, 1<<uint(n))
	}
	slab := (*gen)[k]
	(*gen)[k] = nil
	*gen = (*gen)[:k]
	l.stats.Hits++
	l.stats.RetainedBytes -= int64(16 * len(slab))
	l.mu.Unlock()
	clear(slab)
	return slab
}

// PutSlab hands a slab back. The caller must hold the only reference:
// the next TakeSlab of this size zeroes and reuses it. A slice that is
// not a whole power-of-two slab is left to the collector.
func PutSlab(slab []complex128) { slabs.put(slab) }

func (l *slabList) put(slab []complex128) {
	n := bits.Len(uint(len(slab))) - 1
	if n < 0 || n > MaxQubits || len(slab) != 1<<uint(n) || cap(slab) != len(slab) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fresh[n] = append(l.fresh[n], slab)
	l.stats.RetainedBytes += int64(16 * len(slab))
	l.arm()
}

// TakeScratch returns 2^n zeroed float64s off the list that holds the
// phase tables: scratch a caller gives back with PutScratch, outside
// SlabStats, so taking it leaves a run's state-slab counts as they were.
// Beyond the list's sizes it is a fresh array PutScratch drops.
func TakeScratch(n int) []float64 {
	if n > MaxQubits+1 {
		return make([]float64, 1<<uint(n))
	}
	return lanes(tables.take(max(0, n-1)))[:1<<uint(n)]
}

// PutScratch hands back what TakeScratch returned (resliced or not).
// The caller must hold the only reference.
func PutScratch(f []float64) {
	if cap(f) >= 2 {
		tables.put(unsafe.Slice((*complex128)(unsafe.Pointer(unsafe.SliceData(f))), cap(f)/2))
	}
}

// gcSentinel is an unreachable object whose finalizer runs after the
// next GC cycle. The pointer keeps it out of the tiny allocator, where
// it could share a block with a live object.
type gcSentinel struct{ self *gcSentinel }

// arm schedules one age() after the next GC cycle unless one is pending
// (l.mu held). Both lists share one sentinel, so a GC cycle costs one
// allocation to watch for however many lists retain something.
func (l *slabList) arm() {
	if !l.armed {
		l.armed = true
		if gcPending.CompareAndSwap(false, true) {
			runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
				gcPending.Store(false)
				slabs.age()
				tables.age()
			})
		}
	}
}

// gcPending: a gcSentinel's finalizer is pending.
var gcPending atomic.Bool

// age is one GC cycle passing: old slabs are dropped, fresh ones become
// old. It re-arms only while something is retained, so an idle process
// carries no finalizer.
func (l *slabList) age() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.armed = false
	for n := range l.old {
		for _, slab := range l.old[n] {
			l.stats.RetainedBytes -= int64(16 * len(slab))
		}
		l.old[n], l.fresh[n] = l.fresh[n], nil
	}
	if l.stats.RetainedBytes > 0 {
		l.arm()
	}
}
