// Package store is the persistence layer of the serving stack: a
// byte-accounted in-memory cache with cost-aware eviction, and an
// on-disk artifact store that spilled and shutdown-time entries land
// in so a restarted server answers repeat fingerprints from disk
// instead of re-simulating. Results are persisted under their
// core.CacheKey content address and compiled plans under their
// plan-cache key, one checksummed internal/artifact file each.
package store

import "container/heap"

// Cache is a byte-accounted cache with cost-aware eviction: every
// entry carries its resident size in bytes and a recompute cost, and
// when a bound is exceeded the entry with the lowest retained value
// per byte goes first — the Greedy-Dual-Size policy (Cao & Irani),
// which caches like Qibo's compiled-artifact stores weight by
// recompute cost rather than pure recency.
//
// Each entry's priority is clock + cost/bytes. The clock ratchets to
// the priority of the last eviction, so long-unused entries age out,
// while an expensive-to-recompute entry earns residency proportional
// to cost per byte. Entries with equal priority (equal cost and size)
// fall back to exact LRU via a monotone sequence number, so the
// policy degrades to the familiar recency discipline on uniform
// workloads.
//
// Cache is not safe for concurrent use; callers serialize access (the
// service holds it under the server mutex, the on-disk Store under its
// own).
type Cache[V any] struct {
	maxEntries int   // > 0 bounds the entry count; 0 = unbounded
	maxBytes   int64 // > 0 bounds resident bytes; 0 = unbounded
	disabled   bool

	clock     float64
	seq       uint64
	items     map[string]*centry[V]
	heap      centryHeap[V]
	bytes     int64
	evictions uint64
}

// centry is one resident cache entry.
type centry[V any] struct {
	key   string
	val   V
	bytes int64
	cost  float64
	prio  float64
	seq   uint64
	idx   int // heap index
}

// Evicted reports one entry pushed out by the byte or entry bound or
// by EvictTo — the caller's hook for spilling it to disk or deleting
// its file.
type Evicted[V any] struct {
	Key   string
	Val   V
	Bytes int64
	Cost  float64
}

// NewCache returns a cache bounded to maxEntries entries (0 =
// unbounded, < 0 disables caching entirely: every Get misses and Add
// evicts immediately) and maxBytes resident bytes (<= 0 = unbounded).
func NewCache[V any](maxEntries int, maxBytes int64) *Cache[V] {
	c := &Cache[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		items:      make(map[string]*centry[V]),
	}
	if maxEntries < 0 {
		c.disabled = true
		c.maxEntries = 0
	}
	if maxBytes < 0 {
		c.maxBytes = 0
	}
	return c
}

// Get returns the cached value for key and refreshes its priority and
// recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.touch(e)
	return e.val, true
}

// Peek returns the cached value for key without touching its priority
// or recency.
func (c *Cache[V]) Peek(key string) (V, bool) {
	e, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Touch refreshes key's priority and recency like a Get; a cost > 0
// replaces the entry's recompute cost first (a load that learned the
// real cost).
func (c *Cache[V]) Touch(key string, cost float64) {
	if e, ok := c.items[key]; ok {
		if cost > 0 {
			e.cost = cost
		}
		c.touch(e)
	}
}

// Remove drops key and reports whether it was resident. A removal is
// not an eviction: it is not counted and does not age the clock.
func (c *Cache[V]) Remove(key string) bool {
	e, ok := c.items[key]
	if ok {
		heap.Remove(&c.heap, e.idx)
		delete(c.items, key)
		c.bytes -= e.bytes
	}
	return ok
}

// stamp sets an entry's Greedy-Dual priority against the current
// clock and marks it most recently used.
func (c *Cache[V]) stamp(e *centry[V]) {
	e.prio = c.clock + e.cost/float64(max(e.bytes, int64(1)))
	c.seq++
	e.seq = c.seq
}

// touch restamps a resident entry and restores heap order.
func (c *Cache[V]) touch(e *centry[V]) {
	c.stamp(e)
	heap.Fix(&c.heap, e.idx)
}

// Add inserts (or refreshes) key's value, accounted at bytes resident
// bytes with the given recompute cost, and returns the entries evicted
// to stay within bounds. A value larger than the whole byte budget is
// never admitted and comes straight back as evicted, so the caller's
// spill path still sees it.
func (c *Cache[V]) Add(key string, val V, bytes int64, cost float64) []Evicted[V] {
	if c.disabled {
		return []Evicted[V]{{Key: key, Val: val, Bytes: bytes, Cost: cost}}
	}
	if c.maxBytes > 0 && bytes > c.maxBytes {
		// Inadmissible value: a resident entry under this key is
		// superseded and must not keep serving, so drop it (a
		// replacement, not an eviction) and bounce the new value to the
		// caller's spill path.
		c.Remove(key)
		return []Evicted[V]{{Key: key, Val: val, Bytes: bytes, Cost: cost}}
	}
	if e, ok := c.items[key]; ok {
		c.bytes += bytes - e.bytes
		e.val, e.bytes, e.cost = val, bytes, cost
		c.touch(e)
		return c.enforce()
	}
	e := &centry[V]{key: key, val: val, bytes: bytes, cost: cost}
	c.stamp(e)
	c.items[key] = e
	heap.Push(&c.heap, e)
	c.bytes += bytes
	return c.enforce()
}

// enforce evicts lowest-value-per-byte entries until both bounds hold.
func (c *Cache[V]) enforce() []Evicted[V] {
	var out []Evicted[V]
	for len(c.heap) > 0 &&
		((c.maxEntries > 0 && len(c.heap) > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		out = append(out, c.evict())
	}
	return out
}

// EvictTo evicts lowest-value-per-byte entries, in the order the
// bounds would, until at most target bytes stay resident, and returns
// them.
func (c *Cache[V]) EvictTo(target int64) []Evicted[V] {
	var out []Evicted[V]
	for len(c.heap) > 0 && c.bytes > target {
		out = append(out, c.evict())
	}
	return out
}

// evict pops the cheapest-to-lose entry and ages the clock to it.
func (c *Cache[V]) evict() Evicted[V] {
	e := heap.Pop(&c.heap).(*centry[V])
	delete(c.items, e.key)
	c.bytes -= e.bytes
	if e.prio > c.clock {
		c.clock = e.prio // Greedy-Dual aging: future entries outrank the departed
	}
	c.evictions++
	return Evicted[V]{Key: e.key, Val: e.val, Bytes: e.bytes, Cost: e.cost}
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int { return len(c.heap) }

// Bytes returns the accounted resident size.
func (c *Cache[V]) Bytes() int64 { return c.bytes }

// Evictions returns the cumulative eviction count.
func (c *Cache[V]) Evictions() uint64 { return c.evictions }

// Entries snapshots every resident entry (the service's shutdown
// spill, the store's manifest compaction).
func (c *Cache[V]) Entries() []Evicted[V] {
	out := make([]Evicted[V], 0, len(c.heap))
	for _, e := range c.heap {
		out = append(out, Evicted[V]{Key: e.key, Val: e.val, Bytes: e.bytes, Cost: e.cost})
	}
	return out
}

// centryHeap is a min-heap on (priority, sequence): the root is the
// cheapest-to-lose entry, ties broken toward least recently used.
type centryHeap[V any] []*centry[V]

func (h centryHeap[V]) Len() int { return len(h) }
func (h centryHeap[V]) Less(a, b int) bool {
	if h[a].prio != h[b].prio {
		return h[a].prio < h[b].prio
	}
	return h[a].seq < h[b].seq
}
func (h centryHeap[V]) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].idx = a
	h[b].idx = b
}
func (h *centryHeap[V]) Push(x any) {
	e := x.(*centry[V])
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *centryHeap[V]) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
