// Package store is the persistence layer of the serving stack: a
// byte-accounted in-memory cache with cost-aware eviction, and an
// on-disk artifact store that spilled and shutdown-time entries land
// in so a restarted server answers repeat fingerprints from disk
// instead of re-simulating. Results are persisted under their
// core.CacheKey content address and compiled plans under their
// plan-cache key, one checksummed internal/artifact file each.
package store

import (
	"container/heap"
	"sort"
)

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
// service holds it under the server mutex).
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

// Evicted reports one entry pushed out by the byte or entry bound —
// the caller's hook for spilling it to disk.
type Evicted[V any] struct {
	Key   string
	Val   V
	Bytes int64
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

// touch refreshes an entry's Greedy-Dual priority against the current
// clock and marks it most recently used.
func (c *Cache[V]) touch(e *centry[V]) {
	e.prio = c.clock + e.cost/float64(max(e.bytes, int64(1)))
	c.seq++
	e.seq = c.seq
	heap.Fix(&c.heap, e.idx)
}

// Add inserts (or refreshes) key's value, accounted at bytes resident
// bytes with the given recompute cost, and returns the entries evicted
// to stay within bounds. A value larger than the whole byte budget is
// never admitted and comes straight back as evicted, so the caller's
// spill path still sees it.
func (c *Cache[V]) Add(key string, val V, bytes int64, cost float64) []Evicted[V] {
	if c.disabled {
		return []Evicted[V]{{Key: key, Val: val, Bytes: bytes}}
	}
	if c.maxBytes > 0 && bytes > c.maxBytes {
		// Inadmissible value: a resident entry under this key is
		// superseded and must not keep serving, so drop it (a
		// replacement, not an eviction) and bounce the new value to the
		// caller's spill path.
		if e, ok := c.items[key]; ok {
			heap.Remove(&c.heap, e.idx)
			delete(c.items, key)
			c.bytes -= e.bytes
		}
		return []Evicted[V]{{Key: key, Val: val, Bytes: bytes}}
	}
	if e, ok := c.items[key]; ok {
		c.bytes += bytes - e.bytes
		e.val, e.bytes, e.cost = val, bytes, cost
		c.touch(e)
		return c.enforce()
	}
	e := &centry[V]{key: key, val: val, bytes: bytes, cost: cost}
	e.prio = c.clock + cost/float64(max(bytes, int64(1)))
	c.seq++
	e.seq = c.seq
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
		e := heap.Pop(&c.heap).(*centry[V])
		delete(c.items, e.key)
		c.bytes -= e.bytes
		if e.prio > c.clock {
			c.clock = e.prio // Greedy-Dual aging: future entries outrank the departed
		}
		c.evictions++
		out = append(out, Evicted[V]{Key: e.key, Val: e.val, Bytes: e.bytes})
	}
	return out
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int { return len(c.heap) }

// Bytes returns the accounted resident size.
func (c *Cache[V]) Bytes() int64 { return c.bytes }

// Evictions returns the cumulative eviction count.
func (c *Cache[V]) Evictions() uint64 { return c.evictions }

// Keys returns resident keys from most to least recently used (test
// hook for eviction/recency assertions).
func (c *Cache[V]) Keys() []string {
	entries := append([]*centry[V](nil), c.heap...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq > entries[j].seq })
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.key
	}
	return keys
}

// Entries snapshots every resident entry (shutdown-time spill hook).
func (c *Cache[V]) Entries() []Evicted[V] {
	out := make([]Evicted[V], 0, len(c.heap))
	for _, e := range c.heap {
		out = append(out, Evicted[V]{Key: e.key, Val: e.val, Bytes: e.bytes})
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
