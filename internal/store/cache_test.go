package store

import (
	"fmt"
	"reflect"
	"testing"
)

// TestByteBoundEnforced checks the resident-byte invariant: the cache
// never holds more than its budget, whatever mix of entry sizes
// arrives.
func TestByteBoundEnforced(t *testing.T) {
	c := NewCache[int](0, 100)
	var spilled int
	for i := 0; i < 50; i++ {
		size := int64(10 + 7*(i%5))
		spilled += len(c.Add(fmt.Sprintf("k%d", i), i, size, 1))
		if c.Bytes() > 100 {
			t.Fatalf("after add %d: %d resident bytes exceed budget 100", i, c.Bytes())
		}
	}
	if c.Evictions() == 0 || spilled == 0 {
		t.Fatalf("expected evictions under a 100-byte budget (got %d, %d returned)", c.Evictions(), spilled)
	}
	// Everything evicted was handed back exactly once.
	if int(c.Evictions()) != spilled {
		t.Fatalf("evictions %d != returned entries %d", c.Evictions(), spilled)
	}
}

// TestCostAwareEvictionOrder checks the Greedy-Dual-Size policy under
// mixed entry sizes: with equal recency, the entry with the lowest
// recompute cost per byte leaves first — a big cheap entry before a
// small expensive one — whether the byte bound evicts it or EvictTo
// does on an unbounded cache.
func TestCostAwareEvictionOrder(t *testing.T) {
	for _, evictTo := range []bool{false, true} {
		c := NewCache[string](0, 100)
		if evictTo {
			c = NewCache[string](0, 0)
		}
		c.Add("bigCheap", "a", 60, 6)        // 0.1 cost/byte
		c.Add("smallDear", "b", 30, 3000)    // 100 cost/byte
		ev := c.Add("newcomer", "c", 40, 40) // 1 cost/byte; forces 130 -> <=100
		if evictTo {
			if len(ev) != 0 {
				t.Fatalf("an unbounded cache evicted %+v on Add", ev)
			}
			ev = c.EvictTo(100)
		}
		if len(ev) != 1 || ev[0].Key != "bigCheap" || ev[0].Bytes != 60 || ev[0].Cost != 6 {
			t.Fatalf("EvictTo %v: evicted %+v, want bigCheap (60 bytes, cost 6) despite it being as recent as smallDear", evictTo, ev)
		}
		if _, ok := c.Get("smallDear"); !ok {
			t.Fatalf("EvictTo %v: high-cost-per-byte entry was evicted", evictTo)
		}
	}
}

// TestEqualCostDegradesToLRU checks the tie-break: uniform sizes and
// costs must reproduce exact LRU behavior, refreshes included.
func TestEqualCostDegradesToLRU(t *testing.T) {
	c := NewCache[int](2, 0)
	c.Add("a", 1, 10, 5)
	c.Add("b", 2, 10, 5)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	ev := c.Add("c", 3, 10, 5)
	if len(ev) != 1 || ev[0].Key != "b" {
		t.Fatalf("evicted %+v, want the cold entry b", ev)
	}
	if ev := c.Add("d", 4, 10, 5); len(ev) != 1 || ev[0].Key != "a" {
		t.Fatalf("evicted %+v, want a, older than c", ev)
	}
}

// TestOversizedEntryNeverAdmitted checks that a value larger than the
// whole budget bounces straight back (for the spill path) without
// flushing resident entries.
func TestOversizedEntryNeverAdmitted(t *testing.T) {
	c := NewCache[int](0, 100)
	c.Add("resident", 1, 50, 10)
	ev := c.Add("giant", 2, 1000, 10)
	if len(ev) != 1 || ev[0].Key != "giant" {
		t.Fatalf("evicted %+v, want the oversized entry itself", ev)
	}
	if _, ok := c.Get("resident"); !ok {
		t.Fatal("resident entry was flushed by an inadmissible one")
	}
	if c.Len() != 1 || c.Bytes() != 50 {
		t.Fatalf("len=%d bytes=%d, want 1/50", c.Len(), c.Bytes())
	}
}

// TestOversizedRefreshDropsStaleEntry: refreshing a resident key with
// an inadmissible value must not leave the superseded old value
// serving hits, and neither that drop nor an explicit Remove is an
// eviction: neither counts one nor ages the clock.
func TestOversizedRefreshDropsStaleEntry(t *testing.T) {
	for _, remove := range []bool{false, true} {
		c := NewCache[int](0, 100)
		c.Add("k", 1, 50, 10)
		if remove {
			if !c.Remove("k") || c.Remove("k") {
				t.Fatal("Remove did not report exactly one resident entry")
			}
		} else if ev := c.Add("k", 2, 1000, 10); len(ev) != 1 || ev[0].Key != "k" || ev[0].Val != 2 {
			t.Fatalf("evicted %+v, want the new oversized value", ev)
		}
		if v, ok := c.Get("k"); ok {
			t.Fatalf("Remove %v: stale value %d still served", remove, v)
		}
		if c.Len() != 0 || c.Bytes() != 0 {
			t.Fatalf("Remove %v: len=%d bytes=%d, want 0/0", remove, c.Len(), c.Bytes())
		}
		if c.Evictions() != 0 || c.clock != 0 {
			t.Fatalf("Remove %v: %d evictions, clock %g; a drop is not an eviction", remove, c.Evictions(), c.clock)
		}
	}
}

// TestDisabledCache checks maxEntries < 0: every Get misses, every Add
// comes straight back.
func TestDisabledCache(t *testing.T) {
	c := NewCache[int](-1, 0)
	ev := c.Add("k", 1, 10, 1)
	if len(ev) != 1 || ev[0].Key != "k" {
		t.Fatalf("disabled cache retained the entry: %+v", ev)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("disabled cache holds %d entries / %d bytes", c.Len(), c.Bytes())
	}
}

// TestRefreshUpdatesAccounting checks that re-adding a key with a new
// size adjusts the byte account instead of double-charging, and that a
// Touch keeps the entry's cost unless it is given one (of a key that
// is not resident, it adds nothing).
func TestRefreshUpdatesAccounting(t *testing.T) {
	for _, touch := range []struct{ cost, want float64 }{{0, 3}, {7, 7}} {
		c := NewCache[int](0, 1000)
		c.Add("k", 1, 100, 1)
		c.Add("k", 2, 300, 3)
		c.Touch("k", touch.cost)
		c.Touch("absent", touch.cost)
		if c.Len() != 1 || c.Bytes() != 300 {
			t.Fatalf("len=%d bytes=%d after refresh, want 1/300", c.Len(), c.Bytes())
		}
		if e := c.Entries(); e[0].Cost != touch.want {
			t.Fatalf("Touch(k, %g): cost %g, want %g", touch.cost, e[0].Cost, touch.want)
		}
		if v, ok := c.Peek("k"); !ok || v != 2 {
			t.Fatalf("got %d/%v, want refreshed value 2", v, ok)
		}
	}
}

// TestAgingEvictsStaleExpensiveEntries checks the Greedy-Dual clock: a
// high-cost entry that is never touched again must eventually age out
// once enough cheaper traffic has churned through, whether the byte
// bound evicts or EvictTo does on an unbounded cache.
func TestAgingEvictsStaleExpensiveEntries(t *testing.T) {
	for _, evictTo := range []bool{false, true} {
		c := NewCache[int](0, 100)
		if evictTo {
			c = NewCache[int](0, 0)
		}
		c.Add("dear", 0, 50, 500) // 10 cost/byte
		gone := false
		for i := 0; i < 10000 && !gone; i++ {
			ev := c.Add(fmt.Sprintf("w%d", i), i, 50, 50) // 1 cost/byte each
			if evictTo {
				ev = c.EvictTo(100)
			}
			for _, e := range ev {
				if e.Key == "dear" {
					gone = true
				}
			}
		}
		if !gone {
			t.Fatalf("EvictTo %v: stale expensive entry never aged out under sustained cheap traffic", evictTo)
		}
	}
}

// TestEntriesSnapshot checks the shutdown-spill hook sees every
// resident entry with its accounting intact.
func TestEntriesSnapshot(t *testing.T) {
	c := NewCache[int](0, 0)
	c.Add("a", 1, 10, 2)
	c.Add("b", 2, 20, 3)
	got := map[string]int64{}
	for _, e := range c.Entries() {
		got[e.Key] = e.Bytes
	}
	if !reflect.DeepEqual(got, map[string]int64{"a": 10, "b": 20}) {
		t.Fatalf("entries snapshot %v", got)
	}
}
