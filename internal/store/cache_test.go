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
// small expensive one.
func TestCostAwareEvictionOrder(t *testing.T) {
	c := NewCache[string](0, 100)
	c.Add("bigCheap", "a", 60, 6)        // 0.1 cost/byte
	c.Add("smallDear", "b", 30, 3000)    // 100 cost/byte
	ev := c.Add("newcomer", "c", 40, 40) // 1 cost/byte; forces 130 -> <=100
	if len(ev) != 1 || ev[0].Key != "bigCheap" {
		t.Fatalf("evicted %+v, want bigCheap despite it being as recent as smallDear", ev)
	}
	if _, ok := c.Get("smallDear"); !ok {
		t.Fatal("high-cost-per-byte entry was evicted")
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
// serving hits.
func TestOversizedRefreshDropsStaleEntry(t *testing.T) {
	c := NewCache[int](0, 100)
	c.Add("k", 1, 50, 10)
	ev := c.Add("k", 2, 1000, 10)
	if len(ev) != 1 || ev[0].Key != "k" || ev[0].Val != 2 {
		t.Fatalf("evicted %+v, want the new oversized value", ev)
	}
	if v, ok := c.Get("k"); ok {
		t.Fatalf("stale value %d still served after oversized refresh", v)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("len=%d bytes=%d after oversized refresh, want 0/0", c.Len(), c.Bytes())
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
// size adjusts the byte account instead of double-charging.
func TestRefreshUpdatesAccounting(t *testing.T) {
	c := NewCache[int](0, 1000)
	c.Add("k", 1, 100, 1)
	c.Add("k", 2, 300, 1)
	if c.Len() != 1 || c.Bytes() != 300 {
		t.Fatalf("len=%d bytes=%d after refresh, want 1/300", c.Len(), c.Bytes())
	}
	if v, ok := c.Get("k"); !ok || v != 2 {
		t.Fatalf("got %d/%v, want refreshed value 2", v, ok)
	}
}

// TestAgingEvictsStaleExpensiveEntries checks the Greedy-Dual clock: a
// high-cost entry that is never touched again must eventually age out
// once enough cheaper traffic has churned through.
func TestAgingEvictsStaleExpensiveEntries(t *testing.T) {
	c := NewCache[int](0, 100)
	c.Add("dear", 0, 50, 500) // 10 cost/byte
	gone := false
	for i := 0; i < 10000 && !gone; i++ {
		for _, ev := range c.Add(fmt.Sprintf("w%d", i), i, 50, 50) { // 1 cost/byte each
			if ev.Key == "dear" {
				gone = true
			}
		}
	}
	if !gone {
		t.Fatal("stale expensive entry never aged out under sustained cheap traffic")
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
