package statevec

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"qgear/internal/gate"
)

// emptySlabs ages the free list twice — two GC cycles passing — so a
// test starts from nothing retained whatever ran before it.
func emptySlabs(t *testing.T) {
	t.Helper()
	slabs.age()
	slabs.age()
	if got := SlabStats().RetainedBytes; got != 0 {
		t.Fatalf("free list retains %d bytes after two cycles", got)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a released state did not panic", what)
		}
	}()
	fn()
}

// TestReleaseMakesStateUnusable: every way into the amplitudes panics
// after Release (the slab may already be another run's), and a second
// Release gives nothing back twice.
func TestReleaseMakesStateUnusable(t *testing.T) {
	emptySlabs(t)
	s := MustNew(6, 2)
	s.ApplyGate(gate.H, []int{0}, nil)
	s.Release()
	want := SlabStats()
	if want.RetainedBytes != 16<<6 {
		t.Fatalf("retained %d bytes after releasing a 6-qubit state, want %d", want.RetainedBytes, 16<<6)
	}
	s.Release()
	if got := SlabStats(); got != want {
		t.Fatalf("second Release moved the free list: %+v, was %+v", got, want)
	}
	mustPanic(t, "ApplyGate", func() { s.ApplyGate(gate.H, []int{0}, nil) })
	mustPanic(t, "ApplyTileRun", func() { _ = s.ApplyTileRun(2, 0, []TileOp{DiagOp(1, 0, 0)}) })
	mustPanic(t, "Probabilities", func() { s.Probabilities() })
	mustPanic(t, "Amplitudes", func() { s.Amplitudes() })
	mustPanic(t, "AmplitudesRaw", func() { s.AmplitudesRaw() })
	mustPanic(t, "Amp", func() { s.Amp(0) })
	mustPanic(t, "Clone", func() { s.Clone() })
	mustPanic(t, "PauliEvaluator", func() { s.PauliEvaluator() })
	mustPanic(t, "ProbabilitiesInto", func() { s.ProbabilitiesInto(nil) })
	// None of that touched the slab on the free list.
	if got := SlabStats(); got != want {
		t.Fatalf("use after release moved the free list: %+v, was %+v", got, want)
	}
}

// TestRecycledSlabIsZeroState: a slab dirtied in every amplitude comes
// back from New as exactly |0…0⟩, and it is the same memory.
func TestRecycledSlabIsZeroState(t *testing.T) {
	emptySlabs(t)
	const n = 10
	s := MustNew(n, 1)
	for q := 0; q < n; q++ {
		s.ApplyGate(gate.H, []int{q}, nil)
		s.ApplyGate(gate.T, []int{q}, nil)
	}
	declareSwaps(t, s, [2]int{0, 3}) // a pending permutation must not survive either
	first := &s.AmplitudesRaw()[0]
	before := SlabStats()
	s.Release()

	r := MustNew(n, 3)
	after := SlabStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses || after.RetainedBytes != 0 {
		t.Fatalf("New after Release: %+v, before %+v; want one hit and nothing retained", after, before)
	}
	if &r.AmplitudesRaw()[0] != first {
		t.Fatal("New did not reuse the released slab")
	}
	if !r.PermIsIdentity() {
		t.Fatal("recycled state carries a permutation")
	}
	for i, a := range r.AmplitudesRaw() {
		want := complex128(0)
		if i == 0 {
			want = 1
		}
		if a != want {
			t.Fatalf("recycled amplitude %d = %v, want %v", i, a, want)
		}
	}
	// A different size never takes it.
	r.Release()
	o := MustNew(n+1, 1)
	if got := SlabStats(); got.Misses != after.Misses+1 || got.RetainedBytes != 16<<n {
		t.Fatalf("an %d-qubit New took from the %d-qubit list: %+v", n+1, n, got)
	}
	o.Release()
}

// TestSlabAging is the retention rule, one cycle at a time: a released
// slab survives one GC cycle and is taken after it; one that sits
// through two is gone, and nothing stays armed for an empty list.
func TestSlabAging(t *testing.T) {
	emptySlabs(t)
	const n = 8
	PutSlab(make([]complex128, 1<<n))
	slabs.age()
	if got := SlabStats().RetainedBytes; got != 16<<n {
		t.Fatalf("retained %d bytes after one cycle, want the slab (%d)", got, 16<<n)
	}
	before := SlabStats()
	slab := TakeSlab(n)
	if got := SlabStats(); got.Hits != before.Hits+1 || got.RetainedBytes != 0 {
		t.Fatalf("take after one cycle: %+v, want a hit", got)
	}
	PutSlab(slab)
	slabs.age()
	PutSlab(make([]complex128, 1<<n)) // fresh beside an old one
	slabs.age()
	if got := SlabStats().RetainedBytes; got != 16<<n {
		t.Fatalf("retained %d bytes, want only the slab released last cycle (%d)", got, 16<<n)
	}
	slabs.age()
	if got := SlabStats().RetainedBytes; got != 0 {
		t.Fatalf("retained %d bytes after two idle cycles, want 0", got)
	}
	slabs.mu.Lock()
	armed := slabs.armed
	slabs.mu.Unlock()
	if armed {
		t.Fatal("an empty free list re-armed its GC sentinel")
	}
	// Slices that are not whole slabs are never kept.
	PutSlab(make([]complex128, 3))
	PutSlab(make([]complex128, 4, 8))
	PutSlab(nil)
	if got := SlabStats().RetainedBytes; got != 0 {
		t.Fatalf("retained %d bytes of non-slab slices", got)
	}
}

// TestSlabsDroppedByGC is the same rule driven by the collector itself:
// with no runs, garbage collections alone empty the free list. (Two
// cycles suffice; the loop only waits for the finalizer goroutine to be
// scheduled after each.)
func TestSlabsDroppedByGC(t *testing.T) {
	emptySlabs(t)
	MustNew(12, 1).Release()
	MustNew(9, 1).Release()
	if got := SlabStats().RetainedBytes; got != 16<<12+16<<9 {
		t.Fatalf("retained %d bytes, want %d", got, 16<<12+16<<9)
	}
	deadline := time.Now().Add(10 * time.Second)
	for cycles := 1; SlabStats().RetainedBytes != 0; cycles++ {
		if time.Now().After(deadline) {
			t.Fatalf("free list still retains %d bytes after %d GC cycles", SlabStats().RetainedBytes, cycles)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestSlabsConcurrent: goroutines taking and releasing states of mixed
// sizes never share a slab. Each stamps its state with its own id,
// yields, and checks the stamp before releasing — under -race a slab
// with two owners is a reported race, without it a failed check. After
// the traffic each size holds at most one slab per goroutine.
func TestSlabsConcurrent(t *testing.T) {
	emptySlabs(t)
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stamp := complex(float64(g+1), 0)
			for r := 0; r < rounds; r++ {
				n := 3 + (g+r)%4
				s := MustNew(n, 1)
				amps := s.AmplitudesRaw()
				for i, a := range amps {
					if (i == 0 && a != 1) || (i > 0 && a != 0) {
						t.Errorf("goroutine %d round %d: New(%d) amplitude %d = %v", g, r, n, i, a)
						return
					}
				}
				for i := range amps {
					amps[i] = stamp
				}
				runtime.Gosched()
				for i, a := range amps {
					if a != stamp {
						t.Errorf("goroutine %d round %d: amplitude %d overwritten with %v", g, r, i, a)
						return
					}
				}
				if r%16 == 0 {
					slabs.age() // a GC cycle in the middle of traffic
				}
				s.Release()
			}
		}(g)
	}
	wg.Wait()
	// A take allocates only when its size's list is empty, so no size
	// ever holds more slabs than were live at once — at most one per
	// goroutine — and the counter is the bytes the lists hold. Summed
	// over sizes that is more than goroutines slabs of the largest size:
	// all eight 6-qubit slabs can be free while a 3-qubit one is too.
	slabs.mu.Lock()
	defer slabs.mu.Unlock()
	var held int64
	for n := range slabs.fresh {
		k := len(slabs.fresh[n]) + len(slabs.old[n])
		if k > goroutines {
			t.Errorf("%d free %d-qubit slabs after %d goroutines", k, n, goroutines)
		}
		held += int64(16 * k << uint(n))
	}
	if st := slabs.stats; st.RetainedBytes <= 0 || st.RetainedBytes != held {
		t.Fatalf("retained %d bytes, the lists hold %d", st.RetainedBytes, held)
	}
}
