package statevec

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// parallelDeadline bounds the pool tests: a nested ParallelFor that
// deadlocks fails here instead of hanging the suite.
const parallelDeadline = time.Minute

// TestParallelForCoverage: every index of [0, n) runs exactly once, in
// at most w contiguous chunks of ceil(n/min(w, n)) indices.
func TestParallelForCoverage(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, w - 1, w, w + 1, 1<<14 + 3} {
			hits := make([]atomic.Int32, n)
			var chunks atomic.Int32
			chunk := n
			if n > 1 {
				chunk = (n + min(w, n) - 1) / min(w, n)
			}
			ParallelFor(n, w, func(lo, hi int) {
				chunks.Add(1)
				if lo != 0 && lo%chunk != 0 || hi != min(lo+chunk, n) {
					t.Errorf("n=%d w=%d: chunk [%d, %d), want chunks of %d", n, w, lo, hi, chunk)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			if c := int(chunks.Load()); c > w {
				t.Errorf("n=%d w=%d: %d chunks", n, w, c)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d w=%d: index %d ran %d times", n, w, i, h)
				}
			}
		}
	}
}

// within runs fn and fails the test if it has not returned by the
// deadline.
func within(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(parallelDeadline):
		t.Fatal("nested ParallelFor did not finish: deadlock")
	}
}

// TestParallelForNesting: more outer chunks than pool workers, each
// fanning out an inner sweep from whichever goroutine runs it (a pool
// worker included), and a three-level nest, all finish and cover their
// index spaces exactly.
func TestParallelForNesting(t *testing.T) {
	outer := 4 * runtime.NumCPU()
	const inner = 1 << 14
	sums := make([]atomic.Int64, outer)
	within(t, func() {
		ParallelFor(outer, outer, func(lo, hi int) {
			for o := lo; o < hi; o++ {
				ParallelFor(inner, 8, func(lo, hi int) {
					sums[o].Add(int64(hi - lo))
				})
			}
		})
	})
	for o := range sums {
		if got := sums[o].Load(); got != inner {
			t.Fatalf("outer chunk %d covered %d of %d", o, got, inner)
		}
	}

	var total atomic.Int64
	within(t, func() {
		ParallelFor(4, 4, func(lo, hi int) {
			for a := lo; a < hi; a++ {
				ParallelFor(4, 4, func(lo, hi int) {
					for b := lo; b < hi; b++ {
						ParallelFor(1<<10, 4, func(lo, hi int) { total.Add(int64(hi - lo)) })
					}
				})
			}
		})
	})
	if got := total.Load(); got != 16<<10 {
		t.Fatalf("three-level nest covered %d of %d", got, 16<<10)
	}
}

// TestParallelForPanic: a panicking chunk, at any depth, re-raises its
// value on the caller once every other chunk has finished, and the pool
// then serves the next call.
func TestParallelForPanic(t *testing.T) {
	const boom = "statevec: chunk panic"
	recovered := func(fn func()) (v any) {
		defer func() { v = recover() }()
		fn()
		return nil
	}
	for _, w := range []int{1, 2, 8} {
		var finished atomic.Int32
		got := recovered(func() {
			ParallelFor(64, w, func(lo, hi int) {
				if lo == 0 {
					panic(boom)
				}
				time.Sleep(time.Millisecond)
				finished.Add(1)
			})
		})
		if got != boom {
			t.Fatalf("w=%d: the caller recovered %v, want %q", w, got, boom)
		}
		if want := int32(min(w, 64) - 1); finished.Load() != want {
			t.Fatalf("w=%d: %d other chunks had finished at the re-raise, want %d", w, finished.Load(), want)
		}
	}
	got := recovered(func() {
		ParallelFor(4, 4, func(lo, hi int) {
			ParallelFor(1<<12, 4, func(lo, hi int) {
				if lo == 0 {
					panic(boom)
				}
			})
		})
	})
	if got != boom {
		t.Fatalf("nested: the caller recovered %v, want %q", got, boom)
	}
	var covered atomic.Int64
	within(t, func() {
		ParallelFor(1<<14, 8, func(lo, hi int) { covered.Add(int64(hi - lo)) })
	})
	if covered.Load() != 1<<14 {
		t.Fatalf("after a panic the pool covered %d of %d", covered.Load(), 1<<14)
	}
}

// TestParallelForGenerationWrap: a pooled record reused 2^32 times
// wraps its generation to 0 and still runs every chunk of the next call.
func TestParallelForGenerationWrap(t *testing.T) {
	for drained := false; !drained; {
		select {
		case <-freeCalls:
		default:
			drained = true
		}
	}
	c := &forCall{done: make(chan struct{}, 1)}
	c.claim.Store(0xFFFFFFFF << 32)
	freeCalls <- c
	var covered atomic.Int64
	within(t, func() {
		ParallelFor(1<<14, 8, func(lo, hi int) { covered.Add(int64(hi - lo)) })
	})
	if covered.Load() != 1<<14 {
		t.Fatalf("after the wrap the pool covered %d of %d", covered.Load(), 1<<14)
	}
	if gen := c.claim.Load() >> 32; gen != 0 {
		t.Fatalf("the record ran generation %d, want the wrapped 0", gen)
	}
}
