package cancel

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilFlagNeverTrips(t *testing.T) {
	var f *Flag
	if err := f.Err(); err != nil {
		t.Fatalf("nil flag: %v", err)
	}
	f.Cancel()                // must not panic
	f.SetDeadline(time.Now()) // must not panic
	f.Extend(time.Now())      // must not panic
	if !f.Deadline().IsZero() {
		t.Fatal("nil flag reports a deadline")
	}
}

func TestCancel(t *testing.T) {
	f := &Flag{}
	if err := f.Err(); err != nil {
		t.Fatalf("fresh flag: %v", err)
	}
	f.Cancel()
	if err := f.Err(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled flag: got %v, want ErrCancelled", err)
	}
}

func TestDeadline(t *testing.T) {
	f := WithDeadline(time.Now().Add(-time.Second))
	err := f.Err()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired flag: got %v, want ErrDeadline", err)
	}
	// ErrDeadline is a kind of cancellation: one errors.Is catches both.
	if !errors.Is(err, ErrCancelled) {
		t.Fatal("ErrDeadline does not wrap ErrCancelled")
	}
	if f2 := WithDeadline(time.Now().Add(time.Hour)); f2.Err() != nil {
		t.Fatalf("future deadline tripped early: %v", f2.Err())
	}
}

func TestExtendOnlyLoosens(t *testing.T) {
	base := time.Now().Add(time.Minute)
	f := WithDeadline(base)

	f.Extend(base.Add(-time.Second)) // tighter: ignored
	if got := f.Deadline(); !got.Equal(time.Unix(0, base.UnixNano())) {
		t.Fatalf("Extend tightened the deadline to %v", got)
	}
	f.Extend(base.Add(time.Hour)) // looser: applied
	if got := f.Deadline(); got.UnixNano() != base.Add(time.Hour).UnixNano() {
		t.Fatalf("Extend did not loosen: %v", got)
	}
	f.Extend(time.Time{}) // unbounded: applied
	if !f.Deadline().IsZero() {
		t.Fatal("Extend(zero) did not clear the deadline")
	}
	f.Extend(base) // a deadline can never return once unbounded
	if !f.Deadline().IsZero() {
		t.Fatal("Extend re-tightened an unbounded flag")
	}
}

func TestConcurrentPollAndTrip(t *testing.T) {
	f := WithDeadline(time.Now().Add(time.Hour))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f.Err()
					f.Extend(time.Now().Add(2 * time.Hour))
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	f.Cancel()
	if !errors.Is(f.Err(), ErrCancelled) {
		t.Fatal("cancel lost under concurrent polling")
	}
	close(stop)
	wg.Wait()
}
