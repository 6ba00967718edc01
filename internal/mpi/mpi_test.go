package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunBasics(t *testing.T) {
	var count int64
	err := Run(8, func(c *Comm) error {
		if c.Size() != 8 {
			return fmt.Errorf("size %d", c.Size())
		}
		atomic.AddInt64(&count, int64(c.Rank()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 28 { // 0+1+...+7
		t.Fatalf("ranks did not all run: sum %d", count)
	}
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("zero-size world accepted")
	}
}

func TestRankErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 || !errors.Is(err, sentinel) {
		t.Fatalf("error not propagated correctly: %v", err)
	}
}

func TestPanicRecovered(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kernel exploded")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not surfaced")
	}
}

func TestSendRecvOrdering(t *testing.T) {
	// Messages between a pair preserve FIFO order.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 20; i++ {
				c.Send(1, i)
			}
			return nil
		}
		for i := 0; i < 20; i++ {
			if got := c.Recv(0).(int); got != i {
				return fmt.Errorf("out of order: got %d want %d", got, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchange(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		peer := c.Rank() ^ 1
		got := c.Exchange(peer, c.Rank()).(int)
		if got != peer {
			return fmt.Errorf("exchange got %d, want %d", got, peer)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const ranks = 6
	var phase int64
	err := Run(ranks, func(c *Comm) error {
		atomic.AddInt64(&phase, 1)
		c.Barrier()
		// After the barrier every rank must observe all increments.
		if got := atomic.LoadInt64(&phase); got != ranks {
			return fmt.Errorf("rank %d saw phase %d before barrier release", c.Rank(), got)
		}
		c.Barrier() // reusable across generations
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		v := c.Bcast(2, c.Rank()*100)
		if v.(int) != 200 {
			return fmt.Errorf("bcast got %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Single-rank world: Bcast is identity.
	if err := Run(1, func(c *Comm) error {
		if c.Bcast(0, 7).(int) != 7 {
			return errors.New("bcast identity failed")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		sum := c.Reduce(0, float64(c.Rank()+1), OpSum)
		if c.Rank() == 0 && sum != 21 {
			return fmt.Errorf("reduce sum %g", sum)
		}
		all := c.Allreduce(float64(c.Rank()), OpMax)
		if all != 5 {
			return fmt.Errorf("allreduce max %g", all)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceDeterministicOrder(t *testing.T) {
	// The fold order is rank-increasing, so fp results are identical
	// across runs.
	vals := []float64{1e-17, 1.0, -1e17, 1e17, 2.5, -0.5}
	var first float64
	for trial := 0; trial < 5; trial++ {
		var got float64
		err := Run(6, func(c *Comm) error {
			r := c.Reduce(0, vals[c.Rank()], OpSum)
			if c.Rank() == 0 {
				got = r
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = got
		} else if got != first {
			t.Fatalf("reduce not deterministic: %g vs %g", got, first)
		}
	}
}

func TestInvalidPeerPanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(5, 1) // out of range -> panic -> recovered into error
		}
		return nil
	})
	if err == nil {
		t.Fatal("invalid peer accepted")
	}
	err = Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			c.Send(1, 1) // self-send -> panic
		}
		return nil
	})
	if err == nil {
		t.Fatal("self-send accepted")
	}
}

func TestManyRanksStress(t *testing.T) {
	// A ring pass with 32 ranks exercising send/recv + barrier + reduce.
	const ranks = 32
	err := Run(ranks, func(c *Comm) error {
		next := (c.Rank() + 1) % ranks
		prev := (c.Rank() + ranks - 1) % ranks
		token := c.Rank()
		for hop := 0; hop < ranks; hop++ {
			c.Send(next, token)
			token = c.Recv(prev).(int)
		}
		// After size hops the token returns home.
		if token != c.Rank() {
			return fmt.Errorf("ring token %d at rank %d", token, c.Rank())
		}
		total := c.Allreduce(1, OpSum)
		if total != ranks {
			return fmt.Errorf("allreduce count %g", total)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
