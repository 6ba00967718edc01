// Package mpi is an in-process message-passing substrate standing in
// for the Cray MPICH the paper's containers link against (§E.1/E.2).
// Ranks are goroutines inside one address space; messages are Go values
// on per-(src,dst) FIFO channels, so the semantics match MPI
// point-to-point ordering guarantees. The collectives implemented are
// exactly those the distributed state-vector engine (internal/mgpu)
// needs: Barrier, Bcast, Reduce, Allreduce and pairwise Exchange.
//
// Passing a slice transfers ownership to the receiver, mirroring how
// CUDA-aware MPI hands off device buffers without copies.
package mpi

import (
	"fmt"
	"sync"
)

// chanBuffer is the per-link channel depth; deep enough that the
// deterministic protocols in this repo never block on buffer space in a
// way that could deadlock pairwise exchanges.
const chanBuffer = 8

// world is the shared state of one Run invocation.
type world struct {
	size  int
	links [][]chan any // links[src][dst]

	barrierMu  sync.Mutex
	barrierCnt int
	barrierGen int
	barrierCh  chan struct{}
}

// Comm is one rank's endpoint into the world.
type Comm struct {
	w    *world
	rank int
}

// Rank returns this endpoint's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.w.size }

// RankError decorates an error with the rank that raised it.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string { return fmt.Sprintf("mpi: rank %d: %v", e.Rank, e.Err) }

// Unwrap exposes the underlying error.
func (e *RankError) Unwrap() error { return e.Err }

// Run spawns size ranks, each executing fn with its own Comm, and waits
// for all of them. Panics inside a rank are recovered into errors. The
// first non-nil rank error is returned (all ranks always run to
// completion or panic; there is no cross-rank cancellation, as in MPI).
func Run(size int, fn func(c *Comm) error) error {
	if size < 1 {
		return fmt.Errorf("mpi: world size %d < 1", size)
	}
	w := &world{size: size, barrierCh: make(chan struct{})}
	w.links = make([][]chan any, size)
	for s := range w.links {
		w.links[s] = make([]chan any, size)
		for d := range w.links[s] {
			w.links[s][d] = make(chan any, chanBuffer)
		}
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = &RankError{Rank: rank, Err: fmt.Errorf("panic: %v", p)}
				}
			}()
			if err := fn(&Comm{w: w, rank: rank}); err != nil {
				errs[rank] = &RankError{Rank: rank, Err: err}
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *Comm) checkPeer(p int) {
	if p < 0 || p >= c.w.size {
		panic(fmt.Sprintf("mpi: rank %d addressed invalid peer %d (size %d)", c.rank, p, c.w.size))
	}
}

// Send delivers msg to dst (blocking only if the link buffer is full).
func (c *Comm) Send(dst int, msg any) {
	c.checkPeer(dst)
	if dst == c.rank {
		panic("mpi: self-send; use local state instead")
	}
	c.w.links[c.rank][dst] <- msg
}

// Recv blocks until a message from src arrives.
func (c *Comm) Recv(src int) any {
	c.checkPeer(src)
	if src == c.rank {
		panic("mpi: self-receive")
	}
	return <-c.w.links[src][c.rank]
}

// Exchange performs a simultaneous pairwise swap with peer: both sides
// send their value and receive the other's. Safe against deadlock
// because links are buffered and both directions are distinct channels.
func (c *Comm) Exchange(peer int, msg any) any {
	c.Send(peer, msg)
	return c.Recv(peer)
}

// Barrier blocks until every rank has entered it. Implemented as a
// sense-reversing counter so it is reusable across generations.
func (c *Comm) Barrier() {
	w := c.w
	w.barrierMu.Lock()
	w.barrierCnt++
	if w.barrierCnt == w.size {
		w.barrierCnt = 0
		w.barrierGen++
		close(w.barrierCh)
		w.barrierCh = make(chan struct{})
		w.barrierMu.Unlock()
		return
	}
	ch := w.barrierCh
	w.barrierMu.Unlock()
	<-ch
}

// Bcast distributes root's value to every rank and returns it (the
// argument is ignored on non-root ranks, as in MPI_Bcast).
func (c *Comm) Bcast(root int, v any) any {
	c.checkPeer(root)
	if c.w.size == 1 {
		return v
	}
	if c.rank == root {
		for r := 0; r < c.w.size; r++ {
			if r != root {
				c.Send(r, v)
			}
		}
		return v
	}
	return c.Recv(root)
}

// ReduceOp is a binary float64 reduction operator.
type ReduceOp func(a, b float64) float64

// Built-in reduction operators.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
)

// Reduce folds every rank's v at root with op; the result is valid only
// at root (other ranks get their own v back, as MPI leaves recvbuf
// undefined there).
func (c *Comm) Reduce(root int, v float64, op ReduceOp) float64 {
	c.checkPeer(root)
	if c.rank == root {
		acc := v
		// Deterministic order: fold ranks in increasing order so
		// floating-point reductions are reproducible run to run.
		for r := 0; r < c.w.size; r++ {
			if r == root {
				continue
			}
			acc = op(acc, c.Recv(r).(float64))
		}
		return acc
	}
	c.Send(root, v)
	return v
}

// Allreduce folds v across all ranks and distributes the result.
func (c *Comm) Allreduce(v float64, op ReduceOp) float64 {
	res := c.Reduce(0, v, op)
	out := c.Bcast(0, res)
	return out.(float64)
}
