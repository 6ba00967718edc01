// Package mgpu implements the pooled-memory distributed state vector
// behind the paper's 'nvidia-mgpu' target (§3): the 2^n amplitude
// vector is partitioned across R simulated devices (MPI ranks), which
// "effectively combines memory from multiple GPUs" so circuits larger
// than one device's RAM remain simulable — the mechanism that lets the
// paper reach 34 qubits on 4 GPUs and 42 qubits on 1024.
//
// Qubit bits below log2(R) from the top are "local": gates on them
// touch only rank-resident amplitudes. On the top ("global") qubits
// diagonal factors and controls are resolved per rank for free, while a
// gate that mixes one needs it inside the shard: the plan compiler
// (kernel.Plan with GlobalBits = log2(R)) swaps it with a shard-local
// qubit once — a pairwise half-shard exchange between partner ranks,
// the communication cost that shapes Fig. 4b — and every later gate on
// it runs locally. This package executes compiled plans and nothing
// else (planned.go). Exchange and byte counters are exported so the
// cluster model can be calibrated against real exchange counts.
package mgpu

import (
	"errors"
	"fmt"
	"time"

	"qgear/internal/cancel"
	"qgear/internal/kernel"
	"qgear/internal/mpi"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// DistState is one rank's shard of a distributed 2^n state vector.
type DistState struct {
	comm  *mpi.Comm
	n     int // total qubits
	local int // local qubits (amplitude bits resident on this rank)
	st    *statevec.State
	out   *parcel // what the next exchange ships: box at first, then the last parcel received
	box   parcel

	// Stats
	exchanges  int
	bytesSent  int64
	exchangeNS int64 // time this rank spent copying + swapping buffers
}

// NewDist allocates the shard for this rank. The world size must be a
// power of two no larger than 2^(n-1) so every rank holds at least two
// amplitudes.
func NewDist(comm *mpi.Comm, n, workersPerRank int) (*DistState, error) {
	r := comm.Size()
	if !qmath.IsPow2(uint64(r)) {
		return nil, fmt.Errorf("mgpu: world size %d is not a power of two", r)
	}
	gbits := int(qmath.Log2Ceil(uint64(r)))
	local := n - gbits
	if local < 1 {
		return nil, fmt.Errorf("mgpu: %d ranks leave %d local qubits for %d total", r, local, n)
	}
	st, err := statevec.New(local, workersPerRank)
	if err != nil {
		return nil, err
	}
	if comm.Rank() != 0 {
		// Only the global |0...0> amplitude is 1: every other shard is
		// all zero, and skips its sweeps until an exchange brings it
		// amplitudes.
		st.SetAmp(0, 0)
		st.SetSupport(statevec.Support{Zero: true})
	}
	d := &DistState{comm: comm, n: n, local: local, st: st}
	d.out = &d.box
	return d, nil
}

// parcel is what one exchange hands the partner rank: a whole slab from
// the free list, its first amplitudes filled, and the sender's support
// record from before the exchange. Ownership moves with it — the parcel
// received is this rank's to fill for its next exchange — so no two
// ranks ever hold one, and the pointer travels without an allocation.
type parcel struct {
	buf []complex128
	sup statevec.Support
}

// Release gives this rank's shard and exchange buffer back to the slab
// free list. A buffer has one owner at a time — an exchange hands the
// send buffer to the partner and takes the partner's in return — so a
// rank releases only what nobody else reads, whenever it stops.
func (d *DistState) Release() {
	d.st.Release()
	statevec.PutSlab(d.out.buf)
	d.out.buf = nil
}

// exchange swaps the full local buffer with the partner rank and
// returns the partner's amplitudes, in the physical layout both shards
// share (SPMD execution) — the canonical one for ⟨H⟩, whose evaluators
// materialize it first. A copy is shipped, not the live slice: real
// CUDA-aware MPI would DMA the buffer, and the copy is what makes the
// communication cost physically meaningful.
func (d *DistState) exchange(partner int) []complex128 {
	start := time.Now()
	return d.trade(partner, copy(d.slab(), d.st.AmplitudesRaw()), start).buf
}

// slab returns this rank's send buffer, a whole 2^local slab taken from
// the free list on first use.
func (d *DistState) slab() []complex128 {
	if d.out.buf == nil {
		d.out.buf = statevec.TakeSlab(d.local)
	}
	return d.out.buf
}

// trade hands the outgoing parcel, its buffer's first n amplitudes
// filled, to the partner rank and returns the partner's. Ownership
// transfers: the parcel received becomes this rank's outgoing one for
// the next exchange (fully consumed before that exchange starts,
// because segments run sequentially within a rank).
func (d *DistState) trade(partner, n int, start time.Time) *parcel {
	theirs := d.comm.Exchange(partner, d.out).(*parcel)
	d.out = theirs
	d.exchanges++
	d.bytesSent += int64(16 * n)
	d.exchangeNS += int64(time.Since(start))
	return theirs
}

// Probabilities assembles the global |αi|² vector at root (rank 0);
// other ranks receive nil. Root allocates the one 2^n vector and every
// rank reads its shard out straight into its own slice of it — rank
// order equals amplitude order because rank bits are the top index
// bits — so a run allocates exactly what it returns.
func (d *DistState) Probabilities() []float64 {
	var all []float64
	if d.comm.Rank() == 0 {
		all = make([]float64, 1<<uint(d.n))
	}
	all = d.comm.Bcast(0, all).([]float64)
	lo := d.comm.Rank() << uint(d.local)
	d.st.ProbabilitiesInto(all[lo : lo+1<<uint(d.local)])
	d.comm.Barrier() // root returns only once every slice is written
	if d.comm.Rank() != 0 {
		return nil
	}
	return all
}

// pollCancel decides a cancellation check collectively. Ranks share
// one flag object, but deadline polls read per-rank clocks, so at the
// expiry boundary rank A can conclude "expired" while its partner B —
// a few nanoseconds behind — has already entered a blocking pairwise
// Exchange with A; A abandoning the run would strand B forever (the
// mpi shim, like real MPI, has no cross-rank cancellation). An
// Allreduce(max) over the local verdicts makes every rank act on the
// same decision at the same SPMD point: either all ranks continue or
// all ranks stop, and no exchange is ever left half-entered. A nil
// flag costs nothing (and is SPMD-consistent: all ranks share it).
func (d *DistState) pollCancel(flag *cancel.Flag) error {
	if flag == nil {
		return nil
	}
	v := 0.0
	err := flag.Err()
	if err != nil {
		v = 1
	}
	if d.comm.Allreduce(v, mpi.OpMax) == 0 {
		return nil
	}
	if err == nil {
		// Another rank crossed the deadline boundary first; resolve the
		// local error now (it is at most nanoseconds away).
		if err = flag.Err(); err == nil {
			err = cancel.ErrDeadline
		}
	}
	return err
}

// CommStats are the communication counters of one distributed run, as
// reduced at root.
type CommStats struct {
	Exchanges int   // total pairwise exchanges across all ranks
	BytesSent int64 // total bytes shipped between ranks
	// ExchangeTime is the root rank's cumulative exchange wait — a
	// representative (SPMD-symmetric) communication share of the run's
	// wall clock, not a cross-rank sum (ranks exchange concurrently).
	ExchangeTime time.Duration
}

// Result is what SimulateCompiled returns at root.
type Result struct {
	Probabilities []float64
	CommStats
}

// runWorld is the one rank harness: it spawns nRanks device ranks,
// executes the compiled plan on each shard, lets finish read the shard
// out (every rank calls it; what it keeps at root is its own business),
// and reduces the communication counters at root. The distributed
// engine has no other executor, so a missing plan is an error.
func runWorld(k *kernel.Kernel, plan *kernel.TilePlan, nRanks, workersPerRank int, flag *cancel.Flag, finish func(d *DistState) error) (CommStats, error) {
	var cs CommStats
	if plan == nil {
		return cs, errors.New("mgpu: no compiled plan: the distributed engine executes a kernel.TilePlan only")
	}
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		d, err := NewDist(c, k.NumQubits, workersPerRank)
		if err != nil {
			return err
		}
		defer d.Release()
		if err := d.ExecutePlanCancel(plan, flag); err != nil {
			return err
		}
		if err := finish(d); err != nil {
			return err
		}
		ex := c.Reduce(0, float64(d.exchanges), mpi.OpSum)
		by := c.Reduce(0, float64(d.bytesSent), mpi.OpSum)
		if c.Rank() == 0 {
			cs = CommStats{Exchanges: int(ex), BytesSent: int64(by), ExchangeTime: time.Duration(d.exchangeNS)}
		}
		return nil
	})
	return cs, err
}
