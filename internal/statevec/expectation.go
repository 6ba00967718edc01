package statevec

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Canonical Pauli-string expectation evaluation.
//
// ⟨ψ|P|ψ⟩ for a Pauli string P is computed directly against the
// resident amplitude array — no clone, no basis-rotation sweeps, and
// no materialization of a pending qubit permutation. P acts on a
// basis state as P|b⟩ = phase(b)·|b ⊕ flip⟩ with flip = X|Y mask and
// phase(b) = i^{|Y|}·(−1)^{popcount(b & (Y|Z))}, so
//
//	⟨P⟩ = Σ_b conj(a_b)·phase(b⊕flip)·a_{b⊕flip}.
//
// Hermiticity pairs b with b⊕flip: iterating only the half with the
// pivot bit (the lowest flip bit) clear and doubling the real part
// visits 2^(n−1) index pairs. A pure-Z string (flip = 0) needs only
// its odd-parity half: ⟨P⟩ = 1 − 2·Σ_{parity(b&Z) odd} |a_b|², using
// the unit norm every unitary evolution preserves. Identity-padded
// few-qubit terms therefore enumerate exactly half the state, never
// 2^n — the same stride discipline as the diagonal gate kernels.
//
// Summation order is part of the contract. The compact enumeration
// index j (b with the pivot bit removed) is split into chunks of
// 2^ExpChunkBits(n) contributions; each chunk is summed sequentially
// in ascending j, and chunk partials reduce through a balanced binary
// tree (TreeSum). Because a rank shard of the distributed engine
// covers a chunk-aligned, power-of-two, contiguous j-range, its
// tree-reduced partial is an exact subtree of the global reduction:
// single-device, tiled (permuted layout), and distributed evaluation
// produce bit-identical values, for any worker count and — via
// expReserveBits — up to 2^expReserveBits ranks.
//
// Memory order is not. A chunk's 2^cb contributions read one block of
// 2^(cb+1) consecutive logical amplitudes (pivot inside the block) or
// one half of such a block (pivot above it), plus the block reached by
// the term's flip bits at or above the block width. The evaluator
// therefore sweeps the state once per *group* of terms, not once per
// term: a worker makes a super-block resident — the 2^w blocks that
// differ only in w "wide" high qubits, chosen to cover the group's
// high flip bits — and every term of the group accumulates its own
// chunk partials from it. On the identity layout the blocks are
// slices of the amplitude array; on a permuted layout each amplitude
// is gathered exactly once per group into a reused scratch buffer that
// stays in L2, in ascending physical address order.

const (
	// expMaxChunkBits caps one chunk at 2^12 contributions: small
	// enough to parallelize mid-sized states, large enough that the
	// chunk-partial array stays negligible (2^15 float64 at n = 28).
	expMaxChunkBits = 12
	// expReserveBits keeps chunk boundaries inside every rank shard's
	// compact range for up to 2^expReserveBits distributed ranks, the
	// condition for shard partials to compose into the exact global
	// reduction tree.
	expReserveBits = 4
	// expScratchBits bounds one sweep worker's resident super-block at
	// 2^16 amplitudes (1 MiB, inside a per-core L2): room for a
	// canonical block widened by three high qubits.
	expScratchBits = 16
)

// ExpChunkBits returns the canonical chunk width (log2 contributions
// per chunk) of the n-qubit expectation reduction. Every engine must
// use this value for the register's total qubit count — it is part of
// the bit-identity contract, not a tuning knob.
func ExpChunkBits(n int) int {
	cb := n - 1 - expReserveBits
	if cb > expMaxChunkBits {
		cb = expMaxChunkBits
	}
	if cb < 0 {
		cb = 0
	}
	return cb
}

// TreeSum reduces partial sums through a balanced binary tree:
// TreeSum(v) = TreeSum(left half) + TreeSum(right half). On the
// power-of-two lengths the expectation reduction produces, an aligned
// power-of-two sub-range is an exact subtree, which is what lets a
// rank shard reduce locally and still compose bit-identically.
func TreeSum(v []float64) float64 {
	switch len(v) {
	case 0:
		return 0
	case 1:
		return v[0]
	}
	h := len(v) / 2
	return TreeSum(v[:h]) + TreeSum(v[h:])
}

// IPow returns i^k — the evaluator's phase convention for Y factors
// (phase(b) = i^{|Y|}·(−1)^{popcount(b & (Y|Z))}). Exported so the
// distributed engine derives its rank-constant Phase0 from the same
// definition instead of a copy that could drift.
func IPow(k int) complex128 { return iPow(k) }

// iPow returns i^k.
func iPow(k int) complex128 {
	switch k & 3 {
	case 0:
		return 1
	case 1:
		return complex(0, 1)
	case 2:
		return -1
	default:
		return complex(0, -1)
	}
}

// PauliTerm is one Pauli string as logical-qubit bit masks. The three
// masks must be disjoint and within the register; all-zero masks
// denote the identity.
type PauliTerm struct{ X, Y, Z uint64 }

// PauliEvaluator evaluates Pauli strings against one state whose
// amplitude layout may be permuted. It is read-only over the state and
// safe for concurrent calls, but it is a snapshot — it must be rebuilt
// if the state's amplitudes or permutation change.
type PauliEvaluator struct {
	s *State
	// inv is the physical→logical qubit map of a permuted layout; nil
	// means blocks are read in place.
	inv []int
	// scratchBits is expScratchBits; a field so the package's tests can
	// shrink the resident set and reach the two-sided sweep on small
	// registers.
	scratchBits int
}

// PauliEvaluator snapshots the state's current layout.
func (s *State) PauliEvaluator() *PauliEvaluator {
	s.live()
	e := &PauliEvaluator{s: s, scratchBits: expScratchBits}
	if !s.PermIsIdentity() {
		e.inv = make([]int, s.n)
		for q, p := range s.perm {
			e.inv[p] = q
		}
	}
	return e
}

// PauliShardArgs describes one shard's slice of the canonical
// evaluation. A single-device state is the degenerate one-rank shard
// (zero ParityBase, Phase0 = i^{|Y|}, pivot always local); the
// distributed engine folds its rank-index bits into Phase0/ParityBase
// and ships partner amplitudes for terms whose flip mask crosses the
// rank boundary.
type PauliShardArgs struct {
	// XMask/YMask/ZMask are the term's factors on shard-local logical
	// qubits (bits ≥ the shard width must be stripped by the caller).
	XMask, YMask, ZMask uint64
	// Flip selects the pair-product evaluation: it reflects the term's
	// FULL flip mask (X|Y over every qubit, rank bits included), which
	// can be nonzero even when the local masks carry no X/Y factor —
	// the pairs then live entirely across the rank boundary and arrive
	// via Partner. False selects the pure-Z parity walk.
	Flip bool
	// Phase0 is the rank-constant phase of flip terms: i^{|Y|} counted
	// over the whole term, times (−1) for each set rank bit under the
	// term's Y|Z mask.
	Phase0 complex128
	// Pivot is the pairing/parity pivot's shard-local position, or −1
	// when the pivot is a rank bit (the shard then enumerates all
	// resident amplitudes; the caller decides participation).
	Pivot int
	// ParityBase seeds the Z-parity with the rank bits' contribution
	// (pure-Z terms with a local pivot only).
	ParityBase int
	// Partner is the partner shard's raw physical-layout amplitudes
	// for terms whose flip mask has rank bits; nil means both pair
	// members are resident.
	Partner []complex128
	// ChunkBits is ExpChunkBits of the register's TOTAL qubit count
	// (clamped internally when a shard is smaller than one chunk).
	ChunkBits int
}

// Shard computes the tree-reduced partial of this state's
// contribution stream in canonical chunk order, returning the partial
// and the number of enumerated indices (the visit count the
// stride-iteration regression tests pin). For pure-Z terms the caller
// converts the odd-parity mass S into 1 − 2·S after the final
// reduction.
func (e *PauliEvaluator) Shard(a PauliShardArgs) (float64, int) {
	m := e.s.n // log2 of the enumeration size
	if a.Pivot >= 0 {
		m--
	}
	cb := a.ChunkBits
	if cb > m {
		cb = m
	}
	if cb < 0 {
		cb = 0
	}
	job := pauliJob{
		flip:     a.Flip,
		flipMask: a.XMask | a.YMask, // local flip; rank-bit pairs arrive via Partner
		sign:     a.ZMask,
		pivot:    a.Pivot,
		partials: make([]float64, 1<<uint(m-cb)),
	}
	if a.Flip {
		job.sign |= a.YMask
		job.ph0 = a.Phase0
	} else {
		job.pb = a.ParityBase & 1
	}
	// Without a poll the sweep cannot fail.
	_, _ = e.sweep([]pauliJob{job}, a.Partner, cb, nil)
	return TreeSum(job.partials), 1 << uint(m)
}

// ExpPauliGroup computes ⟨ψ|P|ψ⟩ for every term in as few sweeps over
// the state as the terms' flip masks allow, returning the values
// (without any coefficient, 1 for the identity) in term order and the
// number of sweeps made. Each value is bit-identical to evaluating the
// term alone. poll, when non-nil, is called by every sweep worker
// before each super-block; its first error stops the sweep within that
// block batch and is returned.
func (e *PauliEvaluator) ExpPauliGroup(terms []PauliTerm, poll func() error) ([]float64, int, error) {
	n := e.s.n
	cb := ExpChunkBits(n)
	jobs := make([]pauliJob, 0, len(terms))
	for _, t := range terms {
		all := t.X | t.Y | t.Z
		if n < 64 && all>>uint(n) != 0 {
			return nil, 0, fmt.Errorf("statevec: pauli masks %x/%x/%x exceed %d qubits", t.X, t.Y, t.Z, n)
		}
		if t.X&t.Y|t.Y&t.Z|t.X&t.Z != 0 {
			return nil, 0, fmt.Errorf("statevec: overlapping pauli masks %x/%x/%x", t.X, t.Y, t.Z)
		}
		if all == 0 {
			continue
		}
		if flip := t.X | t.Y; flip != 0 {
			jobs = append(jobs, pauliJob{
				flip:     true,
				flipMask: flip,
				sign:     t.Y | t.Z,
				ph0:      iPow(bits.OnesCount64(t.Y)),
				pivot:    bits.TrailingZeros64(flip),
			})
		} else {
			jobs = append(jobs, pauliJob{sign: t.Z, pivot: bits.TrailingZeros64(t.Z)})
		}
	}
	if len(jobs) > 0 {
		// A non-identity term needs n ≥ 1, so the pivot halves the
		// enumeration and cb ≤ n−1.
		nChunks := 1 << uint(n-1-cb)
		slab := make([]float64, len(jobs)*nChunks)
		for i := range jobs {
			jobs[i].partials = slab[i*nChunks : (i+1)*nChunks : (i+1)*nChunks]
		}
	}
	passes, err := e.sweep(jobs, nil, cb, poll)
	if err != nil {
		return nil, passes, err
	}
	vals := make([]float64, len(terms))
	next := 0
	for i, t := range terms {
		if t.X|t.Y|t.Z == 0 {
			vals[i] = 1
			continue
		}
		j := &jobs[next]
		next++
		vals[i] = TreeSum(j.partials)
		if !j.flip {
			vals[i] = 1 - 2*vals[i]
		}
	}
	return vals, passes, nil
}

// ExpPauli computes ⟨ψ|P|ψ⟩ for the Pauli string given as logical
// qubit masks — the one-term group — returning the value (without any
// coefficient) and the enumerated index count. All-zero masks denote
// the identity (value 1, zero visits).
func (e *PauliEvaluator) ExpPauli(xm, ym, zm uint64) (float64, int, error) {
	vals, _, err := e.ExpPauliGroup([]PauliTerm{{X: xm, Y: ym, Z: zm}}, nil)
	if err != nil {
		return 0, 0, err
	}
	if xm|ym|zm == 0 {
		return vals[0], 0, nil
	}
	return vals[0], 1 << uint(e.s.n-1), nil
}

// ExpPauli is the one-shot form of PauliEvaluator().ExpPauli for a
// single term; Hamiltonian sweeps should hand every term to one
// ExpPauliGroup call.
func (s *State) ExpPauli(xm, ym, zm uint64) (float64, int, error) {
	return s.PauliEvaluator().ExpPauli(xm, ym, zm)
}

// pauliJob is one term (or one rank shard of a term) prepared for the
// block sweep. A flip job sums pair products 2·Re(ph·a_b·conj(a'_{b⊕flip}));
// a parity job sums |a_b|² over the odd-parity half.
type pauliJob struct {
	flip     bool
	flipMask uint64     // X|Y on this state's qubits
	sign     uint64     // Y|Z (flip job) or Z (parity job)
	ph0      complex128 // phase of an even-parity index (flip job)
	pivot    int        // −1: every resident amplitude is enumerated
	pb       int        // parity seed (parity job)
	partials []float64  // one slot per canonical chunk

	// Set by sweep from the block width bb.
	lowFlip  uint64 // flip bits inside a block
	highFlip uint64 // flip bits above it, as a block-index xor
}

// active reports whether block B (a logical index shifted down by bb)
// holds any of the job's chunks: every block when the pivot is inside
// the block or absent, the pivot-clear half of the blocks for a pair
// walk with a high pivot, the odd-parity half for a parity walk whose
// Z bits all sit above the block.
func (j *pauliJob) active(B uint64, bb int) bool {
	switch {
	case j.pivot < bb:
		return true
	case j.flip:
		return B>>uint(j.pivot-bb)&1 == 0
	default:
		return (j.pb+bits.OnesCount64(B<<uint(bb)&j.sign))&1 == 1
	}
}

// evalBlock accumulates the chunk partials whose contributions read
// block B: self is the block's 2^bb amplitudes in logical order, other
// the partner block's (B ⊕ highFlip, from the partner shard when there
// is one).
func (j *pauliJob) evalBlock(B uint64, bb, cb int, self, other []complex128) {
	hp := (j.pb + bits.OnesCount64(B<<uint(bb)&j.sign)) & 1
	if j.pivot >= 0 && j.pivot < bb {
		// bb = cb+1: inserting the pivot maps chunk B onto block B.
		j.partials[B] = j.chunk(self, other, 0, 1<<uint(cb), j.pivot, hp)
		return
	}
	// The block's halves (the whole block when a shard is one chunk)
	// are contiguous runs of the enumeration.
	for off := 0; off < 1<<uint(bb); off += 1 << uint(cb) {
		c := B<<uint(bb) | uint64(off)
		if j.pivot >= 0 {
			c = removeBit(c, uint(j.pivot))
		}
		j.partials[c>>uint(cb)] = j.chunk(self, other, off, 1<<uint(cb), -1, hp)
	}
}

// chunk sums one canonical chunk in ascending enumeration order: cnt
// block-local indices starting at off, or — with pivot ≥ 0 — the cnt
// indices of the block whose pivot bit is clear. hp is the parity the
// bits above the block contribute. The enumeration is walked in runs
// of consecutive indices over which the phase (or the odd-parity
// choice of the pivot bit) is constant and the partner indices are
// consecutive too: as long as the lowest bit under the term's masks.
// This loop is the only place the contribution expressions live; every
// entry point reaches it.
func (j *pauliJob) chunk(self, other []complex128, off, cnt, pivot, hp int) float64 {
	m := (j.lowFlip | j.sign) & uint64(len(self)-1)
	if pivot >= 0 {
		m |= 1 << uint(pivot)
	}
	run := cnt
	if m != 0 && int(m&-m) < cnt {
		run = int(m & -m)
	}
	var acc float64
	for i := 0; i < cnt; i += run {
		b := uint64(off + i)
		if pivot >= 0 {
			b = insertBit(uint64(i), uint(pivot), 0)
		}
		par := (hp + bits.OnesCount64(b&j.sign)) & 1
		if j.flip {
			ph := j.ph0
			if par == 1 {
				ph = -ph
			}
			pm := other[b^j.lowFlip:][:run]
			for k, am := range self[b:][:run] {
				acc += pairTerm(ph, am, pm[k])
			}
			continue
		}
		if pivot >= 0 {
			b |= uint64(1-par) << uint(pivot)
		}
		for _, am := range self[b:][:run] {
			acc += norm2(am)
		}
	}
	return acc
}

// pairTerm is one index pair's contribution, 2·Re(ph·am·conj(pm)).
func pairTerm(ph, am, pm complex128) float64 {
	t := ph * am * complex(real(pm), -imag(pm))
	return 2 * real(t)
}

func norm2(am complex128) float64 { return real(am)*real(am) + imag(am)*imag(am) }

// removeBit deletes bit pos of x, shifting the higher bits down — the
// inverse of insertBit.
func removeBit(x uint64, pos uint) uint64 {
	return x>>(pos+1)<<pos | x&(1<<pos-1)
}

// depositBits scatters the low bits of v into the set positions of
// mask, lowest first.
func depositBits(v, mask uint64) uint64 {
	var out uint64
	for ; mask != 0; mask &= mask - 1 {
		if v&1 != 0 {
			out |= mask & -mask
		}
		v >>= 1
	}
	return out
}

// extractBits gathers the bits of v at the set positions of mask into
// the low bits of the result, lowest first.
func extractBits(v, mask uint64) uint64 {
	var out uint64
	for i := uint(0); mask != 0; mask &= mask - 1 {
		if v&mask&-mask != 0 {
			out |= 1 << i
		}
		i++
	}
	return out
}

// pauliGroup is the set of jobs one sweep evaluates. Masks are over
// block-index bits (qubit q ↔ bit q−bb).
type pauliGroup struct {
	// wide selects the high qubits that vary inside a super-block.
	wide uint64
	// twoSided groups read partner blocks from a second resident set:
	// the partner shard's, or — when a term has more high flip bits
	// than fit in wide — the super-block hx away.
	twoSided bool
	hx       uint64
	jobs     []*pauliJob
}

// sweep evaluates every job's chunk partials. partner, when non-nil,
// is the partner shard every pair's second member is read from. It
// returns the number of groups swept.
func (e *PauliEvaluator) sweep(jobs []pauliJob, partner []complex128, cb int, poll func() error) (int, error) {
	n := e.s.n
	bb := cb + 1 // log2 amplitudes per block
	if bb > n {
		bb = n
	}
	// A state worth fanning out keeps at least one super-block per
	// worker.
	split := 0
	if e.s.workers > 1 && 1<<uint(n) >= MinParallelWork {
		split = bits.Len(uint(e.s.workers - 1))
	}
	// wCap[0] is how many wide qubits fit in the resident set next to
	// the block itself; a two-sided group (wCap[1]) splits the set
	// between both sides.
	var wCap [2]int
	for i := range wCap {
		wCap[i] = e.scratchBits - bb - i
		if wCap[i] > n-bb-split {
			wCap[i] = n - bb - split
		}
		if wCap[i] < 0 {
			wCap[i] = 0
		}
	}
	var groups []pauliGroup
place:
	for i := range jobs {
		j := &jobs[i]
		j.lowFlip = j.flipMask & (1<<uint(bb) - 1)
		j.highFlip = j.flipMask >> uint(bb)
		if partner == nil && bits.OnesCount64(j.highFlip) <= wCap[0] {
			// First fit: a sweep serves every term whose high flip bits
			// it can keep resident together.
			for gi := range groups {
				g := &groups[gi]
				if !g.twoSided && bits.OnesCount64(g.wide|j.highFlip) <= wCap[0] {
					g.wide |= j.highFlip
					g.jobs = append(g.jobs, j)
					continue place
				}
			}
			groups = append(groups, pauliGroup{wide: j.highFlip, jobs: []*pauliJob{j}})
			continue
		}
		for gi := range groups {
			if g := &groups[gi]; g.twoSided && g.hx == j.highFlip {
				g.jobs = append(g.jobs, j)
				continue place
			}
		}
		groups = append(groups, pauliGroup{twoSided: true, hx: j.highFlip, jobs: []*pauliJob{j}})
	}
	for gi := range groups {
		g := &groups[gi]
		// Spend the remaining width on the qubits at the lowest physical
		// positions, so a gather uses the whole of each cache line it
		// touches (and an in-place super-block is one contiguous run).
		w := wCap[0]
		if g.twoSided {
			w = wCap[1]
		}
		for p := 0; p < n && bits.OnesCount64(g.wide) < w; p++ {
			q := p
			if e.inv != nil {
				q = e.inv[p]
			}
			if q >= bb && g.hx>>uint(q-bb)&1 == 0 {
				g.wide |= 1 << uint(q-bb)
			}
		}
		if err := e.sweepGroup(g, partner, bb, cb, poll); err != nil {
			return gi + 1, err
		}
	}
	return len(groups), nil
}

// sweepGroup makes every super-block of the group resident once,
// fanned out over the state's workers, and lets each job accumulate
// the chunks it finds there. Chunk partials land in disjoint slots, so
// the result is independent of the worker count.
func (e *PauliEvaluator) sweepGroup(g *pauliGroup, partner []complex128, bb, cb int, poll func() error) error {
	s := e.s
	w := bits.OnesCount64(g.wide)
	fixed := (uint64(1)<<uint(s.n-bb) - 1) &^ g.wide
	var tabs gatherTabs
	if e.inv != nil {
		tabs = e.gatherTabs(g.wide, bb)
	}
	otherSrc := partner
	if otherSrc == nil {
		otherSrc = s.amps
	}
	var (
		failed atomic.Bool
		mu     sync.Mutex
		first  error
	)
	s.parallelTiles(1<<uint(s.n-bb-w), bb+w, func(_, lo, hi int) {
		r := expResident{e: e, g: g, bb: bb, otherSrc: otherSrc, tabs: &tabs}
		if e.inv != nil {
			buf := getExpScratch()
			defer putExpScratch(buf)
			r.self = buf[:1<<uint(bb+w)]
			r.other = r.self
			if g.twoSided {
				r.other = buf[1<<uint(bb+w) : 2<<uint(bb+w)]
			}
		}
		for u := lo; u < hi; u++ {
			if failed.Load() {
				return
			}
			if poll != nil {
				if err := poll(); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
			r.hb = depositBits(uint64(u), fixed)
			r.loaded = false
			for _, j := range g.jobs {
				for k := uint64(0); k < 1<<uint(w); k++ {
					B := r.hb | depositBits(k, g.wide)
					if !j.active(B, bb) {
						continue
					}
					self, other := r.blocks(j, B, k)
					j.evalBlock(B, bb, cb, self, other)
				}
			}
		}
	})
	return first
}

// expResident is one worker's view of the current super-block.
type expResident struct {
	e        *PauliEvaluator
	g        *pauliGroup
	bb       int
	otherSrc []complex128 // the partner shard, or the state itself
	tabs     *gatherTabs
	// self/other are the scratch sides of a permuted layout (the same
	// slice unless the group is two-sided); nil reads blocks in place.
	self, other []complex128
	hb          uint64 // the super-block's fixed high bits
	loaded      bool   // scratch holds super-block hb
}

// blocks returns block B (wide index k of the current super-block) and
// the job's partner block, gathering the super-block on first use so
// one with no active chunk costs no memory traffic.
func (r *expResident) blocks(j *pauliJob, B, k uint64) (self, other []complex128) {
	size := 1 << uint(r.bb)
	if r.self == nil {
		P := B ^ j.highFlip
		return r.e.s.amps[B<<uint(r.bb):][:size], r.otherSrc[P<<uint(r.bb):][:size]
	}
	if !r.loaded {
		r.loaded = true
		r.tabs.gather(r.self, r.e.s.amps, r.e.physBase(r.hb, r.bb))
		if r.g.twoSided {
			r.tabs.gather(r.other, r.otherSrc, r.e.physBase(r.hb^r.g.hx, r.bb))
		}
	}
	kp := k ^ extractBits(j.highFlip, r.g.wide)
	return r.self[k<<uint(r.bb):][:size], r.other[kp<<uint(r.bb):][:size]
}

// physBase is the physical offset of the block-index bits hb.
func (e *PauliEvaluator) physBase(hb uint64, bb int) uint64 {
	var base uint64
	for ; hb != 0; hb &= hb - 1 {
		base |= 1 << uint(e.s.perm[bb+bits.TrailingZeros64(hb)])
	}
	return base
}

// gatherTabs enumerates a super-block's amplitudes for the gather:
// entry i of the (hi, lo) split tables gives the physical offset and
// the scratch slot contributed by bit-chunk i, so slot(i) =
// scrHi[i>>loBits] | scrLo[i&loMask] and likewise for the address.
// Scratch slots are logical: block k of the super-block occupies
// scratch[k<<bb : (k+1)<<bb].
type gatherTabs struct {
	physLo, scrLo, physHi, scrHi []uint32
}

// expLineBits is log2 of the amplitudes in a 64-byte cache line.
const expLineBits = 2

func (e *PauliEvaluator) gatherTabs(wide uint64, bb int) gatherTabs {
	// The free qubits, each with its physical position and the scratch
	// bit it maps to, in enumeration order (fastest first): the qubits
	// inside one scratch line and those inside one state line, so every
	// line the innermost iterations touch on either side is finished
	// while it is in L1, then the rest in ascending physical position,
	// which keeps the reads a few forward streams.
	var phys, scr [MaxQubits]uint
	m := 0
	for pass := 0; pass < 3; pass++ {
		for p, q := range e.inv {
			var sb int
			switch {
			case q < bb:
				sb = q
			case wide>>uint(q-bb)&1 == 1:
				sb = bb + bits.OnesCount64(wide&(1<<uint(q-bb)-1))
			default:
				continue
			}
			rank := 2
			if sb < expLineBits {
				rank = 0
			} else if p < expLineBits {
				rank = 1
			}
			if rank == pass {
				phys[m], scr[m] = uint(p), uint(sb)
				m++
			}
		}
	}
	loBits := (m + 1) / 2
	nLo, nHi := 1<<uint(loBits), 1<<uint(m-loBits)
	slab := make([]uint32, 2*(nLo+nHi))
	t := gatherTabs{
		physLo: slab[:nLo], scrLo: slab[nLo : 2*nLo],
		physHi: slab[2*nLo : 2*nLo+nHi], scrHi: slab[2*nLo+nHi:],
	}
	spread := func(v int, pos []uint) uint32 {
		var out uint32
		for i, p := range pos {
			out |= uint32(v>>uint(i)&1) << p
		}
		return out
	}
	for v := range t.physLo {
		t.physLo[v] = spread(v, phys[:loBits])
		t.scrLo[v] = spread(v, scr[:loBits])
	}
	for v := range t.physHi {
		t.physHi[v] = spread(v, phys[loBits:m])
		t.scrHi[v] = spread(v, scr[loBits:m])
	}
	return t
}

// gather copies the super-block at physical offset base out of src
// into dst's logical slots.
func (t *gatherTabs) gather(dst, src []complex128, base uint64) {
	for h, ph := range t.physHi {
		sh := t.scrHi[h]
		row := base | uint64(ph)
		for l, pl := range t.physLo {
			dst[sh|t.scrLo[l]] = src[row|uint64(pl)]
		}
	}
}

// expScratch is the process-wide free list of gather buffers: at most
// one per sweep-pool worker is kept, so a permuted-layout sweep
// allocates nothing in steady state and an idle process holds a
// bounded amount.
var expScratch = make(chan []complex128, runtime.NumCPU())

func getExpScratch() []complex128 {
	select {
	case buf := <-expScratch:
		return buf
	default:
		return make([]complex128, 1<<expScratchBits)
	}
}

func putExpScratch(buf []complex128) {
	select {
	case expScratch <- buf:
	default:
	}
}

// AmplitudesRaw exposes the amplitude slice in its current physical
// layout WITHOUT materializing a pending qubit permutation — the
// expectation path's exchange buffers ship raw layouts and the
// evaluator gathers through the permutation instead. Interpret indices
// via Permutation(); use Amplitudes() for the canonical logical order.
func (s *State) AmplitudesRaw() []complex128 {
	s.live()
	return s.amps
}
