package statevec

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Canonical Pauli-string expectation evaluation.
//
// ⟨ψ|P|ψ⟩ for a Pauli string P is computed directly against the
// resident amplitude array — no clone and no basis-rotation sweeps. P
// acts on a basis state as P|b⟩ = phase(b)·|b ⊕ flip⟩ with flip = X|Y
// mask and phase(b) = i^{|Y|}·(−1)^{popcount(b & (Y|Z))}, so
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
// 2^expChunkBits(n) contributions; each chunk is summed sequentially
// in ascending j into its slot of one partial slab, and a term's slots
// reduce through a balanced binary tree (treeSum). A rank shard of the
// distributed engine runs the same sweep on absolute indices
// (ShardEvaluator) and writes the chunks it holds into the same slots
// of one shared slab — expReserveBits keeps every chunk inside one
// shard for up to 2^expReserveBits ranks — so single-device, tiled
// and distributed evaluation produce bit-identical values for any
// worker count.
//
// The layout is canonical. Building an evaluator materializes a
// pending qubit permutation (the bit-reversal a QFT plan leaves, a
// tiled plan's relabelings) once, in one cache-blocked relayout pass
// (two for a layout with a cycle of three or more positions; see
// MaterializePerm): cheaper than gathering the state through the
// permutation once per
// group of terms, and the values cannot tell, because the reduction
// order is defined on logical indices. Every block is then a slice of
// the amplitude array, and a rank shard's partner buffer is in the
// canonical order too.
//
// Memory order is not. A chunk's 2^cb contributions read one block of
// 2^(cb+1) consecutive amplitudes (pivot inside the block) or one half
// of such a block (pivot above it), plus the block reached by the
// term's flip bits at or above the block width. The evaluator
// therefore sweeps the state once per *group* of terms, not once per
// term: a worker makes a super-block resident — the 2^w blocks that
// differ only in w "wide" high qubits, chosen to cover the group's
// high flip bits and then the lowest remaining qubits, so a
// super-block is as few contiguous runs as it can be — and every term
// of the group accumulates its own chunk partials from it while it is
// in L2.
//
// Lanes are blocks. A job's chunks in the blocks of one super-block
// walk the same windows — same in-block flip bits, sign bits and pivot
// — and differ only in the parity the bits above the block contribute
// (the phase's sign, or which odd-parity half is read) and in the
// partner block. So the lane primitive pauliChunks (lanes.go: AVX on
// amd64 where the CPU has it, else its Go loop) sums pauliL of them at
// once, one chunk per lane, each lane in its own ascending-j order: every partial keeps its bits, whichever
// lanes it shared a call with, and a high pivot (two chunks per block),
// a two-sided or partner-shard group and a state too narrow for pauliL
// active blocks take the same call with fewer lanes or twice.
//
// A pair term 2·Re(ph·a·conj(p)) with ph = ±1 or ±i is summed in its
// real-phase form, ±2·(ar·pr + ai·pi) for ±1 and ±2·(ar·pi − ai·pr) for
// ±i: Go's complex product rounds exactly these two products and their
// sum — its other products are by the phase's exact 0 and ±1 parts, so
// they are exact ±0 or ±a — and doubling and negation are exact. The
// forms differ only in the sign of an exactly-zero term, and a partial
// cannot observe it: it starts at +0, +0 + ±0 = +0, and x + ±0 = x for
// any nonzero x. A NaN amplitude gives a NaN either way; an infinite
// one, where the complex product's 0·∞ makes a NaN, may give ±∞ here —
// a state holding either is already lost.

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
	// expResidentBits bounds one sweep worker's resident super-block
	// at 2^16 amplitudes (1 MiB, inside a per-core L2): room for a
	// canonical block widened by three high qubits.
	expResidentBits = 16
)

// expChunkBits returns the canonical chunk width (log2 contributions
// per chunk) of the n-qubit expectation reduction, n being the whole
// register's width on a rank shard too — it is part of the
// bit-identity contract, not a tuning knob.
func expChunkBits(n int) int {
	cb := n - 1 - expReserveBits
	if cb > expMaxChunkBits {
		cb = expMaxChunkBits
	}
	if cb < 0 {
		cb = 0
	}
	return cb
}

// treeSum reduces partial sums through a balanced binary tree:
// treeSum(v) = treeSum(left half) + treeSum(right half), one fixed
// order whichever worker or rank filled which slot.
func treeSum(v []float64) float64 {
	switch len(v) {
	case 0:
		return 0
	case 1:
		return v[0]
	}
	h := len(v) / 2
	return treeSum(v[:h]) + treeSum(v[h:])
}

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

// PauliEvaluator evaluates Pauli strings against one state — the whole
// register, or one rank shard of it — in the canonical layout its
// constructor leaves. Its methods are read-only over the state and safe
// for concurrent calls, but it is a snapshot: it must be rebuilt if the
// state's amplitudes or permutation change.
type PauliEvaluator struct {
	s *State
	// total is the register's width and base the absolute index of the
	// state's first amplitude: s.n and 0 on one device, the world's
	// width and rank << s.n on a rank shard. Terms, blocks and chunk
	// slots are addressed in the whole register.
	total int
	base  uint64
	// residentBits is expResidentBits; a field so the package's tests
	// can shrink the resident set and reach the two-sided sweep on
	// small registers.
	residentBits int
}

// PauliEvaluator materializes the state's pending permutation, if any,
// and evaluates against the canonical layout.
func (s *State) PauliEvaluator() *PauliEvaluator { return s.ShardEvaluator(s.n, 0) }

// ShardEvaluator materializes the state's pending permutation, if any,
// and evaluates against a state holding amplitudes base … base+2^n−1
// of a total-qubit register (rank r's shard: base = r << n). Because
// every index it computes is absolute, Z/Y signs, parity and pivots on
// the bits above the shard come out of the same code one device runs.
// Building it is the one step that writes the state: it must not race
// with another use of it.
func (s *State) ShardEvaluator(total int, base uint64) *PauliEvaluator {
	s.live()
	s.MaterializePerm()
	return &PauliEvaluator{s: s, total: total, base: base, residentBits: expResidentBits}
}

// chunkBits is the canonical chunk width, clamped so that one block (a
// chunk with its pivot, or two chunks) lies inside the state. The
// clamp binds only on a shard of a world wider than
// 2^expReserveBits ranks, whose reduction tree is then finer than one
// device's.
func (e *PauliEvaluator) chunkBits() int {
	cb := expChunkBits(e.total)
	if cb > e.s.n-1 {
		cb = e.s.n - 1
	}
	if cb < 0 {
		cb = 0
	}
	return cb
}

// PartialSlab checks terms against the register and returns the zeroed
// slab the sweeps fill: one canonical slot per chunk of each
// non-identity term, in term order.
func (e *PauliEvaluator) PartialSlab(terms []PauliTerm) ([]float64, error) {
	jobs := 0
	for _, t := range terms {
		all := t.X | t.Y | t.Z
		if e.total < 64 && all>>uint(e.total) != 0 {
			return nil, fmt.Errorf("statevec: pauli masks %x/%x/%x exceed %d qubits", t.X, t.Y, t.Z, e.total)
		}
		if t.X&t.Y|t.Y&t.Z|t.X&t.Z != 0 {
			return nil, fmt.Errorf("statevec: overlapping pauli masks %x/%x/%x", t.X, t.Y, t.Z)
		}
		if all != 0 {
			jobs++
		}
	}
	if jobs == 0 {
		return nil, nil
	}
	// A non-identity term needs a qubit, so the pivot halves the
	// enumeration and cb ≤ total−1.
	return make([]float64, jobs<<uint(e.total-1-e.chunkBits())), nil
}

// SweepShard writes into slab (from PartialSlab) the chunk partials
// this state holds of every term whose rank flip — the flip mask's
// bits above the state, shifted down — is rankFlip, and returns the
// number of sweeps made. Rank flip 0 selects the pure-Z terms and those
// flipping resident qubits only; any other value the terms pairing
// this shard with rank ^ rankFlip, whose amplitudes partner is — in
// canonical order, as every rank's evaluator leaves its shard before
// the first exchange. poll is as in ExpPauliGroup.
func (e *PauliEvaluator) SweepShard(terms []PauliTerm, slab []float64, rankFlip uint64, partner []complex128, poll func() error) (int, error) {
	cb := e.chunkBits()
	nChunks := 1 << uint(e.total-1-cb)
	jobs := make([]pauliJob, 0, len(terms))
	slot := 0
	for _, t := range terms {
		if t.X|t.Y|t.Z == 0 {
			continue
		}
		partials := slab[slot*nChunks : (slot+1)*nChunks : (slot+1)*nChunks]
		slot++
		flip := t.X | t.Y
		switch {
		case flip>>uint(e.s.n) != rankFlip: // another sweep's term
		case flip != 0:
			jobs = append(jobs, pauliJob{
				flip:     true,
				flipMask: flip,
				sign:     t.Y | t.Z,
				ph0:      iPow(bits.OnesCount64(t.Y)),
				pivot:    bits.TrailingZeros64(flip),
				partials: partials,
			})
		default:
			jobs = append(jobs, pauliJob{sign: t.Z, pivot: bits.TrailingZeros64(t.Z), partials: partials})
		}
	}
	return e.sweep(jobs, partner, cb, poll)
}

// PauliValues reduces a filled slab to ⟨P⟩ per term, in term order:
// each term's chunk partials through treeSum, 1 − 2·S for a parity
// term, 1 for the identity. It is the last step of every engine's
// evaluation, so one device and a world of ranks share it.
func PauliValues(terms []PauliTerm, slab []float64) []float64 {
	jobs := 0
	for _, t := range terms {
		if t.X|t.Y|t.Z != 0 {
			jobs++
		}
	}
	vals := make([]float64, len(terms))
	slot := 0
	for i, t := range terms {
		if t.X|t.Y|t.Z == 0 {
			vals[i] = 1
			continue
		}
		nChunks := len(slab) / jobs
		vals[i] = treeSum(slab[slot*nChunks : (slot+1)*nChunks])
		slot++
		if t.X|t.Y == 0 {
			vals[i] = 1 - 2*vals[i]
		}
	}
	return vals
}

// ExpPauliGroup computes ⟨ψ|P|ψ⟩ for every term in as few sweeps over
// the state as the terms' flip masks allow, returning the values
// (without any coefficient, 1 for the identity) in term order and the
// number of sweeps made. Each value is bit-identical to evaluating the
// term alone. poll, when non-nil, is called by every sweep worker
// before each super-block; its first error stops the sweep within that
// block batch and is returned.
func (e *PauliEvaluator) ExpPauliGroup(terms []PauliTerm, poll func() error) ([]float64, int, error) {
	slab, err := e.PartialSlab(terms)
	if err != nil {
		return nil, 0, err
	}
	passes, err := e.SweepShard(terms, slab, 0, nil, poll)
	if err != nil {
		return nil, passes, err
	}
	return PauliValues(terms, slab), passes, nil
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

// pauliJob is one term prepared for the block sweep, its masks over
// the whole register. A flip job sums pair products
// 2·Re(ph·a_b·conj(a'_{b⊕flip})); a parity job sums |a_b|² over the
// odd-parity half.
type pauliJob struct {
	flip     bool
	flipMask uint64     // X|Y
	sign     uint64     // Y|Z (flip job) or Z (parity job)
	ph0      complex128 // phase of an even-parity index (flip job)
	pivot    int        // the lowest flip (or Z) qubit
	partials []float64  // one slot per canonical chunk

	highFlip uint64 // flip bits above a block, as a block-index xor; set by sweep
}

// walk is the job's chunk walk for blocks of 2^bb amplitudes. The
// enumeration is walked in windows of consecutive indices over which
// the phase (or the odd-parity choice of the pivot bit) is constant and
// the partner indices are consecutive too: as long as the lowest bit
// under the term's masks inside the block.
func (j *pauliJob) walk(bb, cb int) pauliWalk {
	w := pauliWalk{
		cnt:  1 << uint(cb),
		low:  -1,
		sign: int(j.sign & (1<<uint(bb) - 1)),
		flip: int(j.flipMask & (1<<uint(bb) - 1)),
	}
	m := uint64(w.flip | w.sign)
	if j.pivot < bb {
		w.low = 1<<uint(j.pivot) - 1
		m |= 1 << uint(j.pivot)
		if !j.flip {
			w.half = 1 << uint(j.pivot)
		}
	}
	w.run = w.cnt
	if m != 0 && int(m&-m) < w.cnt {
		w.run = int(m & -m)
	}
	switch {
	case !j.flip:
		w.kind = pauliNorm
	case real(j.ph0) != 0:
		w.kind = pauliReal
		if real(j.ph0) < 0 {
			w.neg = 1
		}
	default:
		w.kind = pauliImag
		if imag(j.ph0) < 0 {
			w.neg = 1
		}
	}
	return w
}

// active reports whether block B (an absolute logical index shifted
// down by bb) holds any of the job's chunks: every block when the pivot
// is inside the block, the pivot-clear half of the blocks for a pair
// walk with a high pivot, the odd-parity half for a parity walk whose
// Z bits all sit above the block.
func (j *pauliJob) active(B uint64, bb int) bool {
	switch {
	case j.pivot < bb:
		return true
	case j.flip:
		return B>>uint(j.pivot-bb)&1 == 0
	default:
		return bits.OnesCount64(B<<uint(bb)&j.sign)&1 == 1
	}
}

// evalLanes sums the chunks of the nl blocks in l, one block per lane
// (blk holds their block indices), into their partial slots; w is the
// job's walk. With the pivot inside the block, inserting it maps chunk
// B onto block B (bb = cb+1); above it, the block's halves are two
// contiguous chunks of the enumeration, one pauliChunks call each.
func (j *pauliJob) evalLanes(l *pauliLanes, blk *[pauliL]uint64, w pauliWalk, nl, bb, cb int) {
	if j.pivot < bb {
		pauliChunks(l, nl, &w)
		for i, B := range blk[:nl] {
			j.partials[B] = l.acc[i]
		}
		return
	}
	for w.off = 0; w.off < 1<<uint(bb); w.off += 1 << uint(cb) {
		pauliChunks(l, nl, &w)
		for i, B := range blk[:nl] {
			c := removeBit(B<<uint(bb)|uint64(w.off), uint(j.pivot))
			j.partials[c>>uint(cb)] = l.acc[i]
		}
	}
}

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

// pauliGroup is the set of jobs one sweep evaluates. Masks are over
// block-index bits (qubit q ↔ bit q−bb).
type pauliGroup struct {
	// wide selects the high qubits that vary inside a super-block.
	wide uint64
	// A nonzero hx makes the group two-sided: partner blocks come from
	// a second resident set, the super-block hx away — in the partner
	// shard when hx has bits above the state.
	hx   uint64
	jobs []*pauliJob
}

// sweep evaluates every job's chunk partials. partner, when non-nil,
// is the partner shard every pair's second member is read from. It
// returns the number of groups swept.
func (e *PauliEvaluator) sweep(jobs []pauliJob, partner []complex128, cb int, poll func() error) (int, error) {
	n := e.s.n
	bb := cb + 1 // log2 amplitudes per block; chunkBits keeps bb ≤ n
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
		wCap[i] = e.residentBits - bb - i
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
		j.highFlip = j.flipMask >> uint(bb)
		// First fit: a sweep serves every term whose high flip bits on
		// this state it can keep resident together. A term's flip bits
		// above the state (hx) pair it with the same super-block of the
		// partner shard; a term with more high flip bits than fit pairs
		// whole super-blocks hx apart.
		hx := j.highFlip >> uint(n-bb) << uint(n-bb)
		side := 0
		if hx != 0 {
			side = 1
		}
		if bits.OnesCount64(j.highFlip^hx) > wCap[side] {
			side, hx = 1, j.highFlip
		}
		wide := j.highFlip ^ hx
		for gi := range groups {
			g := &groups[gi]
			if g.hx == hx && bits.OnesCount64(g.wide|wide) <= wCap[side] {
				g.wide |= wide
				g.jobs = append(g.jobs, j)
				continue place
			}
		}
		groups = append(groups, pauliGroup{wide: wide, hx: hx, jobs: []*pauliJob{j}})
	}
	for gi := range groups {
		g := &groups[gi]
		// Spend the remaining width on the lowest qubits above the
		// block, so a super-block is as few contiguous runs as it can be.
		w := wCap[0]
		if g.hx != 0 {
			w = wCap[1]
		}
		for q := bb; q < n && bits.OnesCount64(g.wide) < w; q++ {
			if g.hx>>uint(q-bb)&1 == 0 {
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
	otherSrc := partner
	if otherSrc == nil {
		otherSrc = s.amps
	}
	bBase := e.base >> uint(bb)
	lm := uint64(len(s.amps) - 1) // bits above the state pick the shard
	size := 1 << uint(bb)
	var (
		failed atomic.Bool
		mu     sync.Mutex
		first  error
	)
	s.parallelTiles(1<<uint(s.n-bb-w), bb+w, func(lo, hi int) {
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
			hb := depositBits(uint64(u), fixed)
			for _, j := range g.jobs {
				// The job's active blocks, pauliL at a time, are the
				// lanes of one pauliChunks call.
				var (
					l   pauliLanes
					blk [pauliL]uint64
				)
				walk, nl := j.walk(bb, cb), 0
				for k := uint64(0); k < 1<<uint(w); k++ {
					B := bBase | hb | depositBits(k, g.wide)
					if !j.active(B, bb) {
						continue
					}
					P := B ^ j.highFlip
					l.self[nl] = lanes(s.amps[B<<uint(bb)&lm:][:size])
					l.other[nl] = lanes(otherSrc[P<<uint(bb)&lm:][:size])
					l.hp[nl] = bits.OnesCount64(B<<uint(bb)&j.sign) & 1
					blk[nl] = B
					if nl++; nl == pauliL {
						j.evalLanes(&l, &blk, walk, nl, bb, cb)
						nl = 0
					}
				}
				if nl > 0 {
					j.evalLanes(&l, &blk, walk, nl, bb, cb)
				}
			}
		}
	})
	return first
}

// AmplitudesRaw exposes the amplitude slice in its current physical
// layout WITHOUT materializing a pending qubit permutation — for the
// distributed engine's exchange steps, which move data in whatever
// layout the shard holds (the canonical one once an evaluator has been
// built on it). Interpret indices via Permutation(); use Amplitudes()
// for the canonical logical order. Like Amplitudes, it forgets the
// support; a caller that knows what it wrote hands a record back with
// SetSupport.
func (s *State) AmplitudesRaw() []complex128 {
	s.live()
	s.sup = Support{}
	return s.amps
}
