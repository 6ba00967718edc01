package statevec

import (
	"math/bits"
	"runtime"
	"sync/atomic"
)

// The one-pass relayout behind MaterializePerm. A set of disjoint
// bit-position pairs T exchanges every amplitude j with T(j), the index
// with each pair's two bits exchanged: the same data movement as one
// bit-swap sweep per pair, in one pass over the state.
//
// The pass is cache-blocked, after the classic bit-reversal permutation
// (Carter & Gatlin, FOCS 1998) and the global-to-local swaps of
// multi-GPU simulators. K is the low relayoutLowBits bits and their
// partners under T; a block is the 2^|K| amplitudes with the bits
// outside K (the frame) fixed, whole runs of 2^relayoutLowBits
// contiguous amplitudes. T maps block F onto block T(F), so each
// amplitude of the two is exchanged with its partner while both blocks
// are in L1. A pair of blocks that T maps onto themselves (F = T(F)),
// whose in-block map is the identity, moves nothing and is skipped, as
// is every amplitude T fixes inside a block.

// relayoutLowBits is b, log2 of a block's contiguous runs: 16
// amplitudes, 256 bytes. b = 3 was erratic in a probe; b = 4 keeps a
// block pair of 2·2^8 amplitudes in L1.
const relayoutLowBits = 4

// relayoutClaimAmps is how many amplitudes of frames a worker claims at
// a time: enough to amortize the claim, small enough that workers whose
// frames turn out cheap (the partner frame's, or known zero) take more.
const relayoutClaimAmps = 1 << 13

// involution is a set of disjoint pairs of bit positions: to[q] is q's
// partner, q itself when no pair holds q.
type involution [MaxQubits]uint8

// identityInvolution holds no pair.
func identityInvolution() (t involution) {
	for q := range t {
		t[q] = uint8(q)
	}
	return t
}

// relayoutPass is one pass's plan.
type relayoutPass struct {
	to       involution // the moved pairs only
	kmask    uint64     // K: the bits a block spans
	omask    uint64     // the frame bits, outside K
	plow     uint64     // the frame bits paired with a higher frame bit
	zm, zv   uint64     // the support before the pass, on frame bits
	blockMap bool       // T moves bits inside K: blocks are gathered, not copied
}

// relayoutJob is a fanned-out pass: its plan, the amplitudes, and the
// shared counter its workers claim frames from. A job and the one
// closure ParallelFor runs it by are made together and recycled
// through freeRelayoutJobs, so a warmed fan-out allocates neither.
type relayoutJob struct {
	pass          relayoutPass
	amps          []complex128
	frames, claim int
	next          atomic.Int64
	chunk         func(lo, hi int) // work on this job
}

// freeRelayoutJobs holds idle jobs: a channel for forCall's reasons,
// with room for one per CPU, the most materializations that can make
// progress at once; a job returned to a full list is left to the
// collector.
var freeRelayoutJobs = make(chan *relayoutJob, runtime.NumCPU())

// relayout runs one pass per involution, in order: each exchanges every
// amplitude j with t(j) and the support's records of each pair. A pair
// whose two bits are known and equal moves nothing but zeros and is
// dropped; a block pair the support proves zero on both sides is
// skipped. Serially a pass allocates nothing (its offset tables are on
// the stack). Fanned out, its workers claim frames off a shared counter,
// so each gets an equal share of the work however the block pairs fall
// in the frame range, and the passes share one recycled job.
func (s *State) relayout(ts ...involution) {
	amps := s.amps
	var job *relayoutJob // nil until a pass fans out
	for i := range ts {
		pass, ok := s.planRelayout(&ts[i])
		if !ok {
			continue
		}
		frames := len(amps) >> bits.OnesCount64(pass.kmask)
		if s.serial(len(amps) >> 2) { // a lone pair's sweep: swapBits' threshold
			var tab relayoutTables
			pass.tables(&tab)
			pass.frames(amps, &tab, 0, frames)
			continue
		}
		if job == nil {
			select {
			case job = <-freeRelayoutJobs:
			default:
				j := new(relayoutJob)
				j.chunk = func(_, _ int) { j.work() }
				job = j
			}
			job.amps = amps
		}
		job.pass, job.frames = pass, frames
		job.claim = max(1, relayoutClaimAmps>>bits.OnesCount64(pass.kmask))
		job.next.Store(0)
		ParallelFor(s.workers, s.workers, job.chunk)
	}
	if job != nil {
		job.amps = nil // the state's slab goes back to the free list without it
		select {
		case freeRelayoutJobs <- job:
		default:
		}
	}
}

// work is one worker of a fanned-out pass: it claims frames until none
// is left.
func (j *relayoutJob) work() {
	var tab relayoutTables
	j.pass.tables(&tab)
	for {
		lo := int(j.next.Add(int64(j.claim))) - j.claim
		if lo >= j.frames {
			return
		}
		j.pass.frames(j.amps, &tab, lo, min(lo+j.claim, j.frames))
	}
}

// planRelayout plans the pass of t, less the pairs that move only
// zeros, and steps the support past it; ok is false when nothing moves.
func (s *State) planRelayout(t *involution) (pass relayoutPass, ok bool) {
	pass.to = identityInvolution()
	old := s.sup
	var moved uint64
	for q := 0; q < s.n; q++ {
		p := uint(t[q])
		ab := uint64(1)<<uint(q) | uint64(1)<<p
		if p <= uint(q) || old.Zero || old.Mask&ab == ab && (old.Val>>uint(q)^old.Val>>p)&1 == 0 {
			continue
		}
		pass.to[q], pass.to[p] = uint8(p), uint8(q)
		moved |= ab
		s.sup.swap(uint(q), p)
	}
	if moved == 0 {
		return pass, false
	}
	lb := uint(min(s.n, max(relayoutLowBits, bits.TrailingZeros64(moved))))
	low := uint64(1)<<lb - 1
	pass.blockMap = moved&low != 0
	pass.kmask = low
	for m := moved & low; m != 0; m &= m - 1 {
		pass.kmask |= 1 << pass.to[bits.TrailingZeros64(m)]
	}
	// A gathered block takes in the positions above the low bits that
	// T fixes, while its table has room: longer runs, fewer frames.
	for q := uint64(1) << lb; pass.blockMap && int(lb) < s.n && moved&q == 0 &&
		bits.OnesCount64(pass.kmask) < 2*relayoutLowBits; q, lb = q<<1, lb+1 {
		pass.kmask |= q
	}
	pass.omask = uint64(len(s.amps)-1) &^ pass.kmask
	pass.zm, pass.zv = old.Mask&pass.omask, old.Val&pass.omask
	for m := moved & pass.omask; m != 0; m &= m - 1 {
		if q := bits.TrailingZeros64(m); int(pass.to[q]) > q {
			pass.plow |= 1 << uint(q)
		}
	}
	return pass, true
}

// relayoutTables are a block's in-block offsets: pair i exchanges
// offset src[i] of block F with dst[i] of block T(F) (every offset of
// K), and self i exchanges offsets ssrc[i] < sdst[i] of a block T maps
// onto itself (only those T moves). When every self exchange spans the
// same distance (T moves one pair inside K), sdist holds it and the
// exchanges read only ssrc.
type relayoutTables struct {
	pairs, selfs int
	sdist        uint32 // 0: the distances differ
	src, dst     [1 << (2 * relayoutLowBits)]uint32
	ssrc, sdst   [1 << (2*relayoutLowBits - 1)]uint32
}

// tables fills tab when T moves bits inside a block (without, a block
// pair is two runs exchanged whole and needs no table). Offsets are
// listed with the bits inside one 64-byte line of either block
// innermost, so the lines an exchange touches on both sides are
// finished while they are in L1.
func (p *relayoutPass) tables(tab *relayoutTables) {
	if !p.blockMap {
		return
	}
	var order [2 * relayoutLowBits]uint // K's positions, innermost first
	k := 0
	inner := uint64(1)<<ampLineBits - 1
	for m := inner; m != 0; m &= m - 1 {
		inner |= 1 << p.to[bits.TrailingZeros64(m)]
	}
	for _, m := range [2]uint64{p.kmask & inner, p.kmask &^ inner} {
		for ; m != 0; m &= m - 1 {
			order[k] = uint(bits.TrailingZeros64(m))
			k++
		}
	}
	for i := 0; i < 1<<uint(k); i++ {
		var off, to uint32
		for j, q := range order[:k] {
			bit := uint32(i>>uint(j)) & 1
			off |= bit << q
			to |= bit << p.to[q]
		}
		tab.src[tab.pairs], tab.dst[tab.pairs] = off, to
		tab.pairs++
		if off < to {
			tab.ssrc[tab.selfs], tab.sdst[tab.selfs] = off, to
			tab.selfs++
		}
	}
	tab.sdist = tab.sdst[0] - tab.ssrc[0]
	for i := 1; i < tab.selfs; i++ {
		if tab.sdst[i]-tab.ssrc[i] != tab.sdist {
			tab.sdist = 0
		}
	}
}

// frames runs frames [lo, hi) of the pass, in ascending order of their
// bits. Frame F does the exchange with T(F) when F ≤ T(F); the larger
// frame of a pair has nothing left to do.
func (p *relayoutPass) frames(amps []complex128, tab *relayoutTables, lo, hi int) {
	omask, plow, zm, zv, blockMap := p.omask, p.plow, p.zm, p.zv, p.blockMap
	src, dst := tab.src[:tab.pairs], tab.dst[:tab.pairs]
	ssrc, sdst, sdist := tab.ssrc[:tab.selfs], tab.sdst[:tab.selfs], tab.sdist
	run := uint64(1) << uint(bits.TrailingZeros64(^p.kmask))
	var f uint64 // frame lo: its index's bits deposited on the frame positions
	m := omask
	for i := uint64(lo); i != 0 && m != 0; i >>= 1 {
		if i&1 == 1 {
			f |= m & -m
		}
		m &= m - 1
	}
	for w := lo; w < hi; w, f = w+1, (f-omask)&omask {
		g := f // T(F)
		for m := plow; m != 0; m &= m - 1 {
			q := uint(bits.TrailingZeros64(m))
			if r := uint(p.to[q]); (f>>q^f>>r)&1 == 1 {
				g ^= 1<<q | 1<<r
			}
		}
		if g < f || (f^zv)&zm != 0 && (g^zv)&zm != 0 {
			continue
		}
		switch {
		case g == f && blockMap && sdist != 0:
			exchangeBy(amps[f:], ssrc, sdist)
		case g == f && blockMap:
			exchange(amps[f:], amps[f:], ssrc, sdst)
		case g == f:
		case blockMap:
			exchange(amps[f:], amps[g:], src, dst)
		default:
			a, b := amps[f:f+run], amps[g:g+run]
			for i := range a {
				a[i], b[i] = b[i], a[i]
			}
		}
	}
}

// exchangeBy swaps a[x] with a[x+d] for every x in xs. It and exchange
// stay out of line: inlined into the frame loop, their counters spill
// to the stack, a store and a reload per amplitude.
//
//go:noinline
func exchangeBy(a []complex128, xs []uint32, d uint32) {
	for _, x := range xs {
		a[x], a[x+d] = a[x+d], a[x]
	}
}

// exchange swaps a[xs[i]] with b[ys[i]] for every i.
//
//go:noinline
func exchange(a, b []complex128, xs, ys []uint32) {
	ys = ys[:len(xs)]
	for i, x := range xs {
		y := ys[i]
		a[x], b[y] = b[y], a[x]
	}
}
