// Package statevec implements the dense state-vector simulation engine
// described in Appendix A of the paper: the quantum state of an n-qubit
// system is a 2^n complex vector (Eq. 1), single-qubit gates mix
// amplitude pairs selected by the target-qubit bit (Eq. 2), and
// controlled gates mix the pairs whose control bit is 1 (Eq. 3, with
// the non-contiguous memory access pattern Appendix A walks through for
// the 3-qubit CX example).
//
// The engine has a serial path (the Qiskit-Aer-on-CPU stand-in) and a
// data-parallel path that shards the amplitude-pair index space over
// worker goroutines (the CUDA-Q-on-A100 stand-in): the same mechanism —
// thousands of independent amplitude updates per gate — that the paper
// credits for the GPU's two-orders-of-magnitude advantage.
package statevec

import (
	"fmt"
	"math"

	"qgear/internal/gate"
	"qgear/internal/qmath"
)

// MaxQubits bounds allocations: 2^28 amplitudes = 4 GiB of complex128,
// the most a single simulated device is allowed to hold (the paper's
// A100-40GB tops out at 32 qubits of fp32 pairs; our in-memory budget
// tops out lower, and the cluster model extrapolates beyond).
const MaxQubits = 28

// State is a dense 2^n-amplitude state vector.
//
// The amplitude array may be held in a *permuted* qubit layout: perm
// (when non-nil) maps each logical qubit to the physical bit position
// its amplitude index actually uses. The tiled executor exploits this
// to relabel qubits without moving data — a logical SWAP is a table
// update — and readout entry points materialize the permutation back
// to the identity layout lazily, on first access.
//
// Beside the permutation the state carries its support (sup): the
// physical bit positions known to be classical, and their values.
// Every amplitude outside it is exactly +0, and every sweep kernel
// enumerates only the amplitudes inside it — so a circuit that starts
// from |0…0⟩ or a basis state sweeps a few amplitudes until its first
// mixing gates, and a dense state sweeps all of them, as it always did.
// New and PrepareBasis know every bit. X flips a known bit; a
// controlled gate (CX included) does nothing under a control known to
// be 0 and acts uncontrolled under controls known to be 1; any other
// mixing gate forgets its target; diagonal gates change nothing; swaps
// exchange the records (see Support). Handing out a mutable slice
// (Amplitudes, AmplitudesRaw) forgets every bit: whoever holds it may
// write anywhere. A state can also be known to be all zero — a rank
// shard that holds none of the state yet (mgpu) — and then every sweep
// skips it whole, until SetAmp, PrepareBasis, SetSupport or handing out
// the slice replaces the record.
type State struct {
	n       int
	amps    []complex128
	workers int
	perm    []int        // logical→physical qubit map; nil = identity
	permTab *permWalk    // cached readout walk for the current perm; nil = stale
	tabs    []complex128 // phase-table scratch (table.go), held until Release; nil until a group runs
	sup     Support      // the known classical bits, at physical positions
}

// Support records the physical bit positions a state knows to be
// classical (Mask) and their values (Val, inside Mask): every amplitude
// whose index bits under Mask differ from Val is exactly +0. Zero
// records a state all of whose amplitudes are +0 (Mask and Val are then
// 0): every sweep narrows to nothing, so a rank shard that holds none of
// a distributed state does no work. The distributed engine, which moves
// amplitudes itself, carries a shard's record across an exchange
// (mgpu.swapRankBit).
//
// The +0 matters: the schedules realize a permutation differently (a
// tiled plan relabels, the per-gate plan sweeps a SWAP, readout
// materializes), and a bit swap skips pairs that lie wholly outside
// the support, so the zeros there must be alike for every schedule to
// leave the same bits. Nothing puts a zero out there but a flip — a
// swap moves one, and X's 2×2 makes ±0 + 1·(+0) = +0 — and SetAmp,
// which keeps a bit known only for a +0 write, and a rank exchange,
// which writes +0 where a half proven zero arrives.
type Support struct {
	Mask, Val uint64
	Zero      bool
}

// fullSupport is the support of the basis state |idx⟩ on n qubits.
func fullSupport(n int, idx uint64) Support {
	return Support{Mask: 1<<uint(n) - 1, Val: idx}
}

// narrow returns the subspace a sweep enumerates: its own fixed bits
// and their values, plus every known bit but those in mix (the bits it
// mixes). ok is false when a fixed bit contradicts a known one: every
// amplitude the sweep would touch is zero, and it skips them all.
func (sp Support) narrow(fixed, val, mix uint64) (f, v uint64, ok bool) {
	known := sp.Mask &^ mix
	if sp.Zero || (val^sp.Val)&fixed&known != 0 {
		return 0, 0, false
	}
	return fixed | known, val&fixed | sp.Val&known, true
}

// mat steps the support past a gate that mixes bit t where every ctrl
// bit is 1: nothing happens under a control known to be 0; an X (flip)
// under known controls flips a known t; anything else forgets t.
func (sp *Support) mat(ctrl uint64, t uint, flip bool) {
	bit := uint64(1) << t
	switch {
	case ctrl&sp.Mask&^sp.Val != 0:
	case flip && ctrl&^sp.Mask == 0:
		sp.Val ^= bit & sp.Mask
	default:
		sp.Mask &^= bit
		sp.Val &^= bit
	}
}

// swap exchanges the records of bit positions a and b.
func (sp *Support) swap(a, b uint) {
	ab := uint64(1)<<a | uint64(1)<<b
	if (sp.Mask>>a^sp.Mask>>b)&1 == 1 {
		sp.Mask ^= ab
	}
	if (sp.Val>>a^sp.Val>>b)&1 == 1 {
		sp.Val ^= ab
	}
}

// isX reports whether m is the Pauli X matrix, the one 2×2 the support
// follows through (zero entries of either sign).
func isX(m gate.Mat2) bool { return m[0] == 0 && m[1] == 1 && m[2] == 1 && m[3] == 0 }

// Support returns the state's support record.
func (s *State) Support() Support { return s.sup }

// HalfZero reports whether the record proves +0 every amplitude whose
// bit l is v.
func (sp Support) HalfZero(l uint, v uint64) bool {
	return sp.Zero || sp.Mask>>l&1 == 1 && sp.Val>>l&1 != v
}

// SetSupport replaces the state's support record — after the caller
// has written its amplitudes through AmplitudesRaw, which forgot the
// old one. The caller vouches for it: every amplitude outside the
// record must be exactly +0, every amplitude of a Zero record too.
func (s *State) SetSupport(sp Support) { s.sup = sp }

// New returns the n-qubit |0...0> state with the given worker count
// (workers <= 1 selects the serial path), on a slab from the free list
// (slab.go) that a caller done with the state gives back with Release.
func New(n, workers int) (*State, error) {
	if n < 0 {
		return nil, fmt.Errorf("statevec: negative qubit count %d", n)
	}
	if n > MaxQubits {
		return nil, fmt.Errorf("statevec: %d qubits exceeds the %d-qubit single-device limit (2^%d amplitudes); use the mgpu engine or the cluster model", n, MaxQubits, n)
	}
	if workers < 1 {
		workers = 1
	}
	s := &State{
		n:       n,
		amps:    TakeSlab(n),
		workers: workers,
		sup:     fullSupport(n, 0),
	}
	s.amps[0] = 1
	return s, nil
}

// MustNew is New for callers with validated sizes (tests, examples).
func MustNew(n, workers int) *State {
	s, err := New(n, workers)
	if err != nil {
		panic(err)
	}
	return s
}

// Release returns the state's amplitudes to the slab free list, and its
// phase-table scratch to the table list. The state is unusable
// afterwards: it holds no amplitudes, so a use after release panics
// instead of writing into a slab that now belongs to another run. A
// second Release is a no-op (PutSlab ignores nil).
func (s *State) Release() {
	PutSlab(s.amps)
	tables.put(s.tabs)
	*s = State{n: s.n, workers: s.workers}
}

// live panics on a released state (a live one holds ≥ 1 amplitude).
func (s *State) live() {
	if s.amps == nil {
		panic("statevec: use of a released State")
	}
}

// NumQubits returns n.
func (s *State) NumQubits() int { return s.n }

// Len returns the number of amplitudes, 2^n.
func (s *State) Len() int { return len(s.amps) }

// Amp returns amplitude i (in logical qubit order; a pending
// permutation is materialized first).
func (s *State) Amp(i uint64) complex128 {
	if s.perm != nil {
		s.MaterializePerm()
	}
	return s.amps[i]
}

// SetAmp overwrites amplitude i; used by tests and the distributed
// engine's set-up. Any value but +0 narrows the support to the bits i
// agrees with it on (on an all-zero state, to i alone); a +0 never
// changes it.
func (s *State) SetAmp(i uint64, v complex128) {
	if s.perm != nil {
		s.MaterializePerm()
	}
	s.amps[i] = v
	switch {
	case math.Float64bits(real(v))|math.Float64bits(imag(v)) == 0:
	case s.sup.Zero: // i holds the one amplitude that can be non-zero
		s.sup = fullSupport(s.n, i)
	default:
		s.sup.Mask &^= i ^ s.sup.Val
		s.sup.Val &= s.sup.Mask
	}
}

// Amplitudes exposes the raw amplitude slice (shared, not copied); the
// mgpu engine and samplers iterate it directly. A pending qubit
// permutation is materialized first so indices read in logical order.
// The caller may write anywhere, so the state forgets its support.
func (s *State) Amplitudes() []complex128 {
	s.live()
	if s.perm != nil {
		s.MaterializePerm()
	}
	s.sup = Support{}
	return s.amps
}

// PrepareBasis sets the state to the computational basis state |idx>.
func (s *State) PrepareBasis(idx uint64) error {
	if idx >= uint64(len(s.amps)) {
		return fmt.Errorf("statevec: basis index %d out of range", idx)
	}
	s.perm = nil
	s.permTab = nil
	for i := range s.amps {
		s.amps[i] = 0
	}
	s.amps[idx] = 1
	s.sup = fullSupport(s.n, idx)
	return nil
}

// Norm returns the 2-norm of the state, which every unitary op must
// preserve at 1 (the Eq. 1 constraint Σ|αi|² = 1).
func (s *State) Norm() float64 {
	var acc float64
	for _, a := range s.amps {
		acc += float64(real(a)*real(a)) + float64(imag(a)*imag(a))
	}
	return math.Sqrt(acc)
}

// Clone returns a deep copy sharing no storage.
func (s *State) Clone() *State {
	s.live()
	c := MustNew(s.n, s.workers)
	copy(c.amps, s.amps)
	c.sup = s.sup
	if s.perm != nil {
		c.perm = append([]int(nil), s.perm...)
		c.permTab = s.permTab // immutable once built; safe to share
	}
	return c
}

// Probabilities returns |αi|² for every basis state in logical qubit
// order (allocates 2^n float64). A pending qubit permutation is read
// *through*, not materialized, and the amplitude layout is left
// untouched for further tiled execution.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.amps))
	s.ProbabilitiesInto(p) // panics on a released state
	return p
}

// ProbabilitiesInto is Probabilities written into p, which must hold
// 2^n entries — the distributed engine hands each rank its slice of the
// one gathered vector, so a shard's readout is never copied.
//
// Through a pending permutation the readout takes the line-blocked
// permWalk (cached on the state per permutation): it visits each
// 64-byte line of p and then each line of amplitudes while it is in
// L1, the rest in ascending physical position, fanned out over its
// high table.
func (s *State) ProbabilitiesInto(p []float64) {
	s.live()
	n := len(s.amps)
	if len(p) != n {
		panic(fmt.Sprintf("statevec: readout into %d entries, state has %d", len(p), n))
	}
	v := lanes(s.amps)
	if s.perm == nil {
		if s.serial(n) {
			probsChunk(p, v, 0, n)
		} else {
			ParallelFor(n, s.workers, func(lo, hi int) { probsChunk(p, v, lo, hi) })
		}
		return
	}
	t := s.readoutWalk()
	if s.serial(n) {
		t.probs(p, s.amps, 0, len(t.physHi))
	} else {
		ParallelFor(len(t.physHi), s.workers, func(lo, hi int) { t.probs(p, s.amps, lo, hi) })
	}
}

// probsChunk writes |amps[i]|² for i in [lo, hi) on an identity layout.
func probsChunk(p, v []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar, ai := v[2*i], v[2*i+1]
		p[i] = float64(ar*ar) + float64(ai*ai)
	}
}

// permWalk is the readout's walk through a pending permutation. Entry
// i of the (hi, lo) split tables gives the physical offset and the
// logical slot contributed by bit-chunk i, so slot(i) =
// slotHi[i>>loBits] | slotLo[i&loMask] and likewise for the offset. It
// is immutable once built, so clones may share it.
type permWalk struct {
	physLo, slotLo, physHi, slotHi []uint32
}

// newPermWalk builds the walk over every physical position p (inv is
// the physical→logical qubit map), each landing on its logical bit. The
// qubits are enumerated fastest first: those inside one line of
// probabilities, then those inside one 64-byte line of amplitudes, so
// every line the innermost iterations touch on either side is finished
// while it is in L1, then the rest in ascending physical position,
// which keeps the reads a few forward streams.
func newPermWalk(inv []int) permWalk {
	var phys, dst [MaxQubits]uint
	m := 0
	for pass := 0; pass < 3; pass++ {
		for p, q := range inv {
			rank := 2
			if q < probLineBits {
				rank = 0
			} else if p < ampLineBits {
				rank = 1
			}
			if rank == pass {
				phys[m], dst[m] = uint(p), uint(q)
				m++
			}
		}
	}
	loBits := (m + 1) / 2
	nLo, nHi := 1<<uint(loBits), 1<<uint(m-loBits)
	slab := make([]uint32, 2*(nLo+nHi))
	t := permWalk{
		physLo: slab[:nLo], slotLo: slab[nLo : 2*nLo],
		physHi: slab[2*nLo : 2*nLo+nHi], slotHi: slab[2*nLo+nHi:],
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
		t.slotLo[v] = spread(v, dst[:loBits])
	}
	for v := range t.physHi {
		t.physHi[v] = spread(v, phys[loBits:m])
		t.slotHi[v] = spread(v, dst[loBits:m])
	}
	return t
}

// ampLineBits and probLineBits are log2 of the complex128 amplitudes
// and of the float64 probabilities in a 64-byte line.
const (
	ampLineBits  = 2
	probLineBits = 3
)

// readoutWalk returns the readout walk of the current permutation: every
// qubit free, on its logical bit. It is built once per permutation and
// cached on the state (every perm mutation clears the cache), so
// repeated readout — the sample-then-read-again pattern of shot loops —
// pays the O(2^(n/2)) build only when the layout actually changed.
func (s *State) readoutWalk() *permWalk {
	if s.permTab == nil {
		var inv [MaxQubits]int // physical→logical
		for q, p := range s.perm {
			inv[p] = q
		}
		t := newPermWalk(inv[:s.n])
		s.permTab = &t
	}
	return s.permTab
}

// probs writes |a|² of rows [lo, hi) of the walk's high table to their
// logical slots of p.
func (t *permWalk) probs(p []float64, amps []complex128, lo, hi int) {
	for h := lo; h < hi; h++ {
		ph, sh := t.physHi[h], t.slotHi[h]
		for l, pl := range t.physLo {
			a := amps[ph|pl]
			p[sh|t.slotLo[l]] = float64(real(a)*real(a)) + float64(imag(a)*imag(a))
		}
	}
}

// checkQubit panics on out-of-range targets: gate application is on the
// hot path and the callers (kernel executor) validate programs up
// front, so this is a programming-error guard, not input validation.
func (s *State) checkQubit(q int) {
	s.live()
	if q < 0 || q >= s.n {
		panic(fmt.Sprintf("statevec: qubit %d out of range [0,%d)", q, s.n))
	}
}

// qmathBit is re-exported for the hot loops below.
func insertBit(x uint64, pos uint, val uint64) uint64 { return qmath.InsertBit(x, pos, val) }

// --- Lazy qubit-permutation table ---
//
// The tiled executor relabels qubits instead of moving amplitudes: a
// SWAP gate, or a planned relabeling that brings a hot high qubit into
// a tile-resident position, is recorded here and only turned into data
// movement when (a) the executor itself pays one bit-swap sweep to
// relocate a qubit, or (b) a reader needs the canonical logical layout
// (the ⟨H⟩ evaluator, Amplitudes, SetAmp, a new SetPermutation). Then
// MaterializePerm moves the whole layout back at once: one
// cache-blocked pass per involution of its bit permutation, at most two
// (relayout.go), however many qubits the table moved. Probability
// readout reads through the table instead (readoutWalk).

// ensureCanonical materializes any pending qubit permutation so that
// gate kernels can address raw bit positions; a nil check keeps it
// free on the common path.
func (s *State) ensureCanonical() {
	if s.perm != nil {
		s.MaterializePerm()
	}
}

// PermIsIdentity reports whether the amplitude layout is the canonical
// logical order.
func (s *State) PermIsIdentity() bool {
	if s.perm == nil {
		return true
	}
	for q, p := range s.perm {
		if q != p {
			return false
		}
	}
	return true
}

// Permutation returns a copy of the logical→physical qubit map, or nil
// when the layout is canonical.
func (s *State) Permutation() []int {
	if s.perm == nil {
		return nil
	}
	return append([]int(nil), s.perm...)
}

// SetPermutation declares that the amplitude data is currently laid
// out with logical qubit q at physical bit position perm[q]. Any
// previously pending permutation is materialized first, so the new
// table describes the raw layout. perm must be a permutation of
// [0, n).
func (s *State) SetPermutation(perm []int) error {
	if len(perm) != s.n {
		return fmt.Errorf("statevec: permutation has %d entries, want %d", len(perm), s.n)
	}
	seen := make([]bool, s.n)
	identity := true
	for q, p := range perm {
		if p < 0 || p >= s.n || seen[p] {
			return fmt.Errorf("statevec: invalid permutation %v", perm)
		}
		seen[p] = true
		if p != q {
			identity = false
		}
	}
	if s.perm != nil {
		s.MaterializePerm()
	}
	s.permTab = nil
	if identity {
		s.perm = nil
		return nil
	}
	s.perm = append([]int(nil), perm...)
	return nil
}

// MaterializePerm rearranges the amplitude data back to the canonical
// layout (logical qubit q at bit position q) and clears the table. The
// qubit at position p moves to position inv(p), its logical index; inv
// splits into at most two involutions, each one relayout pass: an
// involution (bit reversal, any set of swaps) is one pass, and a longer
// cycle c0 → c1 → … → c(k−1) of positions is two, the reflection
// ci ↔ c(−i) and then the reflection cj ↔ c(1−j), indices mod k.
func (s *State) MaterializePerm() {
	if s.perm == nil {
		return
	}
	perm := s.perm
	s.perm = nil
	s.permTab = nil
	var inv [MaxQubits]int
	for q, p := range perm {
		inv[p] = q
	}
	first, second := identityInvolution(), identityInvolution()
	var seen uint64
	for c0 := 0; c0 < s.n; c0++ {
		var cyc [MaxQubits]uint8
		k := 0
		for p := c0; seen>>uint(p)&1 == 0; p = inv[p] {
			seen |= 1 << uint(p)
			cyc[k] = uint8(p)
			k++
		}
		for i := 0; i < k; i++ {
			first[cyc[i]] = cyc[(k-i)%k]
			second[cyc[i]] = cyc[(k+1-i)%k]
		}
	}
	s.relayout(first, second)
}
