package statevec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"testing"

	"qgear/internal/qmath"
)

// shardArgs is one shard's slice of a term as the reference loop takes
// it: masks on the shard's own qubits, with the rank bits' share folded
// in by hand.
type shardArgs struct {
	XMask, YMask, ZMask uint64
	// Flip selects the pair-product walk (the term's whole flip mask is
	// nonzero), false the pure-Z parity walk.
	Flip bool
	// Phase0 is i^{|Y|} over the whole term, negated once per set rank
	// bit under its Y|Z mask.
	Phase0 complex128
	// Pivot is the shard-local pivot, or −1 when it is a rank bit (every
	// resident amplitude is then enumerated).
	Pivot int
	// ParityBase is the rank bits' share of a parity term's Z parity.
	ParityBase int
	// Partner holds the partner shard's raw amplitudes for pairs across
	// the rank boundary; nil means both members are resident.
	Partner []complex128
	// ChunkBits is the chunk width (clamped to the enumeration).
	ChunkBits int
}

// refShard is the evaluator this package shipped before the grouped
// block sweep, kept as the oracle: one pass per term, every amplitude
// read through a logical→physical index translation, chunks summed in
// ascending j and reduced by treeSum. The grouped evaluator must match
// it bit for bit.
func refShard(s *State, a shardArgs) (float64, int) {
	// logical→physical index-chunk tables, identity when no permutation
	// is pending.
	loBits := uint(s.n) / 2
	loMask := uint64(1)<<loBits - 1
	tabLo := make([]uint64, 1<<loBits)
	tabHi := make([]uint64, 1<<(uint(s.n)-loBits))
	place := func(v int, first uint) uint64 {
		var p uint64
		for b := uint(0); v>>b != 0; b++ {
			pos := first + b
			if s.perm != nil {
				pos = uint(s.perm[pos])
			}
			p |= (uint64(v) >> b & 1) << pos
		}
		return p
	}
	for v := range tabLo {
		tabLo[v] = place(v, 0)
	}
	for v := range tabHi {
		tabHi[v] = place(v, loBits)
	}
	phys := func(b uint64) uint64 { return tabLo[b&loMask] | tabHi[b>>loBits] }
	m := s.n
	if a.Pivot >= 0 {
		m = s.n - 1
	}
	cb := a.ChunkBits
	if cb > m {
		cb = m
	}
	if cb < 0 {
		cb = 0
	}
	partials := make([]float64, 1<<uint(m-cb))
	for c := range partials {
		var acc float64
		for j := c << uint(cb); j < (c+1)<<uint(cb); j++ {
			b := uint64(j)
			if a.Flip {
				flip := a.XMask | a.YMask
				other := a.Partner
				if other == nil {
					other = s.amps
				}
				if a.Pivot >= 0 {
					b = insertBit(b, uint(a.Pivot), 0)
				}
				ph := a.Phase0
				if bits.OnesCount64(b&(a.YMask|a.ZMask))&1 == 1 {
					ph = -ph
				}
				am := s.amps[phys(b)]
				pm := other[phys(b^flip)]
				t := ph * am * complex(real(pm), -imag(pm))
				acc += 2 * real(t)
				continue
			}
			if a.Pivot >= 0 {
				b = insertBit(b, uint(a.Pivot), 0)
				par := (a.ParityBase&1 + bits.OnesCount64(b&a.ZMask)) & 1
				b |= uint64(1-par) << uint(a.Pivot)
			}
			am := s.amps[phys(b)]
			acc += real(am)*real(am) + imag(am)*imag(am)
		}
		partials[c] = acc
	}
	return treeSum(partials), 1 << uint(m)
}

// refTermShard folds term t of a total-qubit register into the
// reference arguments of s as the shard holding rank's amplitudes (rank
// 0 of a register as wide as s is s itself), as the distributed engine
// did term by term before shards ran the grouped sweep — a constant
// phase and parity seed from the rank bits, a pivot of −1 on a rank bit
// — and returns the sum of the shard's chunks: 0 when it owns none of
// them (the pivot rank bit is set, or a Z string on rank bits only is
// even here).
func refTermShard(s *State, t PauliTerm, total, rank int, partner []complex128) float64 {
	local := s.n
	lmask := uint64(1)<<uint(local) - 1
	a := shardArgs{XMask: t.X & lmask, YMask: t.Y & lmask, ZMask: t.Z & lmask, Partner: partner,
		ChunkBits: min(expChunkBits(total), local-1)}
	hi := uint64(rank)
	if flip := t.X | t.Y; flip != 0 {
		a.Flip = true
		a.Phase0 = iPow(bits.OnesCount64(t.Y))
		if bits.OnesCount64(hi&((t.Y|t.Z)>>uint(local)))&1 == 1 {
			a.Phase0 = -a.Phase0
		}
		a.Pivot = bits.TrailingZeros64(flip)
		if a.Pivot >= local {
			a.Pivot = -1
			if hi>>uint(bits.TrailingZeros64(flip)-local)&1 == 1 {
				return 0
			}
		}
	} else {
		parity := bits.OnesCount64(hi&(t.Z>>uint(local))) & 1
		a.Pivot = bits.TrailingZeros64(t.Z)
		if a.Pivot >= local {
			a.Pivot = -1 // the whole shard is on one side of the parity
			if parity == 0 {
				return 0
			}
		}
		a.ParityBase = parity
	}
	v, _ := refShard(s, a)
	return v
}

// refExpPauli is the old ExpPauli over refShard.
func refExpPauli(s *State, t PauliTerm) float64 {
	switch {
	case t.X|t.Y|t.Z == 0:
		return 1
	case t.X|t.Y == 0:
		return 1 - 2*refTermShard(s, t, s.n, 0, nil)
	}
	return refTermShard(s, t, s.n, 0, nil)
}

// groupLayouts are the amplitude layouts the grouped sweep must read
// through: in place, bit-reversed (what a QFT plan leaves) and random.
var groupLayouts = []string{"identity", "bitrev", "random"}

// layoutState returns a state with random amplitudes declared to be in
// the named layout.
func layoutState(t testing.TB, n, workers int, layout string, r *qmath.RNG) *State {
	s := MustNew(n, workers)
	copy(s.AmplitudesRaw(), randAmps(1<<uint(n), r))
	perm := make([]int, n)
	for q := range perm {
		perm[q] = q
	}
	switch layout {
	case "bitrev":
		for q := range perm {
			perm[q] = n - 1 - q
		}
	case "random":
		perm = r.Perm(n)
	}
	if err := s.SetPermutation(perm); err != nil {
		t.Fatal(err)
	}
	return s
}

// randomTerm draws a 1–4-factor X/Y/Z string on n qubits.
func randomTerm(n int, r *qmath.RNG) PauliTerm {
	var t PauliTerm
	factors := 1 + r.Intn(4)
	for f := 0; f < factors; f++ {
		bit := uint64(1) << uint(r.Intn(n))
		if (t.X|t.Y|t.Z)&bit != 0 {
			continue
		}
		switch r.Intn(3) {
		case 0:
			t.X |= bit
		case 1:
			t.Y |= bit
		default:
			t.Z |= bit
		}
	}
	return t
}

// edgeTerms are the block-geometry corner cases of an n-qubit
// register: pivots and flip bits at, just below and above the block
// width, a flip on every qubit above it (more high flip bits than a
// resident set is wide), a Z string entirely above it, duplicates and
// the identity.
func edgeTerms(n int) []PauliTerm {
	bb := expChunkBits(n) + 1
	if bb > n {
		bb = n
	}
	top := uint64(1) << uint(n-1)
	all := uint64(1)<<uint(n) - 1
	high := all &^ (uint64(1)<<uint(bb) - 1)
	terms := []PauliTerm{
		{},
		{X: 1}, {Y: 1}, {Z: 1},
		{X: top}, {Y: top}, {Z: top},
		{X: all}, {Y: all}, {Z: all},
		{X: 1, Z: top}, {Z: 1, Y: top},
		{X: top}, {},
	}
	if high != 0 {
		at := uint64(1) << uint(bb)
		terms = append(terms,
			PauliTerm{X: high}, PauliTerm{Y: high}, PauliTerm{Z: high},
			PauliTerm{X: at}, PauliTerm{Z: at}, PauliTerm{X: at >> 1, Y: at},
			PauliTerm{X: high &^ at, Z: at}, PauliTerm{X: high, Z: 1})
	}
	for i := range terms { // tiny registers fold the corners onto each other
		terms[i].Y &^= terms[i].X
		terms[i].Z &^= terms[i].X | terms[i].Y
	}
	return terms
}

// checkGroup holds ExpPauliGroup over terms, through each of evs, to
// the reference loop bit for bit — and ExpPauli of each of the first three terms alone to it too,
// with its visit count: 2^(n−1), none for the identity.
func checkGroup(t testing.TB, s *State, terms []PauliTerm, what string, evs ...*PauliEvaluator) {
	want := make([]float64, len(terms))
	for i, term := range terms {
		want[i] = refExpPauli(s, term)
	}
	for _, ev := range evs {
		at := fmt.Sprintf("%s, resident %d", what, ev.residentBits)
		got, _, err := ev.ExpPauliGroup(terms, nil)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		for i, term := range terms {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: term %d (%x/%x/%x): grouped %.17g (%x) != reference %.17g (%x)",
					at, i, term.X, term.Y, term.Z, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		for i, term := range terms[:min(3, len(terms))] {
			one, visited, err := ev.ExpPauli(term.X, term.Y, term.Z)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(one) != math.Float64bits(want[i]) {
				t.Fatalf("%s: term %d alone %.17g != reference %.17g", at, i, one, want[i])
			}
			wantVisits := 1 << uint(s.n-1)
			if term == (PauliTerm{}) {
				wantVisits = 0
			}
			if visited != wantVisits {
				t.Fatalf("%s: term %d visited %d, want %d", at, i, visited, wantVisits)
			}
		}
	}
}

// checkShard holds the sweeps of one rank shard of a total-qubit
// register — one SweepShard per rank flip the terms carry, each nonzero
// one with a random partner shard — through each of evs, to the
// per-term reference loop:
// each term's slots of the slab reduce, bit for bit, to the reference
// sum of the shard's chunks (the shard's chunks are an aligned
// power-of-two run of the slots and every other slot stays zero, so the
// run reduces to the shard's subtree).
func checkShard(t testing.TB, s *State, total, rank int, terms []PauliTerm, r *qmath.RNG, what string, evs ...*PauliEvaluator) {
	partners := map[uint64][]complex128{0: nil}
	want := make([]float64, len(terms))
	for i, term := range terms {
		if term == (PauliTerm{}) {
			continue
		}
		rankFlip := (term.X | term.Y) >> uint(s.n)
		if _, ok := partners[rankFlip]; !ok {
			partners[rankFlip] = randAmps(1<<uint(s.n), r)
		}
		want[i] = refTermShard(s, term, total, rank, partners[rankFlip])
	}
	for _, ev := range evs {
		at := fmt.Sprintf("%s, resident %d", what, ev.residentBits)
		slab, err := ev.PartialSlab(terms)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		for rankFlip, partner := range partners {
			if _, err := ev.SweepShard(terms, slab, rankFlip, partner, nil); err != nil {
				t.Fatalf("%s: %v", at, err)
			}
		}
		nChunks, slot := 1<<uint(total-1-ev.chunkBits()), 0
		for i, term := range terms {
			if term == (PauliTerm{}) {
				continue
			}
			got := treeSum(slab[slot*nChunks : (slot+1)*nChunks])
			slot++
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("%s: term %d (%x/%x/%x): shard %.17g != reference %.17g",
					at, i, term.X, term.Y, term.Z, got, want[i])
			}
		}
	}
}

// TestExpPauliGroupMatchesReference holds the grouped block sweep to
// the old per-index loop, bit for bit, over register sizes, worker
// counts, layouts, random strings and the block-geometry corner cases
// — at the real resident bound and at one shrunk so far that every high
// flip bit takes the two-sided path — and a term alone to it too, with
// its visit count.
func TestExpPauliGroupMatchesReference(t *testing.T) {
	r := qmath.NewRNG(0x9a0f15)
	for n := 1; n <= 17; n++ {
		for _, workers := range []int{1, 2, 3} {
			for _, layout := range groupLayouts {
				if n == 1 && layout != "identity" {
					continue
				}
				s := layoutState(t, n, workers, layout, r)
				terms := edgeTerms(n)
				for len(terms) < 40 {
					terms = append(terms, randomTerm(n, r))
				}
				small := s.PauliEvaluator()
				small.residentBits = expChunkBits(n) + 1 + r.Intn(2)
				checkGroup(t, s, terms, fmt.Sprintf("n=%d workers=%d %s", n, workers, layout), s.PauliEvaluator(), small)
			}
		}
	}
}

// TestShardMatchesReference drives the evaluator on one rank shard of a
// wider register — terms with X/Y/Z factors on rank bits, partner
// buffers for pairs across the rank boundary, pivots on rank bits,
// rank-bit parity and phase, and worlds of up to 64 ranks, whose shards
// are smaller than one canonical chunk — and holds the shard's slots of
// the partial slab to the per-term reference loop, bit for bit
// (checkShard).
func TestShardMatchesReference(t *testing.T) {
	r := qmath.NewRNG(0x5ba2d)
	for trial := 0; trial < 500; trial++ {
		local := 1 + r.Intn(15)
		total := local + r.Intn(7)
		rank := r.Intn(1 << uint(total-local))
		layout := groupLayouts[r.Intn(len(groupLayouts))]
		if local == 1 {
			layout = "identity"
		}
		s := layoutState(t, local, 1+r.Intn(3), layout, r)
		term := randomTerm(total, r)
		ev := s.ShardEvaluator(total, uint64(rank)<<uint(local))
		if r.Intn(2) == 0 {
			ev.residentBits = min(expChunkBits(total), local-1) + 1 + r.Intn(3)
		}
		what := fmt.Sprintf("trial %d (local=%d total=%d rank=%d %s)", trial, local, total, rank, layout)
		checkShard(t, s, total, rank, []PauliTerm{term}, r, what, ev)
	}
}

// tfimTerms is the transverse-field Ising chain as masks: n−1 ZZ bonds
// then n single-qubit X terms.
func tfimTerms(n int) []PauliTerm {
	var terms []PauliTerm
	for i := 0; i+1 < n; i++ {
		terms = append(terms, PauliTerm{Z: 3 << uint(i)})
	}
	for i := 0; i < n; i++ {
		terms = append(terms, PauliTerm{X: 1 << uint(i)})
	}
	return terms
}

// TestExpPauliGroupPassCount pins the point of grouping next to the
// visit-count pins: the 39 terms of TFIM-20 on the bit-reversed layout
// read the state in at most 4 sweeps (39 before), while every term
// still reports exactly 2^(n−1) visited indices.
func TestExpPauliGroupPassCount(t *testing.T) {
	if testing.Short() {
		t.Skip("20-qubit state")
	}
	const n = 20
	r := qmath.NewRNG(20)
	for _, layout := range []string{"identity", "bitrev"} {
		s := layoutState(t, n, 2, layout, r)
		ev := s.PauliEvaluator()
		terms := tfimTerms(n)
		_, passes, err := ev.ExpPauliGroup(terms, nil)
		if err != nil {
			t.Fatal(err)
		}
		if passes > 4 {
			t.Errorf("%s: TFIM-%d took %d sweeps over the state, want <= 4", layout, n, passes)
		}
		for i, term := range []PauliTerm{terms[0], terms[n-2], terms[n-1], terms[len(terms)-1]} {
			v, visited, err := ev.ExpPauli(term.X, term.Y, term.Z)
			if err != nil {
				t.Fatal(err)
			}
			if visited != 1<<(n-1) {
				t.Errorf("%s: term %d visited %d indices, want %d", layout, i, visited, 1<<(n-1))
			}
			if want := refExpPauli(s, term); math.Float64bits(v) != math.Float64bits(want) {
				t.Errorf("%s: term %d: %.17g != reference %.17g", layout, i, v, want)
			}
		}
	}
}

// TestExpPauliGroupCancellation trips the poll mid-sweep: the sweep
// must return that error within one block batch per worker, and the
// evaluator must still work afterwards.
func TestExpPauliGroupCancellation(t *testing.T) {
	const n = 18
	r := qmath.NewRNG(18)
	stop := errors.New("stop")
	for _, workers := range []int{1, 2} {
		s := layoutState(t, n, workers, "bitrev", r)
		ev := s.PauliEvaluator()
		terms := tfimTerms(n)

		var polls atomic.Int64
		_, _, err := ev.ExpPauliGroup(terms, func() error {
			if polls.Add(1) > 3 {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) {
			t.Fatalf("workers=%d: err = %v, want the poll's error", workers, err)
		}
		// Three polls pass; after the trip each worker may have one more
		// in flight, and no worker starts another block batch.
		if got := polls.Load(); got > int64(3+workers) {
			t.Errorf("workers=%d: %d polls, want <= %d (one block batch per worker after the trip)", workers, got, 3+workers)
		}

		// The same evaluator still works after a cancelled sweep.
		checkGroup(t, s, terms[:3], "after cancel", ev)
	}
}

// pauliInput is FuzzExpPauliGroup's input: the state's width n
// (1–17), layout (an index into groupLayouts), workers (1–3) and
// amplitude seed; a resident bound (0: the shipped one only, else that
// one too); the world (0: the whole register through PauliEvaluator, w:
// a rank shard of a register w−1 qubits wider through ShardEvaluator)
// and the shard's rank; then X, Y and Z of each term, 4 bytes each.
func pauliInput(n, layout, workers, seed, resident, world, rank int, terms []PauliTerm) []byte {
	in := []byte{byte(n - 1), byte(layout), byte(workers - 1), byte(seed), byte(resident), byte(world)}
	in = binary.LittleEndian.AppendUint16(in, uint16(rank))
	for _, t := range terms {
		for _, m := range []uint64{t.X, t.Y, t.Z} {
			in = binary.LittleEndian.AppendUint32(in, uint32(m))
		}
	}
	return in
}

// FuzzExpPauliGroup decodes a state, evaluators of the whole register
// or of one rank shard of a wider one, and a term list from the input
// (pauliInput), and holds the grouped sweep to the per-index reference
// loop bit for bit on every body the lane wrappers take here
// (checkGroup, checkShard). The seeds are the register sizes 1–17, each
// at the shipped resident bound and at one shrunk so far that every
// high flip bit takes the two-sided path, over its block-geometry
// corner cases and random strings; and shards of 1 to 16 qubits in
// worlds of 1 to 64 ranks — smaller than one canonical chunk at the
// widest — over the corner cases of the whole register: X/Y/Z factors
// on rank bits, partner buffers for pairs across the rank boundary,
// pivots on rank bits, rank-bit parity and phase.
func FuzzExpPauliGroup(f *testing.F) {
	r := qmath.NewRNG(0x9a0f15)
	for n := 1; n <= 17; n++ {
		terms := edgeTerms(n)
		for len(terms) < 28 {
			terms = append(terms, randomTerm(n, r))
		}
		f.Add(pauliInput(n, n%3, 1+n%3, n, expChunkBits(n)+1+n%2, 0, 0, terms))
	}
	for i, local := range []int{1, 2, 3, 5, 8, 12, 16} {
		for _, extra := range []int{0, 1, 6} {
			total := local + extra
			terms := edgeTerms(total)
			for len(terms) < 28 {
				terms = append(terms, randomTerm(total, r))
			}
			resident := min(expChunkBits(total), local-1) + 1 + extra%3
			f.Add(pauliInput(local, i%3, 1+i%3, i, resident, extra+1, (1<<uint(extra)-1)*(i%2), terms))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		n := 1 + int(data[0])%17
		layout := groupLayouts[int(data[1])%len(groupLayouts)]
		if n == 1 {
			layout = "identity"
		}
		r := qmath.NewRNG(uint64(data[3]))
		s := layoutState(t, n, 1+int(data[2])%3, layout, r)
		extra := int(data[5])%8 - 1 // −1: the whole register
		total := n + max(extra, 0)
		rank := int(binary.LittleEndian.Uint16(data[6:])) % (1 << uint(max(extra, 0)))
		ev := s.PauliEvaluator()
		if extra >= 0 {
			ev = s.ShardEvaluator(total, uint64(rank)<<uint(n))
		}
		evs := []*PauliEvaluator{ev}
		if data[4] != 0 {
			shrunk := *ev
			shrunk.residentBits = 1 + int(data[4]-1)%expResidentBits
			evs = append(evs, &shrunk)
		}
		mask := uint64(1)<<uint(total) - 1
		var terms []PauliTerm
		for rest := data[8:]; len(rest) >= 12 && len(terms) < 48; rest = rest[12:] {
			x := uint64(binary.LittleEndian.Uint32(rest)) & mask
			y := uint64(binary.LittleEndian.Uint32(rest[4:])) & mask &^ x
			z := uint64(binary.LittleEndian.Uint32(rest[8:])) & mask &^ (x | y)
			terms = append(terms, PauliTerm{X: x, Y: y, Z: z})
		}
		wrapperBodies(func(body string) {
			what := fmt.Sprintf("n=%d %s, %s body", n, layout, body)
			if extra < 0 {
				checkGroup(t, s, terms, what, evs...)
				return
			}
			checkShard(t, s, total, rank, terms, r, fmt.Sprintf("%s, shard %d of a %d-qubit register", what, rank, total), evs...)
		})
	})
}

// BenchmarkExpPauliGroup is the TFIM-20 term list through the grouped
// sweep on the layout a plain circuit leaves, the one a QFT plan leaves
// and a random one, at 1 and 2 workers. A permuted row re-declares its
// layout before every iteration, outside the timer, so each iteration
// times the materialization and the sweeps, as an evaluation after a
// plan run pays them. Its MB/s counts the amplitudes the sweeps read:
// sweeps × 2^n × 16 B.
func BenchmarkExpPauliGroup(b *testing.B) {
	const n = 20
	for _, layout := range groupLayouts {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/tfim20/w%d", layout, workers), func(b *testing.B) {
				s := layoutState(b, n, workers, layout, qmath.NewRNG(20))
				perm := s.Permutation()
				terms := tfimTerms(n)
				_, sweeps, err := s.PauliEvaluator().ExpPauliGroup(terms, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(sweeps) << n * 16)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if perm != nil {
						b.StopTimer()
						if err := s.SetPermutation(perm); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					if _, _, err := s.PauliEvaluator().ExpPauliGroup(terms, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReadout is ProbabilitiesInto of a 21-qubit state on the
// identity, bit-reversed and random layouts, at 1 and 2 workers, the
// readout walk cached as after a state's first readout. Its MB/s counts
// the amplitudes read, 2^n × 16 B.
func BenchmarkReadout(b *testing.B) {
	const n = 21
	for _, layout := range groupLayouts {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", layout, workers), func(b *testing.B) {
				s := layoutState(b, n, workers, layout, qmath.NewRNG(21))
				defer s.Release()
				p := make([]float64, 1<<n)
				s.ProbabilitiesInto(p)
				b.SetBytes(16 << n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.ProbabilitiesInto(p)
				}
			})
		}
	}
}
