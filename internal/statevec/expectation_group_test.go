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

// refShard is the evaluator this package shipped before the grouped
// block sweep, kept as the oracle: one pass per term, every amplitude
// read through a logical→physical index translation, chunks summed in
// ascending j and reduced by TreeSum. The grouped evaluator must match
// it bit for bit.
func refShard(s *State, a PauliShardArgs) (float64, int) {
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
	return TreeSum(partials), 1 << uint(m)
}

// refExpPauli is the old ExpPauli over refShard.
func refExpPauli(s *State, t PauliTerm) float64 {
	if t.X|t.Y|t.Z == 0 {
		return 1
	}
	args := PauliShardArgs{XMask: t.X, YMask: t.Y, ZMask: t.Z, ChunkBits: ExpChunkBits(s.n)}
	if flip := t.X | t.Y; flip != 0 {
		args.Flip = true
		args.Phase0 = iPow(bits.OnesCount64(t.Y))
		args.Pivot = bits.TrailingZeros64(flip)
		v, _ := refShard(s, args)
		return v
	}
	args.Pivot = bits.TrailingZeros64(t.Z)
	sOdd, _ := refShard(s, args)
	return 1 - 2*sOdd
}

// groupLayouts are the amplitude layouts the grouped sweep must read
// through: in place, bit-reversed (what a QFT plan leaves) and random.
var groupLayouts = []string{"identity", "bitrev", "random"}

// layoutState returns a state with random amplitudes declared to be in
// the named layout.
func layoutState(t testing.TB, n, workers int, layout string, r *qmath.RNG) *State {
	s := MustNew(n, workers)
	copy(s.amps, randAmps(1<<uint(n), r))
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
	bb := ExpChunkBits(n) + 1
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

func checkGroup(t testing.TB, s *State, ev *PauliEvaluator, terms []PauliTerm, what string) {
	got, _, err := ev.ExpPauliGroup(terms, nil)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i, term := range terms {
		want := refExpPauli(s, term)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: term %d (%x/%x/%x): grouped %.17g (%x) != reference %.17g (%x)",
				what, i, term.X, term.Y, term.Z, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestExpPauliGroupMatchesReference holds the grouped block sweep to
// the old per-index loop, bit for bit, over register sizes, worker
// counts, layouts, random strings and the block-geometry corner cases
// — at the real scratch bound and at one shrunk so far that every high
// flip bit takes the two-sided path.
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
				ev := s.PauliEvaluator()
				what := fmt.Sprintf("n=%d workers=%d %s", n, workers, layout)
				checkGroup(t, s, ev, terms, what+" full group")

				// A term alone and inside the 40-term group: same bits.
				for _, i := range []int{3, 7, len(terms) - 1} {
					one, visited, err := ev.ExpPauli(terms[i].X, terms[i].Y, terms[i].Z)
					if err != nil {
						t.Fatal(err)
					}
					if want := refExpPauli(s, terms[i]); math.Float64bits(one) != math.Float64bits(want) {
						t.Fatalf("%s: one-term group %.17g != reference %.17g", what, one, want)
					}
					if visited != 1<<uint(n-1) {
						t.Fatalf("%s: visited %d, want %d", what, visited, 1<<uint(n-1))
					}
				}

				small := s.PauliEvaluator()
				small.scratchBits = ExpChunkBits(n) + 1 + r.Intn(2)
				checkGroup(t, s, small, terms, what+" shrunk scratch")
			}
		}
	}
}

// TestShardMatchesReference covers the rank-shard form the distributed
// engine calls: partner buffers, a pivot on a rank bit (−1), a parity
// seed and a rank-folded phase, on shards of a larger register.
func TestShardMatchesReference(t *testing.T) {
	r := qmath.NewRNG(0x5ba2d)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(15)    // shard width
		total := n + r.Intn(5) // register width; sets the canonical chunk
		layout := groupLayouts[r.Intn(len(groupLayouts))]
		if n == 1 {
			layout = "identity"
		}
		s := layoutState(t, n, 1+r.Intn(3), layout, r)
		term := randomTerm(n, r)
		a := PauliShardArgs{XMask: term.X, YMask: term.Y, ZMask: term.Z, ChunkBits: ExpChunkBits(total)}
		switch flip := term.X | term.Y; {
		case r.Intn(3) == 0:
			// Pairs across the rank boundary, with or without local flips.
			a.Flip = true
			a.Phase0 = iPow(r.Intn(4))
			a.Partner = randAmps(1<<uint(n), r)
			a.Pivot = -1
			if flip != 0 && r.Intn(2) == 0 {
				a.Pivot = bits.TrailingZeros64(flip)
			}
		case flip != 0:
			a.Flip = true
			a.Phase0 = iPow(r.Intn(4))
			a.Pivot = bits.TrailingZeros64(flip)
		case r.Intn(2) == 0:
			a.Pivot = bits.TrailingZeros64(term.Z)
			a.ParityBase = r.Intn(2)
		default:
			// A Z string on rank bits only: the whole shard is odd.
			a.ZMask = 0
			a.Pivot = -1
		}
		ev := s.PauliEvaluator()
		if r.Intn(2) == 0 {
			ev.scratchBits = a.ChunkBits + 1 + r.Intn(3)
		}
		got, visited := ev.Shard(a)
		want, wantVisited := refShard(s, a)
		if math.Float64bits(got) != math.Float64bits(want) || visited != wantVisited {
			t.Fatalf("trial %d (n=%d total=%d %s, args %+v): shard %.17g/%d != reference %.17g/%d",
				trial, n, total, layout, a, got, visited, want, wantVisited)
		}
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
// must return that error within one block batch per worker, and every
// gather buffer must be back on the free list.
func TestExpPauliGroupCancellation(t *testing.T) {
	const n = 18
	r := qmath.NewRNG(18)
	stop := errors.New("stop")
	for _, workers := range []int{1, 2} {
		s := layoutState(t, n, workers, "bitrev", r)
		ev := s.PauliEvaluator()
		terms := tfimTerms(n)

		// Park a known buffer on the free list; the sweep must take it
		// (not allocate) and hand it back.
		drained := drainExpScratch()
		putExpScratch(make([]complex128, 1<<expScratchBits))

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
		if len(expScratch) == 0 {
			t.Errorf("workers=%d: no gather buffer returned to the free list after cancellation", workers)
		}
		for _, buf := range drained {
			putExpScratch(buf)
		}

		// The same evaluator still works after a cancelled sweep.
		checkGroup(t, s, ev, terms[:3], "after cancel")
	}
}

func drainExpScratch() [][]complex128 {
	var out [][]complex128
	for {
		select {
		case buf := <-expScratch:
			out = append(out, buf)
		default:
			return out
		}
	}
}

// FuzzExpPauliGroup decodes a register size, layout, worker count,
// scratch bound and term list from the input and holds the grouped
// sweep to the reference loop bit for bit. Seeds are the table test's
// corner cases.
func FuzzExpPauliGroup(f *testing.F) {
	for n := 1; n <= 12; n += 3 {
		var seed []byte
		seed = append(seed, byte(n), byte(n%3), byte(n%3), byte(n))
		for _, term := range edgeTerms(n) {
			seed = binary.LittleEndian.AppendUint16(seed, uint16(term.X))
			seed = binary.LittleEndian.AppendUint16(seed, uint16(term.Y))
			seed = binary.LittleEndian.AppendUint16(seed, uint16(term.Z))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])%12
		layout := groupLayouts[int(data[1])%len(groupLayouts)]
		if n == 1 {
			layout = "identity"
		}
		workers := 1 + int(data[2])%3
		r := qmath.NewRNG(uint64(data[3]))
		s := layoutState(t, n, workers, layout, r)
		ev := s.PauliEvaluator()
		ev.scratchBits = 1 + int(data[3])%expScratchBits
		mask := uint64(1)<<uint(n) - 1
		var terms []PauliTerm
		for rest := data[4:]; len(rest) >= 6 && len(terms) < 48; rest = rest[6:] {
			x := uint64(binary.LittleEndian.Uint16(rest)) & mask
			y := uint64(binary.LittleEndian.Uint16(rest[2:])) & mask &^ x
			z := uint64(binary.LittleEndian.Uint16(rest[4:])) & mask &^ (x | y)
			terms = append(terms, PauliTerm{X: x, Y: y, Z: z})
		}
		checkGroup(t, s, ev, terms, layout)
	})
}

// BenchmarkExpPauliGroup is the TFIM-20 term list through the grouped
// sweep on the layout a plain circuit leaves and the one a QFT plan
// leaves.
func BenchmarkExpPauliGroup(b *testing.B) {
	const n = 20
	for _, layout := range []string{"identity", "bitrev"} {
		b.Run(layout+"/tfim20", func(b *testing.B) {
			s := layoutState(b, n, 2, layout, qmath.NewRNG(20))
			terms := tfimTerms(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.PauliEvaluator().ExpPauliGroup(terms, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
