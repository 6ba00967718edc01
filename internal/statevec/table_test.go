package statevec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"qgear/internal/qmath"
)

// pextRef and pdepRef are the bit-at-a-time forms of gathering a mask's
// bits into a dense index and scattering them back.
func pextRef(x, mask uint64) int {
	out, k := 0, 0
	for ; mask != 0; mask &= mask - 1 {
		if x>>uint(bits.TrailingZeros64(mask))&1 == 1 {
			out |= 1 << uint(k)
		}
		k++
	}
	return out
}

func pdepRef(e int, mask uint64) uint64 {
	var out uint64
	for k := 0; mask != 0; mask &= mask - 1 {
		if e>>uint(k)&1 == 1 {
			out |= 1 << uint(bits.TrailingZeros64(mask))
		}
		k++
	}
	return out
}

// refTable is the table of a group entry by entry: each member's factor
// where its bits say it applies, multiplied in member order.
func refTable(members []TileOp, common, free uint64) []complex128 {
	tab := make([]complex128, 1<<uint(bits.OnesCount64(free)))
	for e := range tab {
		x := pdepRef(e, free) | common
		v := complex(1, 0)
		for i := range members {
			op := &members[i]
			switch op.Kind {
			case TileDiag:
				if m := op.LowMask | op.HighMask; x&m == m {
					v = mulC(v, op.Phase())
				}
			case TileRelPhase:
				a, b := op.AB()
				bit := op.HighMask
				if bit == 0 {
					bit = 1 << op.T
				}
				if x&bit != 0 {
					v = mulC(v, b)
				} else {
					v = mulC(v, a)
				}
			}
		}
		tab[e] = v
	}
	return tab
}

// refApplyTable multiplies amplitude i (absolute index base|i) of the
// common subspace by its entry, one index at a time, in scaleTableGo's
// arithmetic.
func refApplyTable(amps []complex128, base, common, free uint64, tab []complex128) {
	for i := range amps {
		if abs := base | uint64(i); abs&common == common {
			amps[i] = mulC(amps[i], tab[pextRef(abs, free)])
		}
	}
}

// randGroup draws a diagonal group on the bits of mask: 2 to 12
// members, each a one- or two-bit phase (TileDiag) or an rz
// (TileRelPhase), with positions at or above tileBits in HighMask.
func randGroup(rng *qmath.RNG, nbits, tileBits int) []TileOp {
	pos := func() int { return rng.Intn(nbits) }
	split := func(p int) (low, high uint64) {
		if p < tileBits {
			return 1 << uint(p), 0
		}
		return 0, 1 << uint(p)
	}
	hub := pos() // most members share it, as a cr1 ladder does
	members := make([]TileOp, 2+rng.Intn(11))
	for i := range members {
		switch rng.Intn(4) {
		case 0: // rz
			p := pos()
			if p < tileBits {
				members[i] = RelPhaseOp(phaseOf(rng), phaseOf(rng), uint8(p), 0)
			} else {
				members[i] = RelPhaseOp(phaseOf(rng), phaseOf(rng), 0, 1<<uint(p))
			}
		case 1: // a one-bit phase
			l, h := split(pos())
			members[i] = DiagOp(phaseOf(rng), l, h)
		default: // a two-bit phase, mostly on the hub
			a, b := hub, pos()
			if rng.Intn(4) == 0 {
				a = pos()
			}
			l1, h1 := split(a)
			l2, h2 := split(b)
			members[i] = DiagOp(phaseOf(rng), l1|l2, h1|h2)
		}
	}
	return members
}

// TestPhaseTableMatchesPerIndex: a group run as a TileTable header over
// random states, tile widths (a 1-bit tile to the whole shard) and shard
// bases (rank bits above the shard, read from base | tile) equals, bit
// for bit, the per-index product against an entry-by-entry table; the
// full sweep (ApplyPhaseGroup, 1 to 3 workers) equals the tiled form bit
// for bit; and both agree with applying the members one at a time within
// 1e-12. Every other trial seeds special lanes (NaN matching any NaN).
func TestPhaseTableMatchesPerIndex(t *testing.T) {
	rng := qmath.NewRNG(0x7ab1e)
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(11)
		ranks := rng.Intn(3) // rank bits above the shard
		tb := 1 + rng.Intn(n)
		members := randGroup(rng, n+ranks, tb)
		common, free, _ := groupMasks(members)
		if bits.OnesCount64(free) > MaxTableBits {
			continue
		}
		base := uint64(rng.Intn(1<<uint(ranks))) << uint(n)
		amps := randAmps(1<<uint(n), rng)
		special := trial%2 == 1
		if special {
			seedSpecials(amps, rng)
		}
		want := append([]complex128(nil), amps...)
		refApplyTable(want, base, common, free, refTable(members, common, free))
		ctx := fmt.Sprintf("trial %d: %d qubits, %d rank bits (base %#x), tile %d, common %#x, free %#x", trial, n, ranks, base, tb, common, free)

		s := MustNew(n, 1+rng.Intn(3))
		copy(s.AmplitudesRaw(), amps)
		ops := append([]TileOp{TableOp(len(members))}, members...)
		if err := s.ApplyTileRun(tb, base, ops); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		lanesEqual(t, s.AmplitudesRaw(), want, ctx+" (tile run)")
		s.Release()

		if ranks > 0 {
			continue // the full sweep is a whole state's, no rank bits
		}
		for w := 1; w <= 3; w++ {
			// Compiled at the state's width: every position low.
			full := make([]TileOp, len(members))
			for i, op := range members {
				full[i] = op
				if op.Kind == TileDiag {
					full[i].LowMask, full[i].HighMask = op.LowMask|op.HighMask, 0
				} else if op.HighMask != 0 {
					full[i].T, full[i].HighMask = uint8(bits.TrailingZeros64(op.HighMask)), 0
				}
			}
			s := MustNew(n, w)
			copy(s.AmplitudesRaw(), amps)
			if err := s.ApplyPhaseGroup(full); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			lanesEqual(t, s.AmplitudesRaw(), want, fmt.Sprintf("%s (full sweep, %d workers)", ctx, w))
			s.Release()
		}
		if special {
			continue
		}
		chain := append([]complex128(nil), amps...)
		tile := 1 << uint(tb)
		for off := 0; off < len(chain); off += tile {
			run := chain[off : off+tile]
			abs := base | uint64(off)
			for i := range members {
				op := &members[i]
				if op.Kind == TileDiag && abs&op.HighMask == op.HighMask {
					refTileDiag(run, op)
				} else if op.Kind == TileRelPhase {
					refTileRelPhase(run, abs, op)
				}
			}
		}
		for i := range chain {
			if d := chain[i] - want[i]; math.Hypot(real(d), imag(d)) > 1e-12 {
				t.Fatalf("%s: amplitude %d = %v one member at a time, %v as a table", ctx, i, chain[i], want[i])
			}
		}
	}
}

// TestCheckGroupsRefuses: a header must head two or more diagonal
// members inside the run, over at most MaxTableBits free bits, and
// carry no predicate.
func TestCheckGroupsRefuses(t *testing.T) {
	d := func(low uint64) TileOp { return DiagOp(1i, low, 0) }
	wide := []TileOp{TableOp(11)}
	for q := 0; q < 11; q++ {
		wide = append(wide, d(1<<uint(q)))
	}
	pred := TableOp(2)
	pred.HighMask = 1 << 8
	for name, ops := range map[string][]TileOp{
		"one member":        {TableOp(1), d(1)},
		"past the run":      {TableOp(3), d(1), d(2)},
		"non-diagonal":      {TableOp(2), d(1), {Kind: TileMat1}},
		"nested header":     {TableOp(2), d(1), TableOp(1)},
		"11 free bits":      wide,
		"predicated header": {pred, d(1), d(2)},
	} {
		if err := CheckGroups(ops); err == nil {
			t.Errorf("%s: accepted", name)
		}
		s := MustNew(12, 1)
		if err := s.ApplyTileRun(12, 0, ops); err == nil {
			t.Errorf("%s: ApplyTileRun accepted", name)
		}
		s.Release()
	}
	if err := CheckGroups(append([]TileOp{TableOp(10)}, wide[1:11]...)); err != nil {
		t.Errorf("ten one-bit phases: %v", err)
	}
}

// FuzzScaleTable holds scaleTable bit for bit to its Go loop, twice:
// its assembly body (AVX on amd64, called directly) as a primitive over
// arbitrary lane bits (the seeds carry ±0, ±∞ and subnormals) and
// arbitrary (run, period, row, tstep) shapes; and the body the CPU
// probe picked through tableSubspace's enumeration, a tile at a time,
// against the per-index product in the Go loop's arithmetic, over 0 to
// 10 free bits in any stretches, any common mask, bits above the tile
// and rank bits above the shard. A NaN is compared only as a NaN. On
// other GOARCH, and on amd64 without AVX, the enumeration runs the Go
// loop.
func FuzzScaleTable(f *testing.F) {
	specials := make([]byte, 0, 8*len(specialLanes))
	for _, x := range specialLanes {
		specials = binary.LittleEndian.AppendUint64(specials, math.Float64bits(x))
	}
	ordinary := make([]byte, 0, 8*64)
	for i := 0; i < 64; i++ {
		ordinary = binary.LittleEndian.AppendUint64(ordinary, math.Float64bits(float64(i)/8-3.9))
	}
	shapes := [][3]uint16{
		{0x0a03, 0x0004, 0x03ff}, // free bits 0..9: one row per tile
		{0x0a08, 0x0001, 0x03fe}, // common bit 0, the rest free
		{0x0c06, 0x0800, 0x07e0}, // free stretch in the middle, other bits below
		{0x0a05, 0x0000, 0x0155}, // scattered free bits, no common bit
		{0x0b02, 0x0600, 0x0183}, // rank bits common and free
		{0x0401, 0x0000, 0x0000}, // one entry
	}
	for _, shape := range shapes {
		f.Add(ordinary, shape[0], shape[1], shape[2], uint8(3))
		f.Add(append(append([]byte(nil), specials...), ordinary...), shape[0], shape[1], shape[2], uint8(5))
	}
	for _, shape := range shapes { // rows of odd length
		f.Add(ordinary, shape[0], shape[1], shape[2], uint8(0x81))
	}
	f.Add(ordinary, uint16(0x0a08), uint16(0x0001), uint16(0x03ff), uint8(0x81)) // three entries, read once per window
	f.Fuzz(func(t *testing.T, data []byte, geom, commonSel, freeSel uint16, baseSel uint8) {
		if len(data) < 16 {
			return
		}
		next := 0
		lane := func() float64 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[next:]))
			if next += 8; next+8 > len(data) {
				next = 0
			}
			return x
		}
		n := 1 + int(geom&0xf)%10     // shard qubits
		ranks := int(geom>>4&0xf) % 3 // rank bits above the shard
		tb := 1 + int(geom>>8&0xf)%n  // tile width
		all := uint64(1)<<uint(n+ranks) - 1
		common := uint64(commonSel) & all
		free := uint64(freeSel) & all &^ common
		for bits.OnesCount64(free) > MaxTableBits {
			free &= free - 1
		}
		base := uint64(baseSel) % (1 << uint(ranks)) << uint(n)
		amps := make([]complex128, 1<<uint(n))
		for i := range amps {
			amps[i] = complex(lane(), lane())
		}
		tab := make([]complex128, 1<<uint(bits.OnesCount64(free)))
		for i := range tab {
			tab[i] = complex(lane(), lane())
		}

		// The primitive over arbitrary table lanes: rows of one entry to
		// the whole table, and of one entry more than a power of two
		// (the bodies' one-entry tail), windows holding one to four of
		// them.
		v, tl := lanes(append([]complex128(nil), amps...)), lanes(tab)
		entries := 1<<(uint(commonSel)%uint(bits.Len(uint(len(tab))))) | int(baseSel>>7)
		row, run := 2*entries, 2*entries<<(uint(freeSel)%3)
		period := run + 2*int(baseSel%5)
		tstep := 2 * (int(geom>>12) % len(tab))
		if count := (len(v)-run)/period + 1; run <= len(v) && len(tl) >= (count-1)*tstep+row {
			want, got := append([]float64(nil), v...), make([]float64, len(v))
			scaleTableGo(want, tl, run, period, row, tstep)
			for _, body := range asmBodies {
				if !body.ok || body.table == nil {
					continue
				}
				copy(got, v)
				body.table(got, tl, run, period, row, tstep)
				if i, ok := sameLanes(got, want); !ok {
					t.Fatalf("%s scaleTable(run %d, period %d, row %d, tstep %d): lane %d = %#x, Go loop %#x",
						body.name, run, period, row, tstep, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}

		// The enumeration, one tile at a time.
		got, want := append([]complex128(nil), amps...), append([]complex128(nil), amps...)
		for off := 0; off < len(got); off += 1 << uint(tb) {
			applyTileTable(got[off:off+1<<uint(tb)], base|uint64(off), tb, common, free, tab, Support{})
		}
		refApplyTable(want, base, common, free, tab)
		if i, ok := sameLanes(lanes(got), lanes(want)); !ok {
			t.Fatalf("%d qubits, %d rank bits (base %#x), tile %d, common %#x, free %#x: lane %d = %#x, per index %#x",
				n, ranks, base, tb, common, free, i, math.Float64bits(lanes(got)[i]), math.Float64bits(lanes(want)[i]))
		}
	})
}

// TestTileRunPassesOverTableCap: a run whose groups' tables exceed the
// state's scratch cap runs as several passes, each within the cap, and
// leaves the bits one run per group would: every amplitude still meets
// every op in order.
func TestTileRunPassesOverTableCap(t *testing.T) {
	const n, tb = 12, 11 // cap: 2^10 entries, one group of ten free bits
	rng := qmath.NewRNG(0xcab)
	var ops []TileOp
	var runs [][]TileOp // the same ops, a run per group and per mixing op
	for g := 0; g < 3; g++ {
		group := []TileOp{TableOp(10)}
		for q := 0; q < 10; q++ {
			group = append(group, DiagOp(phaseOf(rng), 1<<uint(q), 1<<11))
		}
		mix := TileOp{Kind: TileMat1, T: 10, M: randUnitary2(rng)}
		ops = append(append(ops, group...), mix)
		runs = append(runs, group, []TileOp{mix})
	}
	amps := randAmps(1<<n, rng)
	s, want := MustNew(n, 2), MustNew(n, 2)
	defer s.Release()
	defer want.Release()
	copy(s.AmplitudesRaw(), amps)
	copy(want.AmplitudesRaw(), amps)
	if err := s.ApplyTileRun(tb, 0, ops); err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if err := want.ApplyTileRun(tb, 0, run); err != nil {
			t.Fatal(err)
		}
	}
	bitsEqual(t, s.AmplitudesRaw(), want.AmplitudesRaw(), "three groups over the cap")
	if len(s.tabs) > maxTableEntries(n) {
		t.Errorf("table scratch of %d entries, cap %d", len(s.tabs), maxTableEntries(n))
	}
}
