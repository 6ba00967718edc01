package statevec

import (
	"fmt"
	"math/bits"
)

// Phase tables: a group of consecutive diagonal gates — the cr1 mass of
// a QFT between two Hadamards, a TFIM layer's rz and cp — runs as one
// pass over the state instead of one per gate. Every member multiplies
// amplitudes by a factor chosen by a few index bits, so the product of
// the group is a function of those bits alone:
//
//   - the group's *common* bits are those every member requires to be 1
//     (a cr1 ladder's shared qubit): outside that subspace no member
//     applies and the pass never reads the amplitude;
//   - its *free* bits are the rest of what the members read, at most
//     MaxTableBits of them: a table of 2^free entries holds, for each
//     assignment of the free bits, the product of the members' factors
//     that apply there, in member (program) order.
//
// One expansion (expandTable) builds the table from the members'
// micro-ops, and one enumeration (tableSubspace) walks the common
// subspace in sets of strided windows for the fifth lane primitive,
// scaleTable (lanes.go): one complex multiply per touched amplitude.
// The in-tile form (a TileTable header inside ApplyTileRun) and the
// full sweep (ApplyPhaseGroup, fanned out over the pool) take their
// tables from that one expansion and their windows from that one
// enumeration, and every amplitude's product depends on its entry and
// itself only, so every engine, worker count, tile width and rank count
// is bit-identical to every other. Against multiplying the members in
// one at a time the values agree to rounding (~1e-15 per member), not
// bitwise: the factors are multiplied together before they meet the
// amplitude.

// MaxTableBits caps a diagonal group's free bits: a table of at most
// 2^10 entries, 16 KiB.
const MaxTableBits = 10

// maxTableEntries is the most table entries a state of n qubits holds
// at once: a quarter of its amplitudes, but at least one largest table
// and at most 2^14 entries (256 KiB). A tile run whose groups need more
// takes more than one pass.
func maxTableEntries(n int) int { return 1 << min(max(n-2, MaxTableBits), 14) }

// MaxTableBytes is the most phase-table scratch a state of n qubits
// holds, for a caller pricing a run's memory.
func MaxTableBytes(n int) int64 { return 16 * int64(maxTableEntries(n)) }

// tableScratch returns room for n table entries: the state's table slab,
// taken from the table free list (slab.go) when a group first runs or
// needs more, and held until Release — so the passes of a run, and the
// runs of a plan, take one slab per state, and a warmed run none.
func (s *State) tableScratch(n int) []complex128 {
	if n == 0 {
		return nil
	}
	if len(s.tabs) < n {
		tables.put(s.tabs)
		s.tabs = tables.take(bits.Len(uint(n - 1)))
	}
	return s.tabs[:n]
}

// TableOp returns the TileTable header of a diagonal group whose
// members are the n micro-ops that follow it.
func TableOp(n int) TileOp { return TileOp{Kind: TileTable, LowMask: uint64(n)} }

// Members is a TileTable header's member count.
func (op *TileOp) Members() int { return int(min(op.LowMask, 1<<30)) }

// diagBits returns the absolute bits a diagonal micro-op requires to be
// 1 for its factor to apply (req) and every bit its factor reads (all);
// ok is false for any other op. An rz (TileRelPhase) requires nothing
// and reads its target, low (T) or high (the one bit of HighMask).
func diagBits(op *TileOp) (req, all uint64, ok bool) {
	switch op.Kind {
	case TileDiag:
		m := op.LowMask | op.HighMask
		return m, m, true
	case TileRelPhase:
		if op.HighMask == 0 {
			return 0, 1 << op.T, op.T < 64
		}
		return 0, op.HighMask, op.HighMask&(op.HighMask-1) == 0
	}
	return 0, 0, false
}

// groupMasks returns a diagonal group's common and free bits, or ok
// false when a member is not a diagonal micro-op.
func groupMasks(members []TileOp) (common, free uint64, ok bool) {
	common = ^uint64(0)
	var union uint64
	for i := range members {
		req, all, ok := diagBits(&members[i])
		if !ok {
			return 0, 0, false
		}
		common &= req
		union |= all
	}
	return common, union &^ common, len(members) > 0
}

// CheckGroups checks every TileTable header of a run: no predicate, at
// least two members, all of them diagonal micro-ops inside the run, at
// most MaxTableBits free bits.
func CheckGroups(ops []TileOp) error {
	for i := range ops {
		if ops[i].Kind != TileTable {
			continue
		}
		n := ops[i].Members()
		if ops[i].HighMask != 0 {
			return fmt.Errorf("statevec: tile op %d is a group header with a predicate", i)
		}
		if n < 2 || n > len(ops)-i-1 {
			return fmt.Errorf("statevec: tile op %d heads %d members, %d ops follow it", i, n, len(ops)-i-1)
		}
		_, free, ok := groupMasks(ops[i+1 : i+1+n])
		if !ok {
			return fmt.Errorf("statevec: tile op %d heads a member that is not a diagonal micro-op", i)
		}
		if f := bits.OnesCount64(free); f > MaxTableBits {
			return fmt.Errorf("statevec: tile op %d heads a group of %d free bits, over %d", i, f, MaxTableBits)
		}
	}
	return nil
}

// gather compacts the bits of a mask into a dense index — the PEXT
// instruction, which GOAMD64=v1 does not have — as one shift and mask
// per stretch of consecutive mask bits.
type gather struct {
	n             int
	pos, wid, dst [64]uint8
}

func newGather(mask uint64) (g gather) {
	d := 0
	for mask != 0 {
		s := bits.TrailingZeros64(mask)
		w := bits.TrailingZeros64(^(mask >> uint(s)))
		g.pos[g.n], g.wid[g.n], g.dst[g.n] = uint8(s), uint8(w), uint8(d)
		g.n++
		d += w
		mask &^= (uint64(1)<<uint(w) - 1) << uint(s)
	}
	return g
}

// of returns x's mask bits, packed from bit 0 in ascending order.
func (g *gather) of(x uint64) int {
	var out uint64
	for i := 0; i < g.n; i++ {
		out |= (x >> g.pos[i] & (uint64(1)<<g.wid[i] - 1)) << g.dst[i]
	}
	return int(out)
}

// mulC is the complex product x·y in the lane kernels' explicit form.
func mulC(x, y complex128) complex128 {
	xr, xi, yr, yi := real(x), imag(x), real(y), imag(y)
	return complex(float64(xr*yr)-float64(xi*yi), float64(xr*yi)+float64(xi*yr))
}

// expandTable writes a diagonal group's table into tab (2^free
// entries): entry e is the product, in member order, of the factors
// that apply where the free bits read e (gathered in ascending order)
// and every common bit is 1 — a TileDiag's phase where its free bits
// are all set, a TileRelPhase's A or B by its bit.
func expandTable(tab []complex128, members []TileOp, free uint64) {
	g := newGather(free)
	for e := range tab {
		tab[e] = 1
	}
	for i := range members {
		op := &members[i]
		req, all, _ := diagBits(op)
		if op.Kind == TileRelPhase {
			a, b := op.AB()
			bit := g.of(all)
			for e := range tab {
				if e&bit == 0 {
					tab[e] = mulC(tab[e], a)
				} else {
					tab[e] = mulC(tab[e], b)
				}
			}
			continue
		}
		f := op.Phase()
		need := g.of(req & free)
		rest := (len(tab) - 1) &^ need
		for sub := 0; ; {
			tab[need|sub] = mulC(tab[need|sub], f)
			if sub = (sub - rest) & rest; sub == 0 {
				break
			}
		}
	}
}

// applyTileTable multiplies a tile (abs its absolute base index) by a
// group's table: nothing when a common bit above the tile is 0, else
// the tile's row — the entries its free bits above the tile select,
// rank bits included — over the in-tile common subspace inside sp, the
// tile's support.
func applyTileTable(tile []complex128, abs uint64, tileBits int, common, free uint64, tab []complex128, sp Support) {
	low := uint64(1)<<uint(tileBits) - 1
	if hc := common &^ low; abs&hc != hc {
		return
	}
	fixed, val, ok := sp.narrow(common&low, common&low, 0)
	if !ok {
		return
	}
	hf := newGather(free &^ low)
	nl := bits.OnesCount64(free & low)
	row := hf.of(abs) << uint(nl)
	tableSubspace(lanes(tile), tab[row:row+1<<uint(nl)], fixed, val, free&low, 0, len(tile)>>bits.OnesCount64(fixed))
}

// ApplyPhaseGroup applies a diagonal group — micro-ops compiled with
// every position absolute, as kernel lowers a per-gate plan's group — as
// one pass over the state: one table, expanded into the state's table
// scratch, and the common subspace fanned out over the pool.
func (s *State) ApplyPhaseGroup(members []TileOp) error {
	s.ensureCanonical()
	common, free, ok := groupMasks(members)
	switch {
	case !ok:
		return fmt.Errorf("statevec: phase group of %d ops has a member that is not a diagonal micro-op", len(members))
	case (common|free)>>uint(s.n) != 0:
		return fmt.Errorf("statevec: phase group reads bits %#x of a %d-qubit state", common|free, s.n)
	case bits.OnesCount64(free) > MaxTableBits:
		return fmt.Errorf("statevec: phase group of %d free bits, over %d", bits.OnesCount64(free), MaxTableBits)
	}
	fixed, val, ok := s.sup.narrow(common, common, 0)
	if !ok {
		return nil // a common bit is known to be 0: no member applies inside the support
	}
	tab := s.tableScratch(1 << bits.OnesCount64(free))
	expandTable(tab, members, free)
	v := lanes(s.amps)
	m := len(s.amps) >> bits.OnesCount64(fixed)
	if s.serial(m) {
		tableSubspace(v, tab, fixed, val, free, 0, m)
		return nil
	}
	ParallelFor(m, s.workers, func(lo, hi int) { tableSubspace(v, tab, fixed, val, free, lo, hi) })
	return nil
}

// tableSubspace multiplies members [lo, hi) of the subspace of v whose
// fixed bits equal val by the entries of tab: amplitude i takes entry
// i's free bits, gathered — a free bit that is also fixed (a bit the
// support knows) reads its one value. It is subspaceSets' enumeration
// with the table index riding along: in each cube the varying free bits
// from bit 0 make a row (scaleTable multiplies a window by it element by
// element, no per-amplitude index), the other bits below the first fixed
// or free bit lengthen the window that repeats it, one stretch of bits
// of one kind — free, advancing the row, or other, repeating it — makes
// the stride, and every remaining bit is enumerated, one set each.
func tableSubspace(v []float64, tab []complex128, fixed, val, free uint64, lo, hi int) {
	const strideBits = 4 // as in subspaceSets
	ix := newGather(free)
	t := lanes(tab)
	vfree := free &^ fixed // the free bits the members vary
	for p := lo; p < hi; {
		k := bits.Len(uint(hi-p)) - 1
		if tz := bits.TrailingZeros(uint(p)); tz < k {
			k = tz
		}
		base, w := uint64(p), k
		for f := fixed; f != 0; f &= f - 1 {
			pos := bits.TrailingZeros64(f)
			base = insertBit(base, uint(pos), val>>uint(pos)&1)
			if pos < w {
				w++
			}
		}
		cube := uint64(1)<<uint(w) - 1
		base = base&^cube | val&fixed&cube
		l := bits.TrailingZeros64(^(vfree & cube))
		r0 := min(bits.TrailingZeros64((fixed|vfree)&cube&^(uint64(1)<<uint(l)-1)), w)
		vary := cube &^ fixed &^ (uint64(1)<<uint(r0) - 1)
		g, glen := 0, 0
		for f := vary; f != 0; {
			s := bits.TrailingZeros64(f)
			kind := vfree >> uint(s)
			if kind&1 == 0 {
				kind = ^kind
			}
			n := bits.TrailingZeros64(^(f >> uint(s) & kind)) // bits of one kind from s
			if n > glen {
				g, glen = s, n
			}
			if n >= strideBits {
				break
			}
			f &^= (uint64(1)<<uint(n) - 1) << uint(s)
		}
		stride := (uint64(1)<<uint(glen) - 1) << uint(g)
		tstep := 0
		if vfree&stride != 0 {
			tstep = 1 << bits.OnesCount64(free&(uint64(1)<<uint(g)-1))
		}
		outer := vary &^ stride
		run, period, count, row := 1<<uint(r0), 1<<uint(g), 1<<uint(glen), 1<<uint(l)
		for sub := uint64(0); ; {
			off := int(base | sub)
			ti := ix.of(base | sub)
			end, tend := off+(count-1)*period+run, ti+(count-1)*tstep+row
			scaleTable(v[2*off:2*end], t[2*ti:2*tend], 2*run, 2*period, 2*row, 2*tstep)
			if sub = (sub - outer) & outer; sub == 0 {
				break
			}
		}
		p += 1 << uint(k)
	}
}
