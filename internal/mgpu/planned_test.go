package mgpu

import (
	"fmt"
	"math"
	mbits "math/bits"
	"slices"
	"sync/atomic"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/mpi"
	"qgear/internal/oracle"
	"qgear/internal/qcrank"
	"qgear/internal/qft"
	"qgear/internal/qmath"
	"qgear/internal/sampling"
	"qgear/internal/statevec"
)

// The planned-mgpu equivalence suite: distributed execution of a
// compiled TilePlan must be bit-identical (max |Δp| = 0, fixed-seed
// shot counts exactly equal) to the single-device per-gate engine —
// kernel.Execute on one statevec.State, an engine that knows nothing of
// ranks — across rank counts × shard shapes, with the exchange count of every case pinned. oracle_test.go holds both to a naive reference.

func log2ranks(r int) int {
	g := 0
	for 1<<uint(g) < r {
		g++
	}
	return g
}

func maxDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func sameCounts(a, b sampling.Counts) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestPlannedGateSoupEquivalence(t *testing.T) {
	const shots = 2048
	seed := uint64(0xd15712b)
	for _, tc := range []struct {
		n, ranks, tileBits int
		exchanges          int   // pinned: what this plan pays on this world
		bytes              int64 // pinned: the halves no record proves zero
	}{
		{6, 2, 3, 16, 3840},   // 1 rank bit
		{6, 4, 2, 56, 6528},   // 2 rank bits, 4-amp tiles
		{6, 8, 2, 184, 9664},  // 3 rank bits, shard of 3 qubits
		{8, 4, 3, 72, 31232},  // roomier shard
		{9, 8, 3, 152, 61952}, // deep rank boundary
		{2, 2, 3, 68, 1072},   // 1-qubit shards: the shard is one tile
		{3, 4, 3, 176, 2608},
		{4, 8, 3, 328, 4512},
		{5, 16, 3, 704, 9584},
	} {
		rng := qmath.NewRNG(seed + uint64(tc.n*1000+tc.ranks*100+tc.tileBits*10))
		c := oracle.Soup(tc.n, 140, rng)
		gbits := log2ranks(tc.ranks)
		k, _, err := kernel.FromCircuit(c, kernel.Options{})
		if err != nil {
			t.Fatalf("n=%d: transform: %v", tc.n, err)
		}
		want := singleDeviceProbs(t, k)

		plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: tc.tileBits, GlobalBits: gbits})
		if err != nil {
			t.Fatalf("ranks=%d: plan: %v", tc.ranks, err)
		}
		planned, err := SimulateCompiled(k, plan, tc.ranks, 1)
		if err != nil {
			t.Fatalf("ranks=%d: planned: %v", tc.ranks, err)
		}

		if d := maxDiff(planned.Probabilities, want); d != 0 {
			// The plan performs the per-gate arithmetic exactly; any
			// nonzero drift is a compiler bug.
			t.Errorf("n=%d ranks=%d tile=%d: planned vs single-device diff %g, want exact 0",
				tc.n, tc.ranks, tc.tileBits, d)
		}
		if math.Abs(norm(planned.Probabilities)-1) > 1e-9 {
			t.Errorf("n=%d ranks=%d: planned norm %g", tc.n, tc.ranks, norm(planned.Probabilities))
		}
		// The single-device reference is a plan on the same kernels; the
		// oracle is neither.
		ref := oracle.Run(c).Probabilities()
		if d := maxDiff(want, ref); d > 1e-12 {
			t.Errorf("n=%d: single-device vs oracle diff %g > 1e-12", tc.n, d)
		}
		if d := maxDiff(planned.Probabilities, ref); d > 1e-12 {
			t.Errorf("n=%d ranks=%d tile=%d: planned vs oracle diff %g > 1e-12",
				tc.n, tc.ranks, tc.tileBits, d)
		}
		// Every rank takes part in every swap across the rank boundary,
		// each a half-shard exchange that ships its half unless the
		// shard's record proves it zero; nothing else communicates.
		if planned.Exchanges != tc.exchanges || planned.Exchanges != tc.ranks*plan.Stats.ExchangeSegs || plan.Stats.ExchangeGates != 0 {
			t.Errorf("n=%d ranks=%d tile=%d: %d exchanges, pinned %d = ranks × %d swaps across ranks",
				tc.n, tc.ranks, tc.tileBits, planned.Exchanges, tc.exchanges, plan.Stats.ExchangeSegs)
		}
		if live, unproven := halfBytes(t, plan); planned.BytesSent != tc.bytes || planned.BytesSent < live || planned.BytesSent > unproven {
			t.Errorf("n=%d ranks=%d tile=%d: %d bytes sent, pinned %d; the live halves are %d bytes, the halves one device's support leaves %d",
				tc.n, tc.ranks, tc.tileBits, planned.BytesSent, tc.bytes, live, unproven)
		}
		// Exact fixed-seed shot counts from both distributions.
		cRef, err := sampling.Sample(want, shots, qmath.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		cPlanned, err := sampling.Sample(planned.Probabilities, shots, qmath.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !sameCounts(cRef, cPlanned) {
			t.Errorf("n=%d ranks=%d: fixed-seed shot counts differ between planned and single-device", tc.n, tc.ranks)
		}
	}

	// The UCRy leg: QCrank's multiplexed-ry shape, Gray-code chains of
	// ry and cx on one target, whose pairs a tile run takes in one pass
	// when the control is inside the tile (statevec's FusesCX). Two
	// chains on 9 qubits, their controls below and above their targets.
	// Qubit 1 is only ever flipped, so the support knows it, and it
	// controls a lone pair on a target the support still knows, and a
	// gate on another qubit follows each chain in its run: the pair must
	// step the support past both of its gates, or that gate skips half
	// its amplitudes. Rank bits and bits above the tile turn controls
	// into HighMask predicates, which keep their CXs apart.
	c := circuit.New(9, 0)
	rng := qmath.NewRNG(seed)
	for _, q := range []int{0, 2, 5, 7, 8} {
		c.H(q)
	}
	c.X(1)
	for _, chain := range []struct {
		target int
		ctrls  []int
	}{{4, []int{1}}, {3, []int{1, 0, 5, 7}}, {6, []int{8, 2, 0}}} {
		for i := 0; i < 1<<len(chain.ctrls); i++ {
			c.RY(rng.Angle(), chain.target)
			c.CX(chain.ctrls[min(mbits.TrailingZeros(uint(i+1)), len(chain.ctrls)-1)], chain.target)
		}
		c.RY(rng.Angle(), 2)
	}
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := singleDeviceProbs(t, k)
	cRef, err := sampling.Sample(want, shots, qmath.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		plan := planFor(t, k, ranks, 3)
		fused := 0
		for _, seg := range plan.Segments {
			if seg.Kind == kernel.SegRun {
				run := plan.Ops[seg.Lo:seg.Hi]
				for i := 1; i < len(run); i++ {
					if run[i-1].FusesCX(&run[i]) {
						fused++
					}
				}
			}
		}
		if fused == 0 {
			t.Errorf("ucry ranks=%d: no ry and cx of the plan run as one pass", ranks)
		}
		planned, err := SimulateCompiled(k, plan, ranks, 1)
		if err != nil {
			t.Fatalf("ucry ranks=%d: %v", ranks, err)
		}
		if d := maxDiff(planned.Probabilities, want); d != 0 {
			t.Errorf("ucry ranks=%d (%d pairs in one pass): planned vs per-gate diff %g, want exact 0", ranks, fused, d)
		}
		cPlanned, err := sampling.Sample(planned.Probabilities, shots, qmath.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !sameCounts(cRef, cPlanned) {
			t.Errorf("ucry ranks=%d: fixed-seed shot counts differ between planned and per-gate", ranks)
		}
	}
}

// halfBytes replays p on one full state, from |0…0⟩, and brackets the
// bytes its rank exchanges ship when a half known to be zero stays
// home. A swap across the rank boundary ships, for each rank, the
// amplitudes of its shard where the two swapped bits differ: half a
// shard, 8·2^local bytes. live counts the halves holding a non-zero
// amplitude, which every exchange must ship; unproven those the full
// state's support does not prove zero. A shard's record knows at least
// that much (it resolves rank-bit controls against its own rank, which
// the full state does not), and no record knows every zero (a y gate
// moves amplitudes as an x does, and the support forgets its target),
// so live ≤ sent ≤ unproven, and the exact count is pinned per case.
func halfBytes(t testing.TB, p *kernel.TilePlan) (live, unproven int64) {
	t.Helper()
	s := statevec.MustNew(p.NumQubits, 1)
	defer s.Release()
	local := uint(p.NumQubits - p.GlobalBits)
	for i, seg := range p.Segments {
		var err error
		switch a, b := uint(min(seg.A, seg.B)), uint(max(seg.A, seg.B)); seg.Kind {
		case kernel.SegRun:
			err = s.ApplyTileRun(p.TileBits, 0, p.Ops[seg.Lo:seg.Hi])
		case kernel.SegBitSwap:
			sp := s.Support()
			for r := uint64(0); b >= local && r < 1<<uint(p.GlobalBits); r++ {
				// The half's index bits: the rank's above the shard, and
				// bit a the opposite of the rank's bit b.
				half := r<<local | (r>>(b-local)&1^1)<<a
				if (half^sp.Val)&sp.Mask&(^uint64(0)<<local|1<<a) == 0 {
					unproven++
				}
				for j := r << local; j < (r+1)<<local; j++ {
					if (j>>a^j>>b)&1 == 1 && s.Amp(j) != 0 {
						live++
						break
					}
				}
			}
			s.ApplySwap(int(a), int(b))
		case kernel.SegGlobal:
			err = p.ApplyGlobal(s, seg)
		}
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
	}
	return live * 8 << local, unproven * 8 << local
}

// TestExchangeKeepsSupport runs basis-prefixed soups on 2 to 16 ranks
// segment by segment and, after every swap across the rank boundary,
// holds each shard to its support record: every amplitude outside it
// is exactly +0, and a shard recorded as all zero is all zero. The
// prefixes put flips and known controls on rank bits too, so records
// reach every case of exchangedSupport; the test fails if some case
// (both halves live, one zero, both zero) never happened.
func TestExchangeKeepsSupport(t *testing.T) {
	rng := qmath.NewRNG(0x5ab0)
	var cases [4]atomic.Int64 // after an exchange: all zero, bit l known, live without it, and checks made
	for trial := 0; trial < 48; trial++ {
		ranks := 2 << uint(trial%4)
		gbits := log2ranks(ranks)
		n := gbits + 1 + rng.Intn(6)
		c := oracle.BasisSoup(n, 4+rng.Intn(60), rng.Uint64(), rng)
		k, _, err := kernel.FromCircuit(c, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plan := planFor(t, k, ranks, 1+rng.Intn(n-gbits))
		err = mpi.Run(ranks, func(comm *mpi.Comm) error {
			d, err := NewDist(comm, n, 1)
			if err != nil {
				return err
			}
			defer d.Release()
			// A rank that stopped early would strand its partner in the
			// next exchange: every rank runs the whole plan and reports
			// its first mismatch at the end.
			var bad error
			for i, seg := range plan.Segments {
				if err := d.runSegment(plan, seg); err != nil {
					return err
				}
				l := uint(min(seg.A, seg.B))
				if seg.Kind != kernel.SegBitSwap || int(max(seg.A, seg.B)) < d.local {
					continue
				}
				sp := d.st.Support()
				for j := uint64(0); j < uint64(d.st.Len()) && bad == nil; j++ {
					a := d.st.Amp(j)
					if (sp.Zero || (j^sp.Val)&sp.Mask != 0) && math.Float64bits(real(a))|math.Float64bits(imag(a)) != 0 {
						bad = fmt.Errorf("segment %d: amplitude %d is %v outside the record %+v", i, j, a, sp)
					}
				}
				switch {
				case sp.Zero:
					cases[0].Add(1)
				case sp.Mask>>l&1 == 1:
					cases[1].Add(1)
				default:
					cases[2].Add(1)
				}
				cases[3].Add(1)
			}
			return bad
		})
		if err != nil {
			t.Fatalf("trial %d (n=%d ranks=%d): %v", trial, n, ranks, err)
		}
	}
	t.Logf("records after %d exchanges: %d all zero, %d with the swapped bit known, %d with it unknown",
		cases[3].Load(), cases[0].Load(), cases[1].Load(), cases[2].Load())
	if cases[0].Load() == 0 || cases[1].Load() == 0 || cases[2].Load() == 0 {
		t.Errorf("records after %d exchanges: %d all zero, %d with the swapped bit known, %d with it unknown; want each case",
			cases[3].Load(), cases[0].Load(), cases[1].Load(), cases[2].Load())
	}
}

// rankBitsMoved counts the rank positions a plan's bit-swaps cross.
func rankBitsMoved(p *kernel.TilePlan) int {
	local := int32(p.NumQubits - p.GlobalBits)
	moved := map[int32]bool{}
	for _, seg := range p.Segments {
		if hi := max(seg.A, seg.B); seg.Kind == kernel.SegBitSwap && hi >= local {
			moved[hi] = true
		}
	}
	return len(moved)
}

// runRelabeled plans c for ranks devices, runs it, and holds the run to
// the relabeling contract: probabilities exactly the single device's
// and within 1e-12 of the oracle; no gate outside the lane kernels;
// every rank in each swap across the rank boundary, and at most two
// such swaps — in and back — per rank bit moved; and no more bytes on
// the wire than maxBytes, what the engine that batched rank-bit gates
// into exchange segments shipped for the same circuit.
func runRelabeled(t *testing.T, name string, c *circuit.Circuit, ranks, tileBits int, maxBytes int64) (*kernel.TilePlan, *Result) {
	t.Helper()
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := planFor(t, k, ranks, tileBits)
	res, err := SimulateCompiled(k, plan, ranks, 1)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if d := maxDiff(res.Probabilities, singleDeviceProbs(t, k)); d != 0 {
		t.Errorf("%s: distributed vs single-device diff %g, want exact 0", name, d)
	}
	if d := maxDiff(res.Probabilities, oracle.Run(c).Probabilities()); d > 1e-12 {
		t.Errorf("%s: distributed vs oracle diff %g > 1e-12", name, d)
	}
	st, moved := plan.Stats, rankBitsMoved(plan)
	if st.ExchangeGates != 0 || res.Exchanges != ranks*st.ExchangeSegs || res.Exchanges > 2*moved*ranks {
		t.Errorf("%s: %d exchanges on %d ranks for %d swaps across %d rank bits, %d exchange gates; want one per rank per swap, at most %d",
			name, res.Exchanges, ranks, st.ExchangeSegs, moved, st.ExchangeGates, 2*moved*ranks)
	}
	if res.BytesSent > maxBytes {
		t.Errorf("%s: %d bytes sent, the exchange-segment engine sent %d", name, res.BytesSent, maxBytes)
	}
	return plan, res
}

// TestPlannedExchangeBatching pins the headline distributed win: a
// QCrank-shaped Ry/CX ladder whose data qubit sits on a rank bit costs
// one swap of that bit into the tile and one back — two half-shard
// exchanges per rank for the whole ladder, which then runs tile-local.
func TestPlannedExchangeBatching(t *testing.T) {
	const n, ranks, ladder = 6, 4, 16
	data := n - 1 // top qubit: a rank bit at 4 ranks
	c := circuit.New(n, 0)
	for q := 0; q < 4; q++ {
		c.H(q)
	}
	rng := qmath.NewRNG(11)
	for i := 0; i < ladder; i++ {
		c.RY(rng.Angle(), data)
		c.CX(i%4, data)
	}
	plan, res := runRelabeled(t, "ladder", c, ranks, 2, 1024)
	if st := plan.Stats; st.ExchangeSegs != 2 || st.BitSwaps != 2 || st.TileLocal != 2*ladder+2 {
		t.Errorf("plan %+v: want the ladder tile-local after one swap in and one back", st)
	}
	if res.Exchanges != 2*ranks {
		t.Errorf("exchanges = %d, want %d", res.Exchanges, 2*ranks)
	}
}

// TestPlannedQCrankExchanges checks the relabeling win on a real
// qcrank.Encode circuit (6 address + 10 data qubits, 4 ranks): the two
// data qubits on rank bits are each swapped into the tile once and back
// once, so thousands of rank-bit gates cost sixteen half-shard
// exchanges — the bytes of the eight full-shard ones exchange segments
// paid — and the gathered probabilities are bit-identical to the
// single-device per-gate engine's.
func TestPlannedQCrankExchanges(t *testing.T) {
	const addr, pixels, tileBits, ranks = 6, 640, 10, 4
	cplan, err := qcrank.NewPlan(pixels, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := qmath.NewRNG(2026)
	values := make([]float64, pixels)
	for i := range values {
		values[i] = 2*rng.Float64() - 1
	}
	c, err := qcrank.Encode(values, cplan, false)
	if err != nil {
		t.Fatal(err)
	}
	plan, res := runRelabeled(t, "qcrank", c, ranks, tileBits, 2097152)
	if st := plan.Stats; st.ExchangeSegs != 4 || st.Global != 0 {
		t.Errorf("plan %+v: want two rank bits swapped in and back, no sweep", st)
	}
	if res.Exchanges != 4*ranks {
		t.Errorf("exchanges = %d, want %d", res.Exchanges, 4*ranks)
	}
}

// TestDiagonalRankLocalNoExchange pins the placement rule: diagonal and
// phase gates whose operands sit on rank bits compile into predicates
// each rank resolves against its own index — they add no exchange to
// what the mixing gates pay.
func TestDiagonalRankLocalNoExchange(t *testing.T) {
	const n, ranks = 6, 4
	mixing := circuit.New(n, 0)
	for q := 0; q < n; q++ {
		mixing.H(q) // the two rank-bit H's are swapped into the tile and back
	}
	c := circuit.New(n, 0)
	c.Ops = append(c.Ops, mixing.Ops...)
	c.RZ(0.3, n-1)        // rank-bit rz
	c.Z(n - 2)            // rank-bit z
	c.CP(0.7, 0, n-1)     // local ctrl, rank-bit target
	c.CZ(n-1, n-2)        // both rank bits
	c.CP(0.9, n-1, 1)     // rank-bit ctrl, local target
	c.S(n - 1).T(n - 2)   // more rank-bit phases
	c.RZ(0.2, 0).CZ(0, 1) // local diagonals
	plan, res := runRelabeled(t, "diagonals", c, ranks, 2, 2048)
	refPlan, ref := runRelabeled(t, "h layer", mixing, ranks, 2, 2048)
	if res.Exchanges != ref.Exchanges || plan.Stats.Global != refPlan.Stats.Global {
		t.Errorf("with diagonals: %d exchanges, %d sweeps; the h layer alone: %d, %d", res.Exchanges, plan.Stats.Global, ref.Exchanges, refPlan.Stats.Global)
	}
	// The qubits the h's evicted now sit on rank positions: the
	// diagonals on them are rank-bit predicates.
	if plan.Stats.RankLocal == 0 {
		t.Errorf("RankLocal = 0, want the diagonals on evicted qubits resolved per rank")
	}
}

// TestPlannedCrossBoundarySwap: a SWAP with a rank-bit operand is a free
// table update like any other; the data moves once, when the plan hands
// the rank position back at the end.
func TestPlannedCrossBoundarySwap(t *testing.T) {
	const n, ranks = 6, 4
	c := circuit.New(n, 0)
	for q := 0; q < 4; q++ {
		c.H(q)
	}
	c.RY(0.3, 0).CX(0, 1)
	c.SWAP(0, n-1) // crosses the boundary
	c.SWAP(1, 2)   // stays local
	c.RY(0.7, n-1).CP(0.4, 0, 1).CX(0, 3)
	plan, res := runRelabeled(t, "cross-boundary swap", c, ranks, 2, 2048)
	if st := plan.Stats; st.PermSwaps != 2 || st.ExchangeSegs != 1 {
		t.Errorf("plan %+v: want both swaps absorbed and one swap across ranks, at the end", st)
	}
	if res.Exchanges != ranks {
		t.Errorf("exchanges = %d, want %d", res.Exchanges, ranks)
	}
}

// TestRankBitRelabelCases pins the shapes only distributed plans have,
// each held to the relabeling contract.
func TestRankBitRelabelCases(t *testing.T) {
	for _, tc := range []struct {
		name           string
		n, ranks, tile int
		build          func(c *circuit.Circuit)
		maxBytes       int64
		check          func(p *kernel.TilePlan) bool
		want           string
	}{{
		// The tile is the control's one slot: the control goes to the
		// rank position and becomes a predicate there.
		name: "rank target, local control, 1-qubit shards", n: 3, ranks: 4, tile: 1, maxBytes: 256,
		build: func(c *circuit.Circuit) { c.H(0).CX(0, 2).CX(0, 1) },
		check: func(p *kernel.TilePlan) bool {
			swap := slices.IndexFunc(p.Segments, func(seg kernel.Segment) bool { return seg.Kind == kernel.SegBitSwap })
			return p.Segments[swap] == kernel.Segment{Kind: kernel.SegBitSwap, A: 0, B: 2} && p.Stats.RankLocal > 0 && p.Stats.Global == 0
		},
		want: "the first swap evicts the control to rank position 2",
	}, {
		// q0 is parked on a rank position by a free SWAP; the CX's high
		// target, mixed once, still comes into the tile (a local swap)
		// rather than sweep under a rank-bit control.
		name: "rank control, single-use high target", n: 5, ranks: 2, tile: 2, maxBytes: 1024,
		build: func(c *circuit.Circuit) { c.H(0).H(1).SWAP(0, 4).CX(0, 3) },
		check: func(p *kernel.TilePlan) bool {
			return p.Stats.Global == 0 && p.Stats.BitSwaps == p.Stats.ExchangeSegs+1 && p.Stats.RankLocal == 1
		},
		want: "one local relabel, no sweep",
	}, {
		// Three SWAPs with rank operands move no data; the rank positions
		// are handed back at the end, one swap each.
		name: "rank-bit swaps", n: 5, ranks: 4, tile: 2, maxBytes: 4608,
		build: func(c *circuit.Circuit) {
			c.H(0).H(1).RY(0.3, 0).SWAP(0, 3).SWAP(1, 4).SWAP(3, 4).CP(0.5, 0, 1).RY(0.2, 4)
		},
		check: func(p *kernel.TilePlan) bool {
			return p.Stats.PermSwaps == 3 && p.Stats.ExchangeSegs == 2 && p.Stats.BitSwaps == 2 && p.Stats.Global == 0
		},
		want: "every swap absorbed, two swaps across ranks at the end",
	}, {
		// Free SWAPs park two |+⟩ qubits on both rank positions: the
		// target comes into the tile, the control stays a predicate.
		name: "cry with both operands on rank bits", n: 5, ranks: 4, tile: 2, maxBytes: 2304,
		build: func(c *circuit.Circuit) {
			c.H(0).H(1).H(2).SWAP(0, 3).SWAP(1, 4).CRY(0.9, 0, 1).RY(0.4, 2).CRY(0.6, 3, 4)
		},
		check: func(p *kernel.TilePlan) bool { return p.Stats.RankLocal > 0 && p.Stats.Global == 0 },
		want:  "the cry compiled to a predicated tile op",
	}} {
		c := circuit.New(tc.n, 0)
		tc.build(c)
		if plan, _ := runRelabeled(t, tc.name, c, tc.ranks, tc.tile, tc.maxBytes); !tc.check(plan) {
			t.Errorf("%s: plan %+v %v: want %s", tc.name, plan.Stats, plan.Segments, tc.want)
		}
	}
}

// TestExecutePlanGeometryChecks ensures a plan compiled for one rank
// geometry cannot run on another.
func TestExecutePlanGeometryChecks(t *testing.T) {
	k := kernel.New("k", 6).H(0).H(5)
	plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: 2, GlobalBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Executing a 2-rank plan on a 4-rank world must fail on every rank.
	_, err = SimulateCompiled(k, plan, 4, 1)
	if err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// BenchmarkExecutePlanQCrank is the benchmark's qcrank_mgpu engine
// call — an a9_d6 image encoding (15 qubits) on two ranks — and
// TestPlannedQCrankExchanges' a6 / 640-pixel shape (16 qubits) on four,
// each next to its single-device counterpart: the same circuit planned
// at the same tile width on one state with as many workers as the world
// has ranks. The ratio of the two is the distributed engine's overhead.
// Plans are compiled once outside the loop, so what is left is the
// shards, the exchange buffers and the returned vector.
func BenchmarkExecutePlanQCrank(b *testing.B) {
	for _, tc := range []struct {
		name                          string
		addr, pixels, ranks, tileBits int
	}{
		{"a9_d6", 9, 6 << 9, 2, 16},
		{"a6_p640", 6, 640, 4, 10},
	} {
		cplan, err := qcrank.NewPlan(tc.pixels, tc.addr, 1)
		if err != nil {
			b.Fatal(err)
		}
		rng := qmath.NewRNG(2026)
		values := make([]float64, tc.pixels)
		for i := range values {
			values[i] = 2*rng.Float64() - 1
		}
		c, err := qcrank.Encode(values, cplan, true)
		if err != nil {
			b.Fatal(err)
		}
		k, _, err := kernel.FromCircuit(c, kernel.Options{})
		if err != nil {
			b.Fatal(err)
		}
		dist := planFor(b, k, tc.ranks, tc.tileBits)
		for _, ranks := range []int{tc.ranks, 1} {
			plan := dist
			if ranks == 1 {
				plan = planFor(b, k, 1, dist.TileBits)
			}
			b.Run(fmt.Sprintf("%s/ranks=%d", tc.name, ranks), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if ranks == 1 {
						s := statevec.MustNew(k.NumQubits, tc.ranks)
						if err := plan.Execute(s); err != nil {
							b.Fatal(err)
						}
						s.Probabilities()
						s.Release()
					} else if _, err := SimulateCompiled(k, plan, ranks, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestGroupedPlansMatchPerGate: on circuits full of diagonal groups — a
// QFT's cr1 ladders, TFIM's rz layers and cp ladders, a diagonal-heavy
// soup with SWAPs — every world from 1 to 16 ranks at 1 to 3 workers
// per rank reads out the probabilities of the per-gate plan on one
// device bit for bit: a group's table has the same entries on every
// rank, and its free bits on rank positions are read from the shard
// base.
func TestGroupedPlansMatchPerGate(t *testing.T) {
	const n = 9
	qftC, err := qft.Circuit(n, true)
	if err != nil {
		t.Fatal(err)
	}
	tfim := circuit.New(n, 0)
	for s := 0; s < 2; s++ {
		for q := 0; q < n; q++ {
			tfim.RX(0.3+0.01*float64(q), q)
		}
		for q := 0; q < n; q++ {
			tfim.RZ(0.7-0.02*float64(q), q)
		}
		for q := 0; q+1 < n; q++ {
			tfim.CP(0.4+0.03*float64(q), q, q+1)
		}
	}
	rng := qmath.NewRNG(0xd1a6)
	soup := circuit.New(n, 0)
	for i := 0; i < 200; i++ {
		q0, q1 := rng.Intn(n), rng.Intn(n-1)
		if q1 >= q0 {
			q1++
		}
		switch r := rng.Intn(10); {
		case r < 3:
			soup.CP(rng.Angle(), q0, q1)
		case r < 5:
			soup.RZ(rng.Angle(), q0)
		case r < 6:
			soup.Append(gate.T, []int{q0}, nil)
		case r < 7:
			soup.SWAP(q0, q1)
		case r < 8:
			soup.H(q0)
		case r < 9:
			soup.RX(rng.Angle(), q0)
		default:
			soup.CX(q0, q1)
		}
	}
	for ci, c := range []*circuit.Circuit{qftC, tfim, soup} {
		k, _, err := kernel.FromCircuit(c, kernel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := singleDeviceProbs(t, k)
		if d := maxDiff(want, oracle.Run(c).Probabilities()); d > 1e-12 {
			t.Errorf("circuit %d: per-gate vs oracle %g", ci, d)
		}
		for ranks := 1; ranks <= 16; ranks *= 2 {
			for w := 1; w <= 3; w++ {
				plan := planFor(t, k, ranks, min(3, n-log2ranks(ranks)-1))
				res, err := SimulateCompiled(k, plan, ranks, w)
				if err != nil {
					t.Fatal(err)
				}
				if d := maxDiff(res.Probabilities, want); d != 0 {
					t.Errorf("circuit %d, %d ranks, %d workers: %g from the per-gate plan, want 0", ci, ranks, w, d)
				}
			}
		}
	}
}
