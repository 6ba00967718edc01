package mgpu

import (
	"math"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/qcrank"
	"qgear/internal/qmath"
	"qgear/internal/sampling"
)

// The planned-mgpu equivalence suite: distributed execution of a
// compiled TilePlan must be bit-identical (max |Δp| = 0, fixed-seed
// shot counts exactly equal; 1e-12 with FuseRuns, which reassociates)
// to the single-device per-gate engine — kernel.Execute on one
// statevec.State, an engine that knows nothing of ranks — across rank
// counts × shard shapes × fusion settings, with the exchange count of
// every case pinned. oracle_test.go holds both to a naive reference.

// soupPool covers every gate the engines execute, including the
// diagonal family (rank-local when global), SWAP (permutation table
// locally, three-CX across the boundary), and parameterized rotations.
var soupPool = []struct {
	g      gate.Type
	params int
}{
	{gate.H, 0}, {gate.X, 0}, {gate.Y, 0}, {gate.Z, 0},
	{gate.S, 0}, {gate.Sdg, 0}, {gate.T, 0}, {gate.Tdg, 0},
	{gate.RX, 1}, {gate.RY, 1}, {gate.RZ, 1}, {gate.P, 1}, {gate.U3, 3},
	{gate.CX, 0}, {gate.CZ, 0}, {gate.CP, 1}, {gate.CRY, 1}, {gate.SWAP, 0},
}

// gateSoup builds a random circuit over n qubits from the full pool.
func gateSoup(n, gates int, rng *qmath.RNG) *circuit.Circuit {
	c := circuit.New(n, 0)
	c.Name = "soup"
	for i := 0; i < gates; i++ {
		sg := soupPool[rng.Intn(len(soupPool))]
		params := make([]float64, sg.params)
		for j := range params {
			params[j] = rng.Angle() - math.Pi
		}
		q0 := rng.Intn(n)
		if sg.g.Arity() == 2 {
			q1 := rng.Intn(n - 1)
			if q1 >= q0 {
				q1++
			}
			c.Append(sg.g, []int{q0, q1}, params)
		} else {
			c.Append(sg.g, []int{q0}, params)
		}
	}
	return c
}

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
		n, ranks, tileBits, window int
		fuseRuns                   bool
		exchanges                  int // pinned: what this plan pays on this world
	}{
		{6, 2, 3, 0, false, 30},  // 1 rank bit
		{6, 4, 2, 0, false, 118}, // 2 rank bits, 4-amp tiles
		{6, 8, 2, 0, false, 268}, // 3 rank bits, shard of 3 qubits
		{8, 4, 3, 0, false, 56},  // roomier shard
		{8, 4, 3, 0, true, 56},   // within-run fusion on
		{9, 8, 3, 0, false, 208}, // deep rank boundary
		{9, 8, 3, 0, true, 208},  //   ... with fusion
		{8, 4, 3, 3, false, 52},  // transform-level fused blocks in the stream
		{8, 4, 3, 3, true, 52},   // both fusion layers at once
		{10, 2, 4, 4, false, 30}, // wide fused blocks, single rank bit
		{2, 2, 3, 0, false, 90},  // 1-qubit shards: the shard is one tile
		{3, 4, 3, 0, false, 148},
		{4, 8, 3, 0, true, 424},
		{5, 16, 3, 0, false, 744},
	} {
		rng := qmath.NewRNG(seed + uint64(tc.n*1000+tc.ranks*100+tc.tileBits*10+tc.window))
		c := gateSoup(tc.n, 140, rng)
		gbits := log2ranks(tc.ranks)
		local := tc.n - gbits
		kopts := kernel.Options{}
		if tc.window > 0 {
			kopts = kernel.Options{FusionWindow: tc.window, FusionLocalQubits: local}
		}
		k, _, err := kernel.FromCircuit(c, kopts)
		if err != nil {
			t.Fatalf("n=%d: transform: %v", tc.n, err)
		}
		want := singleDeviceProbs(t, k)

		plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: tc.tileBits, GlobalBits: gbits, FuseRuns: tc.fuseRuns})
		if err != nil {
			t.Fatalf("ranks=%d: plan: %v", tc.ranks, err)
		}
		planned, err := SimulateCompiled(k, plan, tc.ranks, 1)
		if err != nil {
			t.Fatalf("ranks=%d: planned: %v", tc.ranks, err)
		}

		if d := maxDiff(planned.Probabilities, want); d > 1e-12 {
			t.Errorf("n=%d ranks=%d tile=%d window=%d fuse=%v: planned vs single-device diff %g > 1e-12",
				tc.n, tc.ranks, tc.tileBits, tc.window, tc.fuseRuns, d)
		} else if !tc.fuseRuns && d != 0 {
			// Without run fusion the plan performs the per-gate
			// arithmetic exactly; any nonzero drift is a compiler bug.
			t.Errorf("n=%d ranks=%d tile=%d window=%d: planned vs single-device diff %g, want exact 0",
				tc.n, tc.ranks, tc.tileBits, tc.window, d)
		}
		if math.Abs(norm(planned.Probabilities)-1) > 1e-9 {
			t.Errorf("n=%d ranks=%d: planned norm %g", tc.n, tc.ranks, norm(planned.Probabilities))
		}
		// The single-device reference is a plan on the same kernels; the
		// oracle is neither.
		oracle := oracleProbs(c)
		if d := maxDiff(want, oracle); d > 1e-12 {
			t.Errorf("n=%d window=%d: single-device vs oracle diff %g > 1e-12", tc.n, tc.window, d)
		}
		if d := maxDiff(planned.Probabilities, oracle); d > 1e-12 {
			t.Errorf("n=%d ranks=%d tile=%d window=%d fuse=%v: planned vs oracle diff %g > 1e-12",
				tc.n, tc.ranks, tc.tileBits, tc.window, tc.fuseRuns, d)
		}
		// A segment costs each rank at most one exchange; ranks whose
		// rank-bit controls rule out every op of a segment sit it out.
		if planned.Exchanges != tc.exchanges || planned.Exchanges > tc.ranks*plan.Stats.ExchangeSegs {
			t.Errorf("n=%d ranks=%d tile=%d window=%d fuse=%v: %d exchanges, pinned %d (bound %d = ranks × %d segments)",
				tc.n, tc.ranks, tc.tileBits, tc.window, tc.fuseRuns, planned.Exchanges, tc.exchanges,
				tc.ranks*plan.Stats.ExchangeSegs, plan.Stats.ExchangeSegs)
		}
		if tc.fuseRuns {
			continue
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
}

// TestPlannedExchangeBatching pins the headline distributed win: a
// QCrank-shaped Ry/CX ladder whose data qubit sits on a rank bit
// compiles into one exchange segment — one buffer exchange per rank
// for the whole ladder, every later gate counted as an exchange avoided.
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
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: 2, GlobalBits: log2ranks(ranks)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.ExchangeSegs != 1 {
		t.Errorf("ExchangeSegs = %d, want 1 (whole ladder batched)", plan.Stats.ExchangeSegs)
	}
	if plan.Stats.ExchangeGates != 2*ladder {
		t.Errorf("ExchangeGates = %d, want %d", plan.Stats.ExchangeGates, 2*ladder)
	}

	planned, err := SimulateCompiled(k, plan, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(planned.Probabilities, singleDeviceProbs(t, k)); d != 0 {
		t.Errorf("ladder planned vs single-device diff %g, want exact 0", d)
	}
	// One exchange per rank for the segment, not one per rank per gate.
	if planned.Exchanges != ranks {
		t.Errorf("planned exchanges = %d, want %d", planned.Exchanges, ranks)
	}
	if want := ranks * (2*ladder - 1); planned.AvoidedExchanges != want {
		t.Errorf("planned avoided exchanges = %d, want %d", planned.AvoidedExchanges, want)
	}
}

// TestPlannedQCrankExchanges checks the batching win on a real
// qcrank.Encode circuit (6 address + 10 data qubits, 4 ranks): the
// Ry/CX ladders of the data qubits that sit on rank bits compile into
// exchange segments — a pinned handful of exchanges for thousands of
// rank-bit gates — and the gathered probabilities are bit-identical to
// the single-device per-gate engine's.
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
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: tileBits, GlobalBits: log2ranks(ranks)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.ExchangeSegs == 0 {
		t.Error("ExchangeSegs = 0, want the rank-bit ladders batched")
	}
	planned, err := SimulateCompiled(k, plan, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every exchange gate either paid an exchange or rode on one.
	if planned.Exchanges != 2*ranks || planned.Exchanges+planned.AvoidedExchanges != ranks*plan.Stats.ExchangeGates {
		t.Errorf("planned exchanges %d (avoided %d) over %d exchange gates in %d segments: want %d exchanges (one per rank per segment)",
			planned.Exchanges, planned.AvoidedExchanges, plan.Stats.ExchangeGates, plan.Stats.ExchangeSegs, 2*ranks)
	}
	if d := maxDiff(planned.Probabilities, singleDeviceProbs(t, k)); d != 0 {
		t.Errorf("qcrank planned vs single-device diff %g, want exact 0", d)
	}
}

// TestDiagonalRankLocalNoExchange pins the placement rule: diagonal and
// phase gates whose operands sit on rank bits compile into predicates
// each rank resolves against its own index — zero exchanges.
func TestDiagonalRankLocalNoExchange(t *testing.T) {
	const n, ranks = 6, 4
	c := circuit.New(n, 0)
	for q := 0; q < n; q++ {
		c.H(q) // the two global H's pay 2 exchanges per rank
	}
	c.RZ(0.3, n-1)        // rank-bit rz
	c.Z(n - 2)            // rank-bit z
	c.CP(0.7, 0, n-1)     // local ctrl, rank-bit target
	c.CZ(n-1, n-2)        // both rank bits
	c.CP(0.9, n-1, 1)     // rank-bit ctrl, local target
	c.S(n - 1).T(n - 2)   // more rank-bit phases
	c.RZ(0.2, 0).CZ(0, 1) // local diagonals
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := planFor(t, k, ranks, 2)
	// The seven gates with a rank-bit operand, none of them an exchange.
	if plan.Stats.RankLocal != 7 {
		t.Errorf("RankLocal = %d, want 7", plan.Stats.RankLocal)
	}
	res, err := SimulateCompiled(k, plan, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only the H gates on the two rank-bit qubits exchange, one segment
	// each: nothing batched, so nothing counted as avoided.
	if want := 2 * ranks; res.Exchanges != want || res.AvoidedExchanges != 0 {
		t.Errorf("exchanges = %d (avoided %d), want %d and 0 (diagonals must be rank-local)", res.Exchanges, res.AvoidedExchanges, want)
	}
	// And the distribution still matches the single-process engine.
	if d := maxDiff(res.Probabilities, singleDeviceProbs(t, k)); d != 0 {
		t.Errorf("rank-local diagonals vs single-device diff %g, want exact 0", d)
	}
}

// TestPlannedCrossBoundarySwap checks the SWAP decomposition: a SWAP
// with one rank-bit operand must move real data (three CX through the
// exchange machinery) and still match the single device exactly.
func TestPlannedCrossBoundarySwap(t *testing.T) {
	const n, ranks = 6, 4
	rng := qmath.NewRNG(23)
	c := gateSoup(n, 30, rng)
	c.SWAP(0, n-1) // crosses the boundary
	c.SWAP(1, 2)   // stays local: free table update
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: 2, GlobalBits: log2ranks(ranks)})
	if err != nil {
		t.Fatal(err)
	}
	planned, err := SimulateCompiled(k, plan, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(planned.Probabilities, singleDeviceProbs(t, k)); d != 0 {
		t.Errorf("cross-boundary swap vs single-device diff %g, want exact 0", d)
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
// call: an a9_d6 image encoding (15 qubits) on two ranks, plan compiled
// once outside the loop — what is left is the shards, the exchange
// buffers and the gathered vector.
func BenchmarkExecutePlanQCrank(b *testing.B) {
	const addr, data, ranks = 9, 6, 2
	cplan, err := qcrank.NewPlan(data<<addr, addr, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := qmath.NewRNG(2026)
	values := make([]float64, data<<addr)
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
	plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: 16, GlobalBits: log2ranks(ranks)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateCompiled(k, plan, ranks, 1); err != nil {
			b.Fatal(err)
		}
	}
}
