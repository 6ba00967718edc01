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
	"qgear/internal/statevec"
)

// The planned-mgpu equivalence suite: distributed execution of a
// compiled TilePlan must be bit-identical (amplitudes within 1e-12,
// fixed-seed shot counts exactly equal) to both the per-gate
// DistState path and the single-process statevec engine, across rank
// counts × global-qubit counts × fusion settings. This is the
// acceptance gate for promoting TilePlan to the shared execution IR.

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
	}{
		{6, 2, 3, 0, false},  // 1 rank bit
		{6, 4, 2, 0, false},  // 2 rank bits, 4-amp tiles
		{6, 8, 2, 0, false},  // 3 rank bits, shard of 3 qubits
		{8, 4, 3, 0, false},  // roomier shard
		{8, 4, 3, 0, true},   // within-run fusion on
		{9, 8, 3, 0, false},  // deep rank boundary
		{9, 8, 3, 0, true},   //   ... with fusion
		{8, 4, 3, 3, false},  // transform-level fused blocks in the stream
		{8, 4, 3, 3, true},   // both fusion layers at once
		{10, 2, 4, 4, false}, // wide fused blocks, single rank bit
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

		// Single-process reference.
		ref := statevec.MustNew(tc.n, 1)
		if err := kernel.Execute(k, ref); err != nil {
			t.Fatal(err)
		}
		refProbs := ref.Probabilities()

		legacy, err := SimulateCompiled(k, nil, tc.ranks, 1)
		if err != nil {
			t.Fatalf("ranks=%d: per-gate: %v", tc.ranks, err)
		}
		plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: tc.tileBits, GlobalBits: gbits, FuseRuns: tc.fuseRuns})
		if err != nil {
			t.Fatalf("ranks=%d: plan: %v", tc.ranks, err)
		}
		planned, err := SimulateCompiled(k, plan, tc.ranks, 1)
		if err != nil {
			t.Fatalf("ranks=%d: planned: %v", tc.ranks, err)
		}

		if d := maxDiff(planned.Probabilities, legacy.Probabilities); d > 1e-12 {
			t.Errorf("n=%d ranks=%d tile=%d window=%d fuse=%v: planned vs per-gate diff %g > 1e-12",
				tc.n, tc.ranks, tc.tileBits, tc.window, tc.fuseRuns, d)
		} else if !tc.fuseRuns && d != 0 {
			// Without run fusion the plan performs the per-gate
			// arithmetic exactly; any nonzero drift is a compiler bug.
			t.Errorf("n=%d ranks=%d tile=%d window=%d: planned vs per-gate diff %g, want exact 0",
				tc.n, tc.ranks, tc.tileBits, tc.window, d)
		}
		if d := maxDiff(planned.Probabilities, refProbs); d > 1e-12 {
			t.Errorf("n=%d ranks=%d tile=%d: planned vs single-process diff %g > 1e-12", tc.n, tc.ranks, tc.tileBits, d)
		}
		if math.Abs(norm(planned.Probabilities)-1) > 1e-9 {
			t.Errorf("n=%d ranks=%d: planned norm %g", tc.n, tc.ranks, norm(planned.Probabilities))
		}
		if planned.Exchanges > legacy.Exchanges {
			t.Errorf("n=%d ranks=%d: planned exchanges %d exceed per-gate %d",
				tc.n, tc.ranks, planned.Exchanges, legacy.Exchanges)
		}

		// Exact fixed-seed shot counts from both distributions.
		cLegacy, err := sampling.Sample(legacy.Probabilities, shots, qmath.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		cPlanned, err := sampling.Sample(planned.Probabilities, shots, qmath.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !sameCounts(cLegacy, cPlanned) {
			t.Errorf("n=%d ranks=%d fuse=%v: fixed-seed shot counts differ between planned and per-gate",
				tc.n, tc.ranks, tc.fuseRuns)
		}
	}
}

// TestPlannedExchangeBatching pins the headline distributed win: a
// QCrank-shaped Ry/CX ladder whose data qubit sits on a rank bit
// compiles into one exchange segment — one buffer exchange per rank
// for the whole ladder — where the per-gate path exchanges per gate.
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

	legacy, err := SimulateCompiled(k, nil, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := SimulateCompiled(k, plan, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(planned.Probabilities, legacy.Probabilities); d != 0 {
		t.Errorf("ladder planned vs per-gate diff %g, want exact 0", d)
	}
	// One exchange per rank for the segment vs one per rank per gate.
	if planned.Exchanges != ranks {
		t.Errorf("planned exchanges = %d, want %d", planned.Exchanges, ranks)
	}
	if legacy.Exchanges != ranks*2*ladder {
		t.Errorf("per-gate exchanges = %d, want %d", legacy.Exchanges, ranks*2*ladder)
	}
	if want := ranks * (2*ladder - 1); planned.AvoidedExchanges != want {
		t.Errorf("planned avoided exchanges = %d, want %d", planned.AvoidedExchanges, want)
	}
}

// TestPlannedQCrankExchanges checks the batching win on a real
// qcrank.Encode circuit (6 address + 10 data qubits, 4 ranks): the
// Ry/CX ladders of the data qubits that sit on rank bits compile into
// exchange segments, so the planned run exchanges strictly less than
// the per-gate run and gathers bit-identical probabilities.
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
	legacy, err := SimulateCompiled(k, nil, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := SimulateCompiled(k, plan, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Exchanges >= legacy.Exchanges || planned.AvoidedExchanges == 0 {
		t.Errorf("planned exchanges %d (avoided %d) vs per-gate %d: batching did not reduce communication",
			planned.Exchanges, planned.AvoidedExchanges, legacy.Exchanges)
	}
	if d := maxDiff(planned.Probabilities, legacy.Probabilities); d != 0 {
		t.Errorf("qcrank planned vs per-gate diff %g, want exact 0", d)
	}
}

// TestDiagonalRankLocalNoExchange pins the per-gate quick win:
// diagonal/phase gates whose operands sit on rank bits resolve locally
// — zero exchanges — and are counted as avoided.
func TestDiagonalRankLocalNoExchange(t *testing.T) {
	const n, ranks = 6, 4
	c := circuit.New(n, 0)
	for q := 0; q < n; q++ {
		c.H(q) // the two global H's pay 2 exchanges per rank
	}
	c.RZ(0.3, n-1)        // rank-bit rz: avoided
	c.Z(n - 2)            // rank-bit z: avoided
	c.CP(0.7, 0, n-1)     // local ctrl, rank-bit target: avoided
	c.CZ(n-1, n-2)        // both rank bits: avoided on |c=1> ranks
	c.CP(0.9, n-1, 1)     // rank-bit ctrl, local target: free either way
	c.S(n - 1).T(n - 2)   // more rank-bit phases: avoided
	c.RZ(0.2, 0).CZ(0, 1) // local diagonals: free either way
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateCompiled(k, nil, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only the H gates on the two rank-bit qubits exchange.
	if want := 2 * ranks; res.Exchanges != want {
		t.Errorf("exchanges = %d, want %d (diagonals must be rank-local)", res.Exchanges, want)
	}
	// rz, z, cp(t=global), s, t: one avoided per rank each = 5·ranks;
	// cz(both global) avoided on the two |c=1> ranks only.
	if want := 5*ranks + ranks/2; res.AvoidedExchanges != want {
		t.Errorf("avoided = %d, want %d", res.AvoidedExchanges, want)
	}

	// And the distribution still matches the single-process engine.
	ref := statevec.MustNew(n, 1)
	if err := kernel.Execute(k, ref); err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(res.Probabilities, ref.Probabilities()); d > 1e-12 {
		t.Errorf("rank-local diagonals drifted: %g", d)
	}
}

// TestPlannedCrossBoundarySwap checks the SWAP decomposition: a SWAP
// with one rank-bit operand must move real data (three CX through the
// exchange machinery) and still match the per-gate path exactly.
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
	legacy, err := SimulateCompiled(k, nil, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := SimulateCompiled(k, plan, ranks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(planned.Probabilities, legacy.Probabilities); d != 0 {
		t.Errorf("cross-boundary swap diff %g, want exact 0", d)
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
