package kernel

import (
	"math"
	"math/cmplx"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/oracle"
	"qgear/internal/qcrank"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// qftCircuit rebuilds the reversed QFT inline (the qft package sits
// above kernel, so importing it here would cycle).
func qftCircuit(n int) *circuit.Circuit {
	c := circuit.New(n, 0)
	for j := n - 1; j >= 0; j-- {
		c.H(j)
		for k := j - 1; k >= 0; k-- {
			c.CP(2*math.Pi/math.Exp2(float64(j-k+1)), k, j)
		}
	}
	for i := 0; i < n/2; i++ {
		c.SWAP(i, n-1-i)
	}
	return c
}

func qftGateCount(n int) int { return n + n*(n-1)/2 }

// maxAmpDiff compares full amplitude vectors.
func maxAmpDiff(t *testing.T, a, b *statevec.State) float64 {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("length mismatch: %d vs %d", a.Len(), b.Len())
	}
	worst := 0.0
	for i := 0; i < a.Len(); i++ {
		if d := cmplx.Abs(a.Amp(uint64(i)) - b.Amp(uint64(i))); d > worst {
			worst = d
		}
	}
	return worst
}

// maxProbDiff compares a state's probabilities with a reference vector.
func maxProbDiff(s *statevec.State, want []float64) float64 {
	worst := 0.0
	for i, p := range s.Probabilities() {
		worst = max(worst, math.Abs(p-want[i]))
	}
	return worst
}

// executeTiled runs k on s through the plan compiled at tileBits — no
// rank boundary; when the whole state fits one tile that is the
// per-gate schedule.
func executeTiled(k *Kernel, s *statevec.State, tileBits int) error {
	plan, err := Plan(k, PlanConfig{TileBits: tileBits})
	if err != nil {
		return err
	}
	return plan.Execute(s)
}

// TestTiledResumesAfterMaterialize checks the lazy-permutation
// contract: after a tiled run leaves a pending relabeling, readout and
// further gate application on the same state stay correct.
func TestTiledResumesAfterMaterialize(t *testing.T) {
	const n, tileBits = 9, 4
	rng := qmath.NewRNG(99)
	c := oracle.Soup(n, 120, rng)
	k, _, err := FromCircuit(c, Options{})
	if err != nil {
		t.Fatal(err)
	}

	naive := statevec.MustNew(n, 1)
	if err := Execute(k, naive); err != nil {
		t.Fatal(err)
	}
	tiled := statevec.MustNew(n, 1)
	if err := executeTiled(k, tiled, tileBits); err != nil {
		t.Fatal(err)
	}

	// Continue evolving both states with plain gates; the tiled state
	// must transparently materialize its layout first.
	naive.ApplyGate(gate.H, []int{n - 1}, nil)
	tiled.ApplyGate(gate.H, []int{n - 1}, nil)
	naive.ApplyGate(gate.CX, []int{n - 1, 0}, nil)
	tiled.ApplyGate(gate.CX, []int{n - 1, 0}, nil)

	if d := maxAmpDiff(t, naive, tiled); d > 1e-12 {
		t.Fatalf("post-materialize evolution diverged: %g", d)
	}
}

// TestTiledQFTPlanShape pins the headline scheduling property on the
// reversed QFT: every cr1 is tile-local, the reversal SWAPs are free
// table updates, and only the high-qubit Hadamards fall back to full
// sweeps — the G-passes-to-a-handful collapse the tentpole claims.
func TestTiledQFTPlanShape(t *testing.T) {
	const n, tileBits = 12, 8
	k, _, err := FromCircuit(qftCircuit(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(k, PlanConfig{TileBits: tileBits})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats
	if st.PermSwaps != n/2 {
		t.Errorf("PermSwaps = %d, want %d (all reversal swaps absorbed)", st.PermSwaps, n/2)
	}
	// Only Hadamards on the n-tileBits high qubits may go global; each
	// is mixed exactly once so relabeling never pays.
	if want := n - tileBits; st.Global != want {
		t.Errorf("Global = %d, want %d (one per high-qubit H)", st.Global, want)
	}
	if st.BitSwaps != 0 {
		t.Errorf("BitSwaps = %d, want 0 for QFT", st.BitSwaps)
	}
	wantLocal := qftGateCount(n) - (n - tileBits)
	if st.TileLocal != wantLocal {
		t.Errorf("TileLocal = %d, want %d", st.TileLocal, wantLocal)
	}
	// Memory passes collapse: runs + globals ≪ gate count.
	if passes := st.Runs + st.Global + st.BitSwaps; passes >= qftGateCount(n)/3 {
		t.Errorf("passes = %d, want far fewer than %d gates", passes, qftGateCount(n))
	}

	// And the plan must still be exact.
	naive := statevec.MustNew(n, 2)
	if err := Execute(k, naive); err != nil {
		t.Fatal(err)
	}
	tiled := statevec.MustNew(n, 2)
	if err := plan.Execute(tiled); err != nil {
		t.Fatal(err)
	}
	if d := maxAmpDiff(t, naive, tiled); d > 1e-12 {
		t.Fatalf("QFT tiled diff %g", d)
	}
}

// TestTiledRelabelLadder pins the QCrank-shaped win: a long Ry/CX
// ladder targeting a high data qubit triggers exactly one relabeling
// bit-swap, after which the whole ladder is tile-local.
func TestTiledRelabelLadder(t *testing.T) {
	const n, tileBits, data = 10, 6, 9 // data qubit above the boundary
	c := circuit.New(n, 0)
	for q := 0; q < tileBits; q++ {
		c.H(q)
	}
	rng := qmath.NewRNG(7)
	for i := 0; i < 32; i++ {
		c.RY(rng.Angle(), data)
		c.CX(i%tileBits, data)
	}
	k, _, err := FromCircuit(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(k, PlanConfig{TileBits: tileBits})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.BitSwaps != 1 {
		t.Errorf("BitSwaps = %d, want 1 (one relabel for the ladder)", plan.Stats.BitSwaps)
	}
	if plan.Stats.Global != 0 {
		t.Errorf("Global = %d, want 0 after relabeling", plan.Stats.Global)
	}
	if plan.FinalPerm == nil {
		t.Error("FinalPerm = nil, want a pending relabeling")
	}

	naive := statevec.MustNew(n, 1)
	if err := Execute(k, naive); err != nil {
		t.Fatal(err)
	}
	tiled := statevec.MustNew(n, 1)
	if err := plan.Execute(tiled); err != nil {
		t.Fatal(err)
	}
	if d := maxAmpDiff(t, naive, tiled); d > 1e-12 {
		t.Fatalf("ladder tiled diff %g", d)
	}
}

// TestTiledQCrankPlanShape checks the same win on a real qcrank.Encode
// circuit (6 address + 10 data qubits, tile width 10): the data qubits
// above the tile boundary are relabeled rather than swept, so the plan
// needs bit-swaps and at most one full sweep per qubit, collapses the
// ~1300-gate stream into far fewer memory passes, and stays exact.
func TestTiledQCrankPlanShape(t *testing.T) {
	const addr, pixels, tileBits = 6, 640, 10
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
	k, _, err := FromCircuit(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(k, PlanConfig{TileBits: tileBits})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats
	if st.BitSwaps == 0 {
		t.Error("BitSwaps = 0, want the high data qubits relabeled")
	}
	if st.Global > k.NumQubits {
		t.Errorf("Global = %d, want at most %d (one per qubit)", st.Global, k.NumQubits)
	}
	if passes := st.Runs + st.Global + st.BitSwaps; passes*3 >= len(k.Instrs) {
		t.Errorf("%d memory passes for %d instructions — tiling did not collapse the stream", passes, len(k.Instrs))
	}

	naive := statevec.MustNew(k.NumQubits, 2)
	if err := Execute(k, naive); err != nil {
		t.Fatal(err)
	}
	tiled := statevec.MustNew(k.NumQubits, 2)
	if err := plan.Execute(tiled); err != nil {
		t.Fatal(err)
	}
	if d := maxAmpDiff(t, naive, tiled); d > 1e-12 {
		t.Fatalf("qcrank tiled diff %g", d)
	}
}
