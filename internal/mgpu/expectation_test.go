package mgpu

import (
	"fmt"
	"math"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/qft"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// soupK builds a random kernel exercising rank-bit gates.
func soupK(t *testing.T, n, ops int, seed uint64) *kernel.Kernel {
	t.Helper()
	r := qmath.NewRNG(seed)
	k := &kernel.Kernel{Name: "exp_soup", NumQubits: n}
	for i := 0; i < ops; i++ {
		q := r.Intn(n)
		q2 := (q + 1 + r.Intn(n-1)) % n
		switch r.Intn(6) {
		case 0:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.H, Qubits: []int{q}})
		case 1:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.RY, Qubits: []int{q}, Params: []float64{r.Angle()}})
		case 2:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.RZ, Qubits: []int{q}, Params: []float64{r.Angle()}})
		case 3:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.CX, Qubits: []int{q, q2}})
		case 4:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.CP, Qubits: []int{q, q2}, Params: []float64{r.Angle()}})
		case 5:
			k.Instrs = append(k.Instrs, kernel.Instr{Kind: kernel.KGate, Gate: gate.SWAP, Qubits: []int{q, q2}})
		}
	}
	return k
}

// singleDeviceExpectation executes the same kernel on one process and
// evaluates through the shared canonical evaluator.
func singleDeviceExpectation(t testing.TB, k *kernel.Kernel, h *observable.Hamiltonian) float64 {
	t.Helper()
	s := statevec.MustNew(k.NumQubits, 1)
	if err := kernel.Execute(k, s); err != nil {
		t.Fatal(err)
	}
	v, err := h.Expectation(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestExpectationMatchesSingleDevice sweeps rank counts × tile widths:
// every distributed value must be bit-identical to the single-process
// evaluation, with terms landing on every global/local mask split (Z,
// X, Y factors on rank bits included). Past 16 ranks a shard is smaller
// than one canonical chunk, and the contract is 1e-12.
func TestExpectationMatchesSingleDevice(t *testing.T) {
	r := qmath.NewRNG(31337)
	wide := 0 // worlds past 16 ranks checked
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(6) // 4..9
		k := soupK(t, n, 30+r.Intn(40), r.Uint64())
		h := &observable.Hamiltonian{NumQubits: n}
		// Deliberately include rank-bit factors: terms on the top qubits.
		h.Add(observable.NewTerm(1.25, map[int]observable.Pauli{n - 1: observable.X}))
		h.Add(observable.NewTerm(-0.5, map[int]observable.Pauli{n - 1: observable.Z}))
		h.Add(observable.NewTerm(0.75, map[int]observable.Pauli{n - 1: observable.Y, 0: observable.Z}))
		h.Add(observable.NewTerm(-2, map[int]observable.Pauli{n - 1: observable.Z, n - 2: observable.Z}))
		h.Add(observable.NewTerm(0.3, map[int]observable.Pauli{n - 1: observable.X, n - 2: observable.Y}))
		for ti := 0; ti < 3; ti++ {
			ops := make(map[int]observable.Pauli)
			for kk := 0; kk <= r.Intn(3); kk++ {
				ops[r.Intn(n)] = observable.Pauli(1 + r.Intn(3))
			}
			h.Add(observable.NewTerm(2*r.Float64()-1, ops))
		}

		want := singleDeviceExpectation(t, k, h)
		for _, ranks := range []int{2, 4, 8, 32} {
			if n-int(qmath.Log2Ceil(uint64(ranks))) < 2 {
				continue
			}
			tb := 1 + r.Intn(2)
			plan, err := kernel.Plan(k, kernel.PlanConfig{TileBits: tb, GlobalBits: int(qmath.Log2Ceil(uint64(ranks)))})
			if err != nil {
				t.Fatalf("ranks=%d plan: %v", ranks, err)
			}
			planned, err := ExpectationCompiledCancel(k, plan, h, ranks, 2, nil)
			if err != nil {
				t.Fatalf("ranks=%d planned: %v", ranks, err)
			}
			if ranks > 16 {
				wide++
				if d := math.Abs(planned.Value - want); d > 1e-12 {
					t.Fatalf("trial %d ranks=%d planned(tile=%d): %.17g is %g off single-device %.17g", trial, ranks, tb, planned.Value, d, want)
				}
				continue
			}
			if planned.Value != want {
				t.Fatalf("trial %d ranks=%d planned(tile=%d): %.17g != single-device %.17g", trial, ranks, tb, planned.Value, want)
			}
		}
	}
	if wide == 0 {
		t.Fatal("no trial had a register wide enough for 32 ranks")
	}
}

// TestTFIMRanksShape pins the shape of distributed ⟨H⟩ on TFIM-20, not
// a clock. At 1 to 16 ranks the value has the single device's bits;
// the root rank sweeps its shard at most 2 + log2(ranks) times — the
// local groups, then one two-sided sweep per rank bit (3 on one rank,
// where all seven high X terms fit three resident sets); and the
// expectation costs one exchange per rank for each distinct rank part
// of a flip mask, the plan's exchanges aside.
func TestTFIMRanksShape(t *testing.T) {
	if testing.Short() {
		t.Skip("20-qubit state")
	}
	const n = 20
	k := soupK(t, n, 40, 20)
	h := observable.TransverseFieldIsing(n, 1, 0.7)
	want := singleDeviceExpectation(t, k, h)
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		rb := log2ranks(ranks)
		plan := planFor(t, k, ranks, 8)
		res, err := ExpectationCompiledCancel(k, plan, h, ranks, 1, nil)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if math.Float64bits(res.Value) != math.Float64bits(want) {
			t.Errorf("ranks=%d: ⟨H⟩ %.17g, single device %.17g", ranks, res.Value, want)
		}
		if maxSweeps := max(2+rb, 3); res.Sweeps > maxSweeps {
			t.Errorf("ranks=%d: the root rank swept its shard %d times, want <= %d", ranks, res.Sweeps, maxSweeps)
		}
		// TFIM flips one qubit per term: one rank part per rank bit.
		if got := res.Exchanges - ranks*plan.Stats.ExchangeSegs; got != rb*ranks {
			t.Errorf("ranks=%d: %d expectation exchanges, want %d", ranks, got, rb*ranks)
		}
	}
}

// TestExpectationCanonicalPartner runs TFIM-16 on a QFT-16 with its
// reversal swaps, which the plan leaves as a pending permutation on
// every shard. Each rank's evaluator materializes it before the first
// exchange, so the partner buffer a rank-bit X term reads is in
// canonical order: on 2 and 4 ranks ⟨H⟩ has nvidia's bits, and the
// expectation still costs one exchange per rank per rank bit. The QFT
// acts on a product of distinct RY rotations: on |0…0⟩ every amplitude
// is the same, and a partner read in the wrong order would not show.
func TestExpectationCanonicalPartner(t *testing.T) {
	const n = 16
	prep := circuit.New(n, 0)
	for q := 0; q < n; q++ {
		prep.RY(0.1+0.17*float64(q), q)
	}
	f, err := qft.Circuit(n, true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := prep.Compose(f)
	if err != nil {
		t.Fatal(err)
	}
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := observable.TransverseFieldIsing(n, 1, 0.7)
	// nvidia: the single-process tiled plan on one state.
	single, err := kernel.Plan(k, kernel.PlanConfig{TileBits: kernel.AutoTileBits()})
	if err != nil {
		t.Fatal(err)
	}
	s := statevec.MustNew(n, 1)
	defer s.Release()
	if err := single.Execute(s); err != nil {
		t.Fatal(err)
	}
	want, err := h.Expectation(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 4} {
		rb := log2ranks(ranks)
		plan := planFor(t, k, ranks, 8)
		if _, err := runWorld(k, plan, ranks, 1, nil, func(d *DistState) error {
			if d.st.PermIsIdentity() {
				return fmt.Errorf("rank %d: the plan left no pending permutation to materialize", d.comm.Rank())
			}
			return nil
		}); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		res, err := ExpectationCompiledCancel(k, plan, h, ranks, 2, nil)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if math.Float64bits(res.Value) != math.Float64bits(want) {
			t.Errorf("ranks=%d: ⟨H⟩ %.17g, nvidia %.17g", ranks, res.Value, want)
		}
		if got := res.Exchanges - ranks*plan.Stats.ExchangeSegs; got != rb*ranks {
			t.Errorf("ranks=%d: %d expectation exchanges, want %d", ranks, got, rb*ranks)
		}
	}
}

// TestExpectationIdentityAndEmpty covers the degenerate shapes.
func TestExpectationIdentityAndEmpty(t *testing.T) {
	k := soupK(t, 4, 10, 1)
	plan := planFor(t, k, 2, 2)
	empty := &observable.Hamiltonian{NumQubits: 4}
	res, err := ExpectationCompiledCancel(k, plan, empty, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Fatalf("empty hamiltonian: %g", res.Value)
	}
	ident := &observable.Hamiltonian{NumQubits: 4}
	ident.Add(observable.NewTerm(2.5, nil))
	res, err = ExpectationCompiledCancel(k, plan, ident, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-2.5) > 0 {
		t.Fatalf("identity term: %g", res.Value)
	}
	bad := &observable.Hamiltonian{NumQubits: 4}
	bad.Add(observable.NewTerm(1, map[int]observable.Pauli{9: observable.Z}))
	if _, err := ExpectationCompiledCancel(k, plan, bad, 2, 1, nil); err == nil {
		t.Fatal("out-of-range term accepted")
	}
}
