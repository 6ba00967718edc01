package mgpu

import (
	"fmt"
	"math"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/oracle"
	"qgear/internal/qft"
	"qgear/internal/qmath"
	"qgear/internal/randcirc"
	"qgear/internal/statevec"
)

// The three executors the repository holds bit-identical to each other
// — single-device per-gate, single-device planned, distributed planned
// — judged against something that is none of them: internal/oracle's
// textbook gather-multiply-scatter loop, and closed forms that need no
// simulator at all.

// oracleState walks the source circuit (not the transformed kernel:
// the transform is under test too) through the naive reference.
func oracleState(c *circuit.Circuit) oracle.State {
	o := oracle.New(c.NumQubits)
	for _, op := range c.Ops {
		o.Apply(op.Gate, op.Qubits, op.Params)
	}
	return o
}

// oracleProbs is the reference's probability vector.
func oracleProbs(c *circuit.Circuit) []float64 { return oracleState(c).Probabilities() }

// oracleHamiltonian writes h for the oracle.
func oracleHamiltonian(h *observable.Hamiltonian) []oracle.PauliTerm {
	factor := map[observable.Pauli]gate.Type{observable.X: gate.X, observable.Y: gate.Y, observable.Z: gate.Z}
	terms := make([]oracle.PauliTerm, len(h.Terms))
	for i, t := range h.Terms {
		terms[i] = oracle.PauliTerm{Coef: t.Coef, Ops: map[int]gate.Type{}}
		for q, p := range t.Ops {
			terms[i].Ops[q] = factor[p]
		}
	}
	return terms
}

// randomHamiltonian draws eight weighted Pauli strings of one to three
// factors, the first on one of the top three qubits — a rank bit in
// any world of up to eight ranks — and the identity.
func randomHamiltonian(n int, r *qmath.RNG) *observable.Hamiltonian {
	h := &observable.Hamiltonian{NumQubits: n}
	for i := 0; i < 8; i++ {
		ops := map[int]observable.Pauli{n - 1 - r.Intn(min(n, 3)): observable.Pauli(1 + r.Intn(3))}
		for f := r.Intn(3); f > 0; f-- {
			ops[r.Intn(n)] = observable.Pauli(1 + r.Intn(3))
		}
		h.Add(observable.NewTerm(2*r.Float64()-1, ops))
	}
	h.Add(observable.NewTerm(0.5, nil))
	return h
}

// engineRun is what one executor made of a circuit: its probabilities
// and its ⟨H⟩.
type engineRun struct {
	probs []float64
	exp   float64
}

// engineRuns runs c through every executor: per-gate and
// planned on one device, planned on each world of worlds that leaves a
// rank at least one qubit (1 = a one-rank world running the
// single-process plan). tile is folded into [1, n).
func engineRuns(t testing.TB, c *circuit.Circuit, h *observable.Hamiltonian, tile int, worlds []int) map[string]engineRun {
	t.Helper()
	n := c.NumQubits
	tile = 1 + tile%(n-1)
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(s *statevec.State) engineRun {
		defer s.Release()
		v, err := h.Expectation(s)
		if err != nil {
			t.Fatal(err)
		}
		return engineRun{s.Probabilities(), v}
	}
	perGate := statevec.MustNew(n, 1)
	if err := kernel.Execute(k, perGate); err != nil {
		t.Fatal(err)
	}
	out := map[string]engineRun{"per-gate": run(perGate)}
	planned := statevec.MustNew(n, 2)
	if err := planFor(t, k, 1, tile).Execute(planned); err != nil {
		t.Fatal(err)
	}
	out["planned"] = run(planned)
	for _, ranks := range worlds {
		if n-log2ranks(ranks) < 1 {
			continue
		}
		plan := planFor(t, k, ranks, tile)
		res, err := SimulateCompiled(k, plan, ranks, 1)
		if err != nil {
			t.Fatal(err)
		}
		e, err := ExpectationCompiled(k, plan, h, ranks, 1)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("mgpu/%d", ranks)] = engineRun{res.Probabilities, e.Value}
	}
	return out
}

// checkAgainstOracle holds every engine to max |Δp| = 0 and the same
// ⟨H⟩ bits as the per-gate engine, 1e-12 against the oracle for both,
// and total probability 1. h is a random Hamiltonian drawn from hseed.
func checkAgainstOracle(t testing.TB, name string, c *circuit.Circuit, tile int, worlds []int, hseed uint64) {
	t.Helper()
	h := randomHamiltonian(c.NumQubits, qmath.NewRNG(hseed))
	o := oracleState(c)
	want, wantExp := o.Probabilities(), o.Expectation(oracleHamiltonian(h))
	got := engineRuns(t, c, h, tile, worlds)
	for engine, r := range got {
		if d := maxDiff(r.probs, got["per-gate"].probs); d != 0 {
			t.Errorf("%s: %s vs per-gate diff %g, want exact 0", name, engine, d)
		}
		if d := maxDiff(r.probs, want); d > 1e-12 {
			t.Errorf("%s: %s vs oracle diff %g > 1e-12", name, engine, d)
		}
		if v := got["per-gate"].exp; math.Float64bits(r.exp) != math.Float64bits(v) {
			t.Errorf("%s: %s ⟨H⟩ %.17g vs per-gate %.17g, want the same bits", name, engine, r.exp, v)
		}
		if d := math.Abs(r.exp - wantExp); d > 1e-12 {
			t.Errorf("%s: %s ⟨H⟩ %.17g is %g off the oracle's %.17g", name, engine, r.exp, d, wantExp)
		}
		var sum float64
		for _, v := range r.probs {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: %s total probability %.17g", name, engine, sum)
		}
	}
}

func TestEnginesMatchOracle(t *testing.T) {
	worlds := []int{1, 2, 4, 8}
	for seed := uint64(1); seed <= 12; seed++ {
		n := 2 + int(seed)%9 // 2..10
		checkAgainstOracle(t, "soup", gateSoup(n, 160, qmath.NewRNG(seed*7919)), int(seed), worlds, seed)
	}
	for _, spec := range []randcirc.Spec{
		{Qubits: 5, Blocks: 40, Seed: 3},
		{Qubits: 8, Blocks: 100, Seed: 4},
		{Qubits: 10, Blocks: 60, Seed: 5},
	} {
		c, err := randcirc.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, c.Name, c, 3, worlds, spec.Seed)
	}
}

// TestClosedForms needs no reference simulator: GHZ-n is half |0…0⟩
// and half |1…1⟩, and the QFT of any basis state is uniform. The oracle
// is held to them like any engine.
func TestClosedForms(t *testing.T) {
	for n := 2; n <= 9; n++ {
		ghz := make([]float64, 1<<uint(n))
		ghz[0], ghz[len(ghz)-1] = 0.5, 0.5
		uniform := make([]float64, 1<<uint(n))
		for i := range uniform {
			uniform[i] = 1 / float64(len(uniform))
		}
		basis := uint64(0x5a5a5a5a) & (1<<uint(n) - 1)
		qftOfBasis := circuit.New(n, 0)
		for q := 0; q < n; q++ {
			if basis>>uint(q)&1 == 1 {
				qftOfBasis.X(q)
			}
		}
		f, err := qft.Circuit(n, n%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		qftOfBasis.Ops = append(qftOfBasis.Ops, f.Ops...)
		for _, tc := range []struct {
			name string
			c    *circuit.Circuit
			want []float64
		}{{"ghz", circuit.GHZ(n, false), ghz}, {"qft|basis⟩", qftOfBasis, uniform}} {
			got := engineRuns(t, tc.c, &observable.Hamiltonian{NumQubits: n}, 2, []int{2, 4, 8})
			got["oracle"] = engineRun{probs: oracleProbs(tc.c)}
			for engine, r := range got {
				if d := maxDiff(r.probs, tc.want); d > 1e-12 {
					t.Errorf("%s n=%d: %s is %g off the closed form", tc.name, n, engine, d)
				}
			}
		}
	}
}

// FuzzEnginesMatchOracle lets the fuzzer pick the register width, the
// world, the tile width and the gate soup.
func FuzzEnginesMatchOracle(f *testing.F) {
	f.Add(uint8(6), uint8(2), uint8(2), uint8(80), uint64(1))
	f.Add(uint8(2), uint8(1), uint8(0), uint8(40), uint64(2)) // 1-qubit shards
	f.Add(uint8(10), uint8(3), uint8(7), uint8(120), uint64(3))
	f.Add(uint8(5), uint8(0), uint8(1), uint8(200), uint64(4)) // a one-rank world
	f.Fuzz(func(t *testing.T, width, rankBits, tile, gates uint8, seed uint64) {
		n := 2 + int(width)%9               // 2..10
		ranks := 1 << uint(int(rankBits)%4) // 1, 2, 4, 8
		c := gateSoup(n, 1+int(gates), qmath.NewRNG(seed))
		checkAgainstOracle(t, "fuzz", c, int(tile), []int{ranks}, seed)
	})
}
