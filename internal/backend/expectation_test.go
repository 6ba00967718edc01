package backend

import (
	"math"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/observable"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
)

// The randomized differential suite for observable estimation:
// RunExpectation is held to internal/oracle's dense ⟨ψ|H|ψ⟩ at 1e-12,
// and to shot-sampled Z-basis estimates within statistical tolerance —
// randomized over qubit counts, tile widths, rank counts and
// pending-permutation states. The per-gate, tiled, and planned-mgpu
// engines must agree bit for bit.

// soupCircuit is oracle.Soup with trailing SWAPs, so tiled execution
// finishes on a non-identity permutation table the evaluator must read
// through.
func soupCircuit(n, ops int, seed uint64) *circuit.Circuit {
	c := oracle.Soup(n, ops, qmath.NewRNG(seed))
	c.SWAP(0, n-1)
	if n >= 4 {
		c.SWAP(1, n-2)
	}
	return c
}

// randomHamiltonian draws a few-term Hamiltonian with random Pauli
// strings (1..3 qubits each, occasionally an identity term) and
// random coefficients.
func randomHamiltonian(n int, terms int, r *qmath.RNG) *observable.Hamiltonian {
	h := &observable.Hamiltonian{NumQubits: n}
	for i := 0; i < terms; i++ {
		coef := 4*r.Float64() - 2
		if r.Intn(8) == 0 {
			h.Add(observable.NewTerm(coef, nil)) // identity term
			continue
		}
		k := 1 + r.Intn(3)
		if k > n {
			k = n
		}
		ops := make(map[int]observable.Pauli, k)
		for len(ops) < k {
			ops[r.Intn(n)] = observable.Pauli(1 + r.Intn(3))
		}
		h.Add(observable.NewTerm(coef, ops))
	}
	return h
}

// oracleExpectation is ⟨H⟩ on c's final state, both walked by
// internal/oracle: no lane kernel, plan, executor or evaluator in
// common with any engine under test.
func oracleExpectation(c *circuit.Circuit, h *observable.Hamiltonian) float64 {
	factor := map[observable.Pauli]gate.Type{observable.X: gate.X, observable.Y: gate.Y, observable.Z: gate.Z}
	terms := make([]oracle.PauliTerm, len(h.Terms))
	for i, t := range h.Terms {
		terms[i] = oracle.PauliTerm{Coef: t.Coef, Ops: map[int]gate.Type{}}
		for q, p := range t.Ops {
			terms[i].Ops[q] = factor[p]
		}
	}
	return oracle.Run(c).Expectation(terms)
}

func expValue(t *testing.T, c *circuit.Circuit, h *observable.Hamiltonian, cfg Config) float64 {
	t.Helper()
	res, err := RunExpectation(c, h, cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Target, err)
	}
	if res.ExpValue == nil {
		t.Fatalf("%s: nil ExpValue", cfg.Target)
	}
	if res.ExpTerms != len(h.Terms) || res.NumQubits != c.NumQubits {
		t.Fatalf("%s: result shape ExpTerms=%d NumQubits=%d", cfg.Target, res.ExpTerms, res.NumQubits)
	}
	if res.Probabilities != nil || res.Counts != nil {
		t.Fatalf("%s: expectation result materialized a readout", cfg.Target)
	}
	return *res.ExpValue
}

func TestExpectationDifferentialSuite(t *testing.T) {
	r := qmath.NewRNG(20250728)
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + r.Intn(9) // 2..10 qubits: dense reference stays cheap
		ops := 20 + r.Intn(60)
		c := soupCircuit(n, ops, r.Uint64())
		h := randomHamiltonian(n, 1+r.Intn(6), r)

		ref := oracleExpectation(c, h)
		tb := 2
		if n > 3 {
			tb += r.Intn(n - 3) // forced width in [2, n-1)
		}
		mgpuFits := func(devices int) bool {
			gbits := 0
			for 1<<uint(gbits) < devices {
				gbits++
			}
			return n-gbits >= 2
		}

		// The engines all consume the identical transformed kernel, so
		// every value must be bit-identical across per-gate, tiled
		// (any width, any worker count), term-parallel mqpu, and the
		// distributed engine at any rank count.
		configs := []Config{
			{Target: TargetAer},                                             // serial per-gate baseline
			{Target: TargetNvidia, TileBits: -1},                            // per-gate, parallel workers
			{Target: TargetNvidia, TileBits: tb},                            // tiled, pending perms
			{Target: TargetNvidia, TileBits: tb, Workers: 3},                // odd worker count
			{Target: TargetNvidia, TileBits: tb, Workers: 7},                // worker-count invariance
			{Target: TargetNvidiaMQPU, Devices: 3, TileBits: tb},            // term-partitioned parallel
			{Target: TargetNvidiaMGPU, Devices: 2},                          // distributed planned
			{Target: TargetNvidiaMGPU, Devices: 4},                          // more ranks
			{Target: TargetNvidiaMGPU, Devices: 8, TileBits: 1, Workers: 2}, // deep rank split
			{Target: TargetNvidiaMGPU, Devices: 4, TileBits: 1, Workers: 1}, // minimal tiles
		}
		var vals []float64
		for _, cfg := range configs {
			if cfg.Target == TargetNvidiaMGPU && !mgpuFits(cfg.Devices) {
				continue // shard too small for this rank count
			}
			vals = append(vals, expValue(t, c, h, cfg))
		}
		for i, v := range vals {
			if d := math.Abs(v - ref); d > 1e-12 {
				t.Fatalf("trial %d (n=%d): engine %d value %.17g deviates %.3g from the oracle %.17g",
					trial, n, i, v, d, ref)
			}
			if v != vals[0] {
				t.Fatalf("trial %d (n=%d): engine %d value %.17g != engine 0 value %.17g — engines must be bit-identical",
					trial, n, i, v, vals[0])
			}
		}
	}
}

// TestMQPUExpectationMatchesSingleDevice: ⟨H⟩ on nvidia-mqpu is the
// one grouped sweep nvidia runs, so 1–4 simulated QPUs return nvidia's
// value bit for bit.
func TestMQPUExpectationMatchesSingleDevice(t *testing.T) {
	c := soupCircuit(9, 80, 41)
	for _, h := range []*observable.Hamiltonian{observable.TransverseFieldIsing(9, 1, 0.7), randomHamiltonian(9, 12, qmath.NewRNG(41))} {
		want := expValue(t, c, h, Config{Target: TargetNvidia})
		for devices := 1; devices <= 4; devices++ {
			if got := expValue(t, c, h, Config{Target: TargetNvidiaMQPU, Devices: devices}); got != want {
				t.Errorf("%d terms on %d QPUs: %.17g, nvidia %.17g", len(h.Terms), devices, got, want)
			}
		}
	}
}

// TestExpectationPendingPermutation pins evaluation on a state left
// with a pending permutation: it must equal evaluating the materialized
// copy bit for bit, and it leaves the state materialized — the identity
// layout, every amplitude the logical one it held before.
func TestExpectationPendingPermutation(t *testing.T) {
	c := soupCircuit(7, 40, 99)
	h := randomHamiltonian(7, 5, qmath.NewRNG(7))
	comp, err := Compile(c, Config{Target: TargetNvidia, TileBits: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := runSingleState(comp, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.PermIsIdentity() {
		t.Fatal("test needs a pending permutation; adjust the soup")
	}
	mat := s.Clone()
	mat.Amplitudes() // materializes
	vPerm, err := h.Expectation(s)
	if err != nil {
		t.Fatal(err)
	}
	if !s.PermIsIdentity() {
		t.Fatal("expectation left the permutation pending")
	}
	for i := uint64(0); i < uint64(s.Len()); i++ {
		if s.Amp(i) != mat.Amp(i) {
			t.Fatalf("amplitude %d changed by the expectation", i)
		}
	}
	vMat, err := h.Expectation(mat)
	if err != nil {
		t.Fatal(err)
	}
	if vPerm != vMat {
		t.Fatalf("permuted evaluation %.17g != materialized %.17g", vPerm, vMat)
	}
}

// TestExpectationSampledZBasis cross-validates the exact pathway
// against shot-sampled Z-basis estimates: for Z-diagonal random
// Hamiltonians the sampled estimator must land within a few standard
// errors of RunExpectation's value.
func TestExpectationSampledZBasis(t *testing.T) {
	r := qmath.NewRNG(4242)
	for trial := 0; trial < 6; trial++ {
		n := 3 + r.Intn(6)
		c := soupCircuit(n, 30+r.Intn(40), r.Uint64())
		h := &observable.Hamiltonian{NumQubits: n}
		var coefSum float64
		for i := 0; i < 1+r.Intn(4); i++ {
			coef := 2*r.Float64() - 1
			k := 1 + r.Intn(2)
			ops := make(map[int]observable.Pauli, k)
			for len(ops) < k {
				ops[r.Intn(n)] = observable.Z
			}
			h.Add(observable.NewTerm(coef, ops))
			coefSum += math.Abs(coef)
		}

		exact := expValue(t, c, h, Config{Target: TargetNvidia})

		const shots = 200000
		res, err := Run(c, Config{Target: TargetNvidia, Shots: shots, Seed: r.Uint64()})
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[uint64]int, len(res.Counts))
		for k, v := range res.Counts {
			counts[k] = v
		}
		est, err := h.EstimateZBasis(counts)
		if err != nil {
			t.Fatal(err)
		}
		// Each term's estimator has stderr ≤ |coef|/√shots; 5σ on the
		// conservative sum keeps the flake rate negligible.
		tol := 5 * coefSum / math.Sqrt(shots)
		if d := math.Abs(est - exact); d > tol {
			t.Fatalf("trial %d (n=%d): sampled %.6f vs exact %.6f, |Δ| %.3g > %.3g",
				trial, n, est, exact, d, tol)
		}
	}
}

// TestExpectationValidation exercises the error paths.
func TestExpectationValidation(t *testing.T) {
	c := circuit.GHZ(4, false)
	if _, err := RunExpectation(c, nil, Config{Target: TargetNvidia}); err == nil {
		t.Fatal("nil hamiltonian accepted")
	}
	tooWide := observable.TransverseFieldIsing(6, 1, 1)
	if _, err := RunExpectation(c, tooWide, Config{Target: TargetNvidia}); err == nil {
		t.Fatal("oversized hamiltonian accepted")
	}
	bad := &observable.Hamiltonian{NumQubits: 4}
	bad.Add(observable.NewTerm(math.NaN(), map[int]observable.Pauli{0: observable.Z}))
	if _, err := RunExpectation(c, bad, Config{Target: TargetNvidia}); err == nil {
		t.Fatal("NaN coefficient accepted")
	}
	if _, err := RunExpectation(c, observable.TransverseFieldIsing(4, 1, 1), Config{Target: "bogus"}); err == nil {
		t.Fatal("invalid target accepted")
	}
}
