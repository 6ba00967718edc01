package mgpu

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"strings"
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

// engineRun is what one executor made of a circuit: its probabilities,
// its ⟨H⟩ and, on one device, its amplitudes.
type engineRun struct {
	probs []float64
	exp   float64
	amps  []complex128
}

// deviceWorkers and rankWorkers are the workers axis: every
// single-device engine runs at each of deviceWorkers, every world at
// each of rankWorkers per rank.
var (
	deviceWorkers = []int{1, 2, 3, 4, 8}
	rankWorkers   = []int{1, 4}
)

// engineRuns runs c through every executor at every worker count:
// per-gate and planned (at tile, which may exceed the register: then
// the plan is the per-gate schedule) on one device, planned on each
// world of worlds that leaves a rank at least one qubit (1 = a one-rank
// world running the single-process plan). Keys are "engine/wN";
// "per-gate/w1" is the reference the rest must equal.
func engineRuns(t testing.TB, c *circuit.Circuit, h *observable.Hamiltonian, tile int, worlds []int) map[string]engineRun {
	t.Helper()
	n := c.NumQubits
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := kernel.Plan(k, kernel.PlanConfig{TileBits: tile})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]engineRun{}
	for _, w := range deviceWorkers {
		for engine, exec := range map[string]func(*statevec.State) error{
			"per-gate": func(s *statevec.State) error { return kernel.Execute(k, s) },
			"planned":  single.Execute,
		} {
			s := statevec.MustNew(n, w)
			if err := exec(s); err != nil {
				t.Fatal(err)
			}
			v, err := h.Expectation(s)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/w%d", engine, w)] = engineRun{s.Probabilities(), v, slices.Clone(s.Amplitudes())}
			s.Release()
		}
	}
	for _, ranks := range worlds {
		if n-log2ranks(ranks) < 1 {
			continue
		}
		plan := planFor(t, k, ranks, tile)
		for _, w := range rankWorkers {
			res, err := SimulateCompiled(k, plan, ranks, w)
			if err != nil {
				t.Fatal(err)
			}
			e, err := ExpectationCompiledCancel(k, plan, h, ranks, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("mgpu/%d/w%d", ranks, w)] = engineRun{probs: res.Probabilities, exp: e.Value}
		}
	}
	return out
}

// fold maps a fuzzer's or a seed's tile byte into [1, n).
func fold(tile, n int) int { return 1 + tile%(n-1) }

// sameBits reports whether two amplitude vectors are equal bit for bit.
func sameBits(a, b []complex128) bool {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return len(a) == len(b)
}

// checkAgainstOracle holds every engine at every worker count to
// max |Δp| = 0 and the same ⟨H⟩ bits as the per-gate engine, 1e-12
// against the oracle for both, and total probability 1; on one device,
// to the amplitude bits it has at one worker, the planned amplitudes to
// within 1e-12 of the per-gate ones, and both to within 1e-12 of the
// oracle's. h is a random Hamiltonian drawn from hseed.
func checkAgainstOracle(t testing.TB, name string, c *circuit.Circuit, tile int, worlds []int, hseed uint64) {
	t.Helper()
	h := randomHamiltonian(c.NumQubits, qmath.NewRNG(hseed))
	o := oracle.Run(c)
	want, wantExp := o.Probabilities(), o.Expectation(oracleHamiltonian(h))
	got := engineRuns(t, c, h, tile, worlds)
	ref := got["per-gate/w1"]
	for engine, r := range got {
		if d := maxDiff(r.probs, ref.probs); d != 0 {
			t.Errorf("%s: %s vs per-gate diff %g, want exact 0", name, engine, d)
		}
		if d := maxDiff(r.probs, want); d > 1e-12 {
			t.Errorf("%s: %s vs oracle diff %g > 1e-12", name, engine, d)
		}
		if math.Float64bits(r.exp) != math.Float64bits(ref.exp) {
			t.Errorf("%s: %s ⟨H⟩ %.17g vs per-gate %.17g, want the same bits", name, engine, r.exp, ref.exp)
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
		if r.amps == nil {
			continue
		}
		base, _, _ := strings.Cut(engine, "/")
		if !sameBits(r.amps, got[base+"/w1"].amps) {
			t.Errorf("%s: %s amplitudes differ from its one-worker run, want the same bits", name, engine)
		}
		for i, a := range r.amps {
			if d := cmplx.Abs(a - ref.amps[i]); d > 1e-12 {
				t.Errorf("%s: %s amplitude %d is %g from per-gate's, want ≤ 1e-12", name, engine, i, d)
				break
			}
			if d := cmplx.Abs(a - o[i]); d > 1e-12 {
				t.Errorf("%s: %s amplitude %d is %g from the oracle's, want ≤ 1e-12", name, engine, i, d)
				break
			}
		}
	}
}

// TestEnginesMatchOracle is the engine-equivalence table: seeded soups
// at 2–10 qubits on every world up to 8 ranks; soups at chosen tile
// widths up to 13 qubits, on worlds down to 1-qubit shards and with
// several workers per rank, and long ones; each locality case of a gate
// and the rank boundary; randcirc circuits; and the reversed QFT.
func TestEnginesMatchOracle(t *testing.T) {
	worlds := []int{1, 2, 4, 8}
	for seed := uint64(1); seed <= 12; seed++ {
		n := 2 + int(seed)%9 // 2..10
		checkAgainstOracle(t, "soup", oracle.Soup(n, 160, qmath.NewRNG(seed*7919)), fold(int(seed), n), worlds, seed)
	}
	type row struct {
		n, gates, tile int
		seed           uint64
		worlds         []int
	}
	rows := []row{
		// Tile widths against the per-gate schedule, at up to 13 qubits.
		{3, 160, 5, 0x7a11ed + 3510, nil}, // smaller than one tile: the per-gate schedule again
		{6, 160, 3, 0x7a11ed + 6310, nil},
		{6, 160, 3, 0x7a11ed + 6340, nil},
		{9, 160, 4, 0x7a11ed + 9410, nil},
		{9, 160, 4, 0x7a11ed + 9440, nil},
		{11, 160, 5, 0x7a11ed + 11540, nil},
		{12, 160, 8, 0x7a11ed + 12830, nil},
		{13, 160, 6, 0x7a11ed + 13640, nil},
		// Worker counts on one tiled plan.
		{6, 200, 3, 0xb17 + 630, nil},
		{10, 200, 4, 0xb17 + 1040, nil},
		{12, 200, 6, 0xb17 + 1260, nil},
		{13, 200, 5, 0xb17 + 1350, nil},
		// Worlds, 1-qubit shards among them.
		{7, 120, 3, 31, []int{1}},
		{7, 120, 3, 62, []int{2}},
		{7, 120, 3, 124, []int{4}},
		{7, 120, 3, 248, []int{8}},
		{2, 120, 3, 62, []int{2}},
		{3, 120, 3, 124, []int{4}},
		{4, 120, 3, 248, []int{8}},
		{8, 60, 3, 404, []int{2}},
		// Long and plain soups on one device.
		{8, 500, 3, 31, nil},
		{6, 120, 3, 42, nil},
	}
	for seed := uint64(0); seed < 5; seed++ {
		rows = append(rows, row{6, 80, 2, seed, []int{8}})
	}
	for _, r := range rows {
		name := fmt.Sprintf("soup n=%d seed=%#x", r.n, r.seed)
		checkAgainstOracle(t, name, oracle.Soup(r.n, r.gates, qmath.NewRNG(r.seed)), r.tile, r.worlds, r.seed)
	}
	// Basis prefixes (oracle.BasisSoup): X on the qubits of xs, rank
	// positions included, then a CX from each — flips, known controls
	// and shards that stay zero until a rank bit mixes.
	for _, r := range []struct {
		n, gates, tile int
		xs, seed       uint64
		worlds         []int
	}{
		{2, 40, 1, 0b10, 71, []int{1, 2}},
		{5, 80, 2, 0b10110, 72, []int{1, 2, 4, 8}},
		{7, 120, 3, 0b1100001, 73, []int{2, 4, 8}},
		{7, 60, 3, 0b1111111, 74, []int{4, 8}},
		{9, 160, 4, 0b100101010, 75, []int{1, 2, 4}},
		{10, 200, 4, 0b1111000000, 76, []int{8}},
		{12, 200, 6, 0b101011100101, 77, nil},
		{13, 160, 5, 0b1000000000001, 78, nil},
	} {
		name := fmt.Sprintf("basis %#b soup n=%d seed=%d", r.xs, r.n, r.seed)
		checkAgainstOracle(t, name, oracle.BasisSoup(r.n, r.gates, r.xs, qmath.NewRNG(r.seed)), r.tile, r.worlds, r.seed)
	}
	// Each locality case on a 4-rank world of 4 qubits: 0 and 1 in the
	// shard, 2 and 3 on rank bits.
	for name, build := range map[string]func(c *circuit.Circuit){
		"local-local":       func(c *circuit.Circuit) { c.CX(0, 1).CP(0.5, 1, 0) },
		"global-ctl-local":  func(c *circuit.Circuit) { c.CX(3, 1).CRY(0.8, 2, 0) },
		"local-ctl-global":  func(c *circuit.Circuit) { c.CX(0, 3).CP(1.1, 1, 2) },
		"global-global":     func(c *circuit.Circuit) { c.CX(2, 3).CP(0.4, 3, 2) },
		"single-global":     func(c *circuit.Circuit) { c.RY(1.2, 3).H(2) },
		"swap-cross-border": func(c *circuit.Circuit) { c.SWAP(1, 3) },
	} {
		c := circuit.New(4, 0)
		for q := 0; q < 4; q++ {
			c.H(q)
		}
		c.RY(0.3, 0).RY(0.7, 2)
		build(c)
		checkAgainstOracle(t, name, c, 1, []int{4}, 4)
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
	for _, q := range []struct{ n, tile int }{{6, 3}, {10, 4}, {12, 6}, {13, 5}} {
		c, err := qft.Circuit(q.n, true)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, c.Name, c, q.tile, []int{2, 4}, uint64(q.n))
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
			got := engineRuns(t, tc.c, &observable.Hamiltonian{NumQubits: n}, fold(2, n), []int{2, 4, 8})
			got["oracle"] = engineRun{probs: oracle.Run(tc.c).Probabilities()}
			for engine, r := range got {
				if d := maxDiff(r.probs, tc.want); d > 1e-12 {
					t.Errorf("%s n=%d: %s is %g off the closed form", tc.name, n, engine, d)
				}
			}
		}
	}
}

// FuzzEnginesMatchOracle lets the fuzzer pick the register width, the
// world, the tile width and the gate soup, and with the seed's top 16
// bits the qubits of the soup's basis prefix (oracle.BasisSoup; none
// below 2^48).
func FuzzEnginesMatchOracle(f *testing.F) {
	f.Add(uint8(6), uint8(2), uint8(2), uint8(80), uint64(1))
	f.Add(uint8(2), uint8(1), uint8(0), uint8(40), uint64(2)) // 1-qubit shards
	f.Add(uint8(10), uint8(3), uint8(7), uint8(120), uint64(3))
	f.Add(uint8(5), uint8(0), uint8(1), uint8(200), uint64(4))           // a one-rank world
	f.Add(uint8(6), uint8(2), uint8(2), uint8(80), uint64(0b100101)<<48) // basis prefixes
	f.Add(uint8(7), uint8(3), uint8(1), uint8(60), uint64(0b11100000)<<48|5)
	f.Add(uint8(9), uint8(1), uint8(3), uint8(150), uint64(0xffff)<<48|6)
	f.Fuzz(func(t *testing.T, width, rankBits, tile, gates uint8, seed uint64) {
		n := 2 + int(width)%9               // 2..10
		ranks := 1 << uint(int(rankBits)%4) // 1, 2, 4, 8
		c := oracle.BasisSoup(n, 1+int(gates), seed>>48, qmath.NewRNG(seed))
		checkAgainstOracle(t, "fuzz", c, fold(int(tile), n), []int{ranks}, seed)
	})
}
