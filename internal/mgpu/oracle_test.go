package mgpu

import (
	"fmt"
	"math"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/kernel"
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

// oracleProbs walks the source circuit (not the transformed kernel:
// the transform is under test too) through the naive reference.
func oracleProbs(c *circuit.Circuit) []float64 {
	o := oracle.New(c.NumQubits)
	for _, op := range c.Ops {
		o.Apply(op.Gate, op.Qubits, op.Params)
	}
	return o.Probabilities()
}

// engineProbs runs c un-fused through every executor: per-gate and
// planned on one device, planned on each world of worlds that leaves a
// rank at least one qubit (1 = a one-rank world running the
// single-process plan). tile is folded into [1, n).
func engineProbs(t testing.TB, c *circuit.Circuit, tile int, worlds []int) map[string][]float64 {
	t.Helper()
	n := c.NumQubits
	tile = 1 + tile%(n-1)
	k, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]float64{"per-gate": singleDeviceProbs(t, k)}
	s := statevec.MustNew(n, 2)
	defer s.Release()
	if err := planFor(t, k, 1, tile).Execute(s); err != nil {
		t.Fatal(err)
	}
	out["planned"] = s.Probabilities()
	for _, ranks := range worlds {
		if n-log2ranks(ranks) < 1 {
			continue
		}
		out[fmt.Sprintf("mgpu/%d", ranks)] = simulate(t, k, ranks, tile, 1).Probabilities
	}
	return out
}

// checkAgainstOracle holds every engine to max |Δp| = 0 against the
// per-gate engine, 1e-12 against the oracle, and total probability 1.
func checkAgainstOracle(t testing.TB, name string, c *circuit.Circuit, tile int, worlds []int) {
	t.Helper()
	want := oracleProbs(c)
	got := engineProbs(t, c, tile, worlds)
	for engine, p := range got {
		if d := maxDiff(p, got["per-gate"]); d != 0 {
			t.Errorf("%s: %s vs per-gate diff %g, want exact 0", name, engine, d)
		}
		if d := maxDiff(p, want); d > 1e-12 {
			t.Errorf("%s: %s vs oracle diff %g > 1e-12", name, engine, d)
		}
		var sum float64
		for _, v := range p {
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
		checkAgainstOracle(t, "soup", gateSoup(n, 160, qmath.NewRNG(seed*7919)), int(seed), worlds)
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
		checkAgainstOracle(t, c.Name, c, 3, worlds)
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
			got := engineProbs(t, tc.c, 2, []int{2, 4, 8})
			got["oracle"] = oracleProbs(tc.c)
			for engine, p := range got {
				if d := maxDiff(p, tc.want); d > 1e-12 {
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
		checkAgainstOracle(t, "fuzz", c, int(tile), []int{ranks})
	})
}
