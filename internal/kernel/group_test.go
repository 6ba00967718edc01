package kernel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// headers counts a plan's diagonal groups: TileTable headers and
// SegGlobals of more than one instruction.
func headers(p *TilePlan) (groups, members int) {
	for _, op := range p.Ops {
		if op.Kind == statevec.TileTable {
			groups, members = groups+1, members+op.Members()
		}
	}
	for _, seg := range p.Segments {
		if seg.Kind == SegGlobal && seg.Hi-seg.Lo > 1 {
			groups, members = groups+1, members+int(seg.Hi-seg.Lo)
		}
	}
	return groups, members
}

// TestDiagGroupRule: a group is a maximal run of adjacent diagonal
// gates, cut by a SWAP, a barrier or a measurement and capped at
// statevec.MaxTableBits free bits; a lone diagonal compiles as it always
// has. Both plan shapes form the same groups.
func TestDiagGroupRule(t *testing.T) {
	ladder := func(k *Kernel) *Kernel { return k.CR1(0.3, 0, 1).CR1(0.2, 0, 2) }
	for _, tc := range []struct {
		name string
		k    *Kernel
		runs []int // what diagGroup cuts the stream into, from instruction 0
	}{
		{"swap", ladder(New("swap", 4)).Swap(0, 1).Rz(0.1, 3).ZCtrl(2, 3), []int{2, 0, 2}},
		{"barrier", ladder(New("barrier", 4)).Barrier().Rz(0.1, 3).ZCtrl(2, 3), []int{2, 0, 2}},
		{"measure", ladder(New("measure", 4)).MeasureOne(3, 0).Rz(0.1, 3).ZCtrl(2, 3), []int{2, 0, 2}},
		{"mixing gate", ladder(New("mixing", 4)).H(3).Rz(0.1, 3), []int{2, 0, 1}},
		{"lone", New("lone", 3).H(0).gate1(gate.T, 1).H(2), []int{0, 1, 0}},
	} {
		var got []int
		for i := 0; i < len(tc.k.Instrs); {
			n := diagGroup(tc.k.Instrs[i:])
			got = append(got, n)
			i += max(n, 1)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.runs) {
			t.Errorf("%s: cut into %v, want %v", tc.name, got, tc.runs)
		}
		want := 0
		for _, n := range tc.runs {
			if n >= 2 {
				want++
			}
		}
		for _, cfg := range []PlanConfig{{}, {TileBits: 2}} {
			if g, _ := headers(mustPlan(t, tc.k, cfg)); g != want {
				t.Errorf("%s %+v: %d groups, want %d", tc.name, cfg, g, want)
			}
		}
	}

	// Eleven cr1 on one control read eleven free bits: the first ten are
	// a group, the last is alone. A shrinking common set counts too: cz
	// on (0,1) then on (2,3) share nothing, four free bits.
	wide := New("wide", 12)
	for q := 1; q < 12; q++ {
		wide.CR1(0.1*float64(q), 0, q)
	}
	if n := diagGroup(wide.Instrs); n != 10 {
		t.Errorf("cr1 ladder of 11: group of %d, want 10", n)
	}
	if n := diagGroup(wide.Instrs[10:]); n != 1 {
		t.Errorf("the 11th cr1: group of %d, want a lone gate", n)
	}
	if n := diagGroup(New("cz", 4).ZCtrl(0, 1).ZCtrl(2, 3).Instrs); n != 2 {
		t.Errorf("cz on (0,1) and (2,3): group of %d, want 2", n)
	}
	rz := New("rz", 12)
	for q := 0; q < 12; q++ {
		rz.Rz(0.1, q)
	}
	if n := diagGroup(rz.Instrs); n != 10 {
		t.Errorf("rz on 12 qubits: group of %d, want 10", n)
	}

	// A lone diagonal compiles exactly as it always has: one op, no header.
	lone := New("lone", 6).H(0).CR1(0.7, 0, 5).H(1)
	p := mustPlan(t, lone, PlanConfig{TileBits: 3})
	if g, _ := headers(p); g != 0 || len(p.Ops) != 3 || p.Ops[1] != statevec.DiagOp(gate.Matrix1(gate.P, []float64{0.7})[3], 1, 1<<5) {
		t.Errorf("lone cr1: ops %+v", p.Ops)
	}
}

// TestUngroupedPlansUnchanged: circuits with no two adjacent diagonal
// gates — randcirc's RY·RZ·CX blocks (serve_mix's circuits), QCrank's
// H/RY/CX — compile to the bytes they compiled to before diagonal
// groups existed, per-gate, tiled and distributed. The three tiled
// hashes moved once since: early eviction (evictEarly) makes some
// relabels sooner, with other victims.
func TestUngroupedPlansUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    *Kernel
		cfg  PlanConfig
		sum  string // sha256 of the encoded plan
	}{
		{"randcirc-12/per-gate", randKernel(t, 12), PlanConfig{TileBits: 16}, "72c5e8040f45225fa234d4ea2e9e6cead984bef949e1e73aba97e96108990b0c"},
		{"randcirc-20/tile-16", randKernel(t, 20), PlanConfig{TileBits: 16}, "1ed72644784b52255f450910d5176d6aa29d952651f40ebffcbffbb1ab15dd9d"},
		{"randcirc-20/16-ranks", randKernel(t, 20), PlanConfig{TileBits: 14, GlobalBits: 4}, "fea50577408b1faed79b8e32bb56740efd74f8a3a0347f9d1829361737c58c5c"},
		{"qcrank/2-ranks", qcrankKernel(t), qcrankPlanConfig, "3657e425d0de329f15d7b12205d7b39cb52da18713feb9f18302d129a5fe5ba2"},
		{"qcrank/per-gate", qcrankKernel(t), PlanConfig{}, "e311cba6a7aafe6e294025b051646756d0501199799c684f758e324a04446c7f"},
	} {
		p := mustPlan(t, tc.k, tc.cfg)
		sum := sha256.Sum256(encodePlanBytes(t, p))
		if g, _ := headers(p); g != 0 || hex.EncodeToString(sum[:]) != tc.sum {
			t.Errorf("%s: %d groups, encoding %x; want none and %s", tc.name, g, sum, tc.sum)
		}
	}
}

// tfimCircuit is a Trotterized transverse-field Ising evolution: an rx
// layer, then the rz layer and cp ladder of the ZZ terms — n + n−1
// adjacent diagonals per step.
func tfimCircuit(n, steps int) *circuit.Circuit {
	c := circuit.New(n, 0)
	for s := 0; s < steps; s++ {
		for q := 0; q < n; q++ {
			c.RX(0.3+0.01*float64(q), q)
		}
		for q := 0; q < n; q++ {
			c.RZ(0.7-0.02*float64(q), q)
		}
		for q := 0; q+1 < n; q++ {
			c.CP(0.4+0.03*float64(q), q, q+1)
		}
	}
	return c
}

// diagSoup is oracle.Soup weighted toward the diagonal family — about two
// gates in three — with SWAPs and the mixing gates between them.
func diagSoup(n, gates int, rng *qmath.RNG) *circuit.Circuit {
	c := circuit.New(n, 0)
	for i := 0; i < gates; i++ {
		q0, q1 := rng.Intn(n), rng.Intn(n-1)
		if q1 >= q0 {
			q1++
		}
		switch r := rng.Intn(12); {
		case r < 3:
			c.Append(gate.CP, []int{q0, q1}, []float64{rng.Angle()})
		case r < 5:
			c.Append(gate.RZ, []int{q0}, []float64{rng.Angle()})
		case r < 6:
			c.Append(gate.CZ, []int{q0, q1}, nil)
		case r < 7:
			c.Append([]gate.Type{gate.Z, gate.S, gate.Sdg, gate.T, gate.Tdg}[rng.Intn(5)], []int{q0}, nil)
		case r < 8:
			c.Append(gate.P, []int{q0}, []float64{rng.Angle()})
		case r < 9:
			c.Append(gate.SWAP, []int{q0, q1}, nil)
		case r < 10:
			c.H(q0)
		case r < 11:
			c.RX(rng.Angle(), q0)
		default:
			c.CX(q0, q1)
		}
	}
	return c
}

// groupedCircuits are the diagonal-heavy workloads the bit-identity
// suites run: QFT (cr1 ladders), TFIM (rz layers and cp ladders) and
// diagonal soups with SWAPs.
func groupedCircuits(n int) []*circuit.Circuit {
	return []*circuit.Circuit{
		qftCircuit(n), tfimCircuit(n, 3),
		diagSoup(n, 160, qmath.NewRNG(uint64(n))), diagSoup(n, 160, qmath.NewRNG(uint64(n)+100)),
	}
}

// TestGroupedPlansBitIdentical: on circuits full of diagonal groups the
// per-gate plan (aer's) and the tiled plan at every width from 2 to 16
// leave bit-identical states at 1 to 3 workers, within 1e-12 of the
// oracle.
func TestGroupedPlansBitIdentical(t *testing.T) {
	for _, n := range []int{5, 9, 14} {
		for ci, c := range groupedCircuits(n) {
			k, _, err := FromCircuit(c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref := statevec.MustNew(n, 1)
			perGate := mustPlan(t, k, PlanConfig{})
			if g, _ := headers(perGate); g == 0 {
				t.Fatalf("n=%d circuit %d: no diagonal group", n, ci)
			}
			if err := perGate.Execute(ref); err != nil {
				t.Fatal(err)
			}
			if d := maxProbDiff(ref, oracle.Run(c).Probabilities()); d > 1e-12 {
				t.Errorf("n=%d circuit %d: per-gate vs oracle %g", n, ci, d)
			}
			for tb := 2; tb <= 16; tb++ {
				w := 1 + tb%3
				s := statevec.MustNew(n, w)
				if err := executeTiled(k, s, tb); err != nil {
					t.Fatal(err)
				}
				if d := maxAmpDiff(t, s, ref); d != 0 {
					t.Errorf("n=%d circuit %d tile=%d workers=%d: %g from the per-gate plan, want 0", n, ci, tb, w, d)
				}
				s.Release()
			}
			ref.Release()
		}
	}
}
