package kernel

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/statevec"
)

// paramCircuit builds a parameterized workload that exercises every
// binding-site kind once planned: tile-local rotations (BindRun),
// rotations on qubits above the tile boundary (BindGlobal), and — with
// GlobalBits — rotations on rank qubits, relabeled into the tile
// (BindRun again).
func paramCircuit(nq int, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(nq, 0)
	for q := 0; q < nq; q++ {
		c.H(q)
	}
	for i := 0; i < 3*nq; i++ {
		q := rng.Intn(nq)
		switch rng.Intn(5) {
		case 0:
			c.RX(rng.Float64()*6, q)
		case 1:
			c.RY(rng.Float64()*6, q)
		case 2:
			c.RZ(rng.Float64()*6, q)
		case 3:
			c.CP(rng.Float64()*6, q, (q+1)%nq)
		case 4:
			c.CX(q, (q+1)%nq)
		}
	}
	return c
}

func ampsOf(t *testing.T, p *TilePlan, nq int) []complex128 {
	t.Helper()
	s, err := statevec.New(nq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Execute(s); err != nil {
		t.Fatal(err)
	}
	return s.Amplitudes()
}

func sameAmps(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestPlanBindBitIdentity: rebinding a compiled plan to new parameter
// values must reproduce, bit for bit, the amplitudes of a plan freshly
// compiled from the rebound kernel — across tiled and distributed
// (rank-relabeling) plan shapes.
func TestPlanBindBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		nq := 5 + rng.Intn(3)
		c := paramCircuit(nq, rng)
		k, _, err := FromCircuit(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nParams := k.NumParams()
		if nParams == 0 {
			continue
		}
		newVals := make([]float64, nParams)
		for i := range newVals {
			newVals[i] = rng.Float64() * 6
		}
		boundK, err := k.Bind(newVals)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []PlanConfig{
			{TileBits: 3},
			{TileBits: 3, GlobalBits: 1},
			{TileBits: 3, GlobalBits: 2},
		} {
			plan, err := Plan(k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plan.BindSlots != nParams {
				t.Fatalf("trial %d cfg %+v: plan has %d of %d parameter slots",
					trial, cfg, plan.BindSlots, nParams)
			}
			rebound, err := plan.Bind(newVals)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Plan(boundK, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The encoded plan carries every matrix, phase, and schedule
			// field, and encoding is deterministic — byte equality is
			// plan equality, and it works for distributed shapes a
			// single state cannot execute.
			if !bytes.Equal(encodePlanBytes(t, rebound), encodePlanBytes(t, fresh)) {
				t.Fatalf("trial %d cfg %+v: rebound plan diverges from fresh compile", trial, cfg)
			}
			// The source plan must be untouched by the rebinding.
			if !bytes.Equal(encodePlanBytes(t, plan), encodePlanBytes(t, mustPlan(t, k, cfg))) {
				t.Fatalf("trial %d cfg %+v: Bind mutated the receiver plan", trial, cfg)
			}
			if cfg.GlobalBits == 0 && !sameAmps(ampsOf(t, rebound, nq), ampsOf(t, fresh, nq)) {
				t.Fatalf("trial %d cfg %+v: rebound plan executes differently from fresh compile", trial, cfg)
			}
		}
	}
}

func mustPlan(t *testing.T, k *Kernel, cfg PlanConfig) *TilePlan {
	t.Helper()
	p, err := Plan(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func encodePlanBytes(t *testing.T, p *TilePlan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPlanSerializeRoundtripBinds: binding sites survive the plan
// encoding, and a decoded plan rebinds identically to the original.
func TestPlanSerializeRoundtripBinds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := paramCircuit(6, rng)
	k, _, err := FromCircuit(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(k, PlanConfig{TileBits: 3, GlobalBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodePlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.BindSlots != plan.BindSlots || len(decoded.Binds) != len(plan.Binds) {
		t.Fatalf("binding metadata lost: %d/%d vs %d/%d",
			decoded.BindSlots, len(decoded.Binds), plan.BindSlots, len(plan.Binds))
	}
	for i, b := range plan.Binds {
		if decoded.Binds[i] != b {
			t.Fatalf("binding site %d changed across the roundtrip: %+v vs %+v", i, decoded.Binds[i], b)
		}
	}
	vals := make([]float64, plan.BindSlots)
	for i := range vals {
		vals[i] = rng.Float64() * 6
	}
	a, err := plan.Bind(vals)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decoded.Bind(vals)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodePlanBytes(t, a), encodePlanBytes(t, b)) {
		t.Fatal("decoded plan rebinds differently from the original")
	}
}
