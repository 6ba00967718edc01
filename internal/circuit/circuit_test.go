package circuit

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"qgear/internal/gate"
	"qgear/internal/qmath"
)

// mat4Of computes the 4×4 unitary of a two-qubit circuit (qubits 0 and
// 1, q0 = low bit) by multiplying op matrices; a test-only reference
// independent of the simulator.
func mat4Of(t *testing.T, c *Circuit) gate.Mat4 {
	t.Helper()
	if c.NumQubits != 2 {
		t.Fatalf("mat4Of wants 2 qubits, got %d", c.NumQubits)
	}
	u := gate.Identity4()
	for _, op := range c.Ops {
		var m gate.Mat4
		switch {
		case op.Gate == gate.Barrier:
			continue
		case op.Gate.Arity() == 1:
			g := gate.Matrix1(op.Gate, op.Params)
			if op.Qubits[0] == 0 {
				m = kron(gate.Identity2(), g)
			} else {
				m = kron(g, gate.Identity2())
			}
		case op.Gate == gate.SWAP:
			m = gate.Matrix2(gate.SWAP, nil)
		default:
			// Controlled gate: extract the target unitary.
			var tgt gate.Mat2
			switch op.Gate {
			case gate.CX:
				tgt = gate.Matrix1(gate.X, nil)
			case gate.CZ:
				tgt = gate.Matrix1(gate.Z, nil)
			case gate.CP:
				tgt = gate.Matrix1(gate.P, op.Params)
			case gate.CRY:
				tgt = gate.Matrix1(gate.RY, op.Params)
			default:
				t.Fatalf("mat4Of: unhandled %v", op.Gate)
			}
			if op.Qubits[0] == 1 {
				m = gate.ControlledOnHigh(tgt)
			} else {
				// Controlled on the low qubit: the high-controlled
				// embedding with the pair swapped around it.
				sw := gate.Matrix2(gate.SWAP, nil)
				m = sw.Mul(gate.ControlledOnHigh(tgt)).Mul(sw)
			}
		}
		u = m.Mul(u)
	}
	return u
}

// kron returns the Kronecker product hi ⊗ lo: hi acts on the
// more-significant qubit of the pair, lo on the less-significant one.
func kron(hi, lo gate.Mat2) gate.Mat4 {
	var m gate.Mat4
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			for k := 0; k < 2; k++ {
				for l := 0; l < 2; l++ {
					m[(i*2+k)*4+(j*2+l)] = hi[i*2+j] * lo[k*2+l]
				}
			}
		}
	}
	return m
}

// equalUpToPhase4 reports whether a == e^{iφ}·b for some φ.
func equalUpToPhase4(a, b gate.Mat4, tol float64) bool {
	var phase complex128
	found := false
	for i := range a {
		if cmplx.Abs(b[i]) > 1e-9 {
			phase = a[i] / b[i]
			found = true
			break
		}
	}
	if !found {
		return false
	}
	if math.Abs(cmplx.Abs(phase)-1) > tol {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-phase*b[i]) > tol {
			return false
		}
	}
	return true
}

func TestBuilderBasics(t *testing.T) {
	c := New(3, 3)
	c.H(0).CX(0, 1).RY(0.5, 2).Measure(2, 0)
	if len(c.Ops) != 4 {
		t.Fatalf("want 4 ops, got %d", len(c.Ops))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Ops[1].Qubits[0] != 0 || c.Ops[1].Qubits[1] != 1 {
		t.Fatal("cx operands wrong")
	}
}

func TestBuilderPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("qubit range", func() { New(2, 0).H(2) })
	mustPanic("negative qubit", func() { New(2, 0).H(-1) })
	mustPanic("same operands", func() { New(2, 0).CX(1, 1) })
	mustPanic("clbit range", func() { New(2, 1).Measure(0, 5) })
	mustPanic("negative registers", func() { New(-1, 0) })
}

func TestCopyIsDeep(t *testing.T) {
	c := New(2, 0).RY(0.5, 0)
	d := c.Copy()
	d.Ops[0].Params[0] = 9
	d.Ops[0].Qubits[0] = 1
	if c.Ops[0].Params[0] != 0.5 || c.Ops[0].Qubits[0] != 0 {
		t.Fatal("Copy shares backing arrays")
	}
}

func TestGHZShape(t *testing.T) {
	c := GHZ(5, true)
	counts := c.GateCounts()
	if counts[gate.H] != 1 || counts[gate.CX] != 4 || counts[gate.Measure] != 5 {
		t.Fatalf("GHZ counts wrong: %v", counts)
	}
	if c.NumClbits != 5 {
		t.Fatal("MeasureAll should grow the classical register")
	}
	if !c.HasMeasurements() {
		t.Fatal("HasMeasurements false")
	}
	qs, cs := c.MeasuredQubits()
	for i := range qs {
		if qs[i] != i || cs[i] != i {
			t.Fatal("measure_all mapping wrong")
		}
	}
}

func TestDepth(t *testing.T) {
	if d := GHZ(4, false).Depth(); d != 4 {
		t.Fatalf("GHZ(4) depth = %d, want 4", d)
	}
	// Parallel single-qubit layers count once.
	c := New(3, 0).H(0).H(1).H(2)
	if d := c.Depth(); d != 1 {
		t.Fatalf("parallel H depth = %d, want 1", d)
	}
	// Barrier forces alignment: h(0); barrier; h(1) has depth 2.
	c2 := New(2, 0).H(0).Barrier().H(1)
	if d := c2.Depth(); d != 2 {
		t.Fatalf("barrier depth = %d, want 2", d)
	}
	// Without the barrier it would be 1.
	c3 := New(2, 0).H(0).H(1)
	if d := c3.Depth(); d != 1 {
		t.Fatalf("no-barrier depth = %d, want 1", d)
	}
	if d := New(0, 0).Depth(); d != 0 {
		t.Fatal("empty circuit depth != 0")
	}
}

func TestTwoQubitDepth(t *testing.T) {
	if d := GHZ(4, false).TwoQubitDepth(); d != 3 {
		t.Fatalf("GHZ(4) 2q-depth = %d, want 3", d)
	}
	// Disjoint CX pairs run in parallel: depth 1.
	c := New(4, 0).CX(0, 1).CX(2, 3)
	if d := c.TwoQubitDepth(); d != 1 {
		t.Fatalf("parallel CX 2q-depth = %d, want 1", d)
	}
	if n := c.CountTwoQubit(); n != 2 {
		t.Fatalf("CountTwoQubit = %d", n)
	}
}

func TestNumOpsExcludesBarriers(t *testing.T) {
	c := New(2, 0).H(0).Barrier().CX(0, 1)
	if n := c.NumOps(); n != 2 {
		t.Fatalf("NumOps = %d, want 2", n)
	}
}

func TestRemoveHelpers(t *testing.T) {
	c := GHZ(3, true).Barrier()
	u := c.RemoveMeasurements()
	if u.HasMeasurements() {
		t.Fatal("measurements not removed")
	}
	nb := c.RemoveBarriers()
	for _, op := range nb.Ops {
		if op.Gate == gate.Barrier {
			t.Fatal("barrier not removed")
		}
	}
	// The original is untouched.
	if !c.HasMeasurements() {
		t.Fatal("RemoveMeasurements mutated the original")
	}
}

func TestInverseIsIdentity(t *testing.T) {
	c := New(2, 0)
	c.H(0).RY(0.7, 1).CX(0, 1).CP(0.3, 1, 0).T(0).SWAP(0, 1).RZ(-1.2, 0)
	inv, err := c.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	comp, err := c.Compose(inv)
	if err != nil {
		t.Fatal(err)
	}
	u := mat4Of(t, comp)
	if !equalUpToPhase4(u, gate.Identity4(), 1e-10) {
		t.Fatalf("circuit·inverse != I:\n%v", u)
	}
}

func TestInverseRejectsMeasurement(t *testing.T) {
	if _, err := GHZ(2, true).Inverse(); err == nil {
		t.Fatal("expected error inverting measured circuit")
	}
}

func TestComposeSizeCheck(t *testing.T) {
	small := New(1, 0)
	big := New(3, 0)
	if _, err := small.Compose(big); err == nil {
		t.Fatal("expected size error")
	}
	if _, err := big.Compose(small); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	bad := []Circuit{
		{NumQubits: 2, Ops: []Op{{Gate: gate.Type(200), Qubits: []int{0}}}},
		{NumQubits: 2, Ops: []Op{{Gate: gate.CX, Qubits: []int{0}}}},
		{NumQubits: 2, Ops: []Op{{Gate: gate.RY, Qubits: []int{0}}}},
		{NumQubits: 2, Ops: []Op{{Gate: gate.H, Qubits: []int{7}}}},
		{NumQubits: 2, Ops: []Op{{Gate: gate.CX, Qubits: []int{1, 1}}}},
		{NumQubits: 2, NumClbits: 1, Ops: []Op{{Gate: gate.Measure, Qubits: []int{0}, Clbit: 3}}},
		{NumQubits: -1},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTranspileProducesNativeSet(t *testing.T) {
	c := New(2, 2)
	c.H(0).X(1).Y(0).Z(1).S(0).T(1).RX(0.3, 0).RY(0.4, 1).RZ(0.5, 0)
	c.P(0.6, 1).U3(0.1, 0.2, 0.3, 0).CX(0, 1).CZ(1, 0).CP(0.7, 0, 1)
	c.CRY(0.8, 1, 0).SWAP(0, 1).Barrier().Measure(0, 0)
	nat := c.Transpile(BasisNative)
	if err := nat.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, op := range nat.Ops {
		switch op.Gate {
		case gate.H, gate.RY, gate.RZ, gate.CX, gate.Measure, gate.Barrier:
		default:
			t.Fatalf("non-native gate %v survived transpile", op.Gate)
		}
	}
	// BasisKernel transpile is the identity.
	k := c.Transpile(BasisKernel)
	if len(k.Ops) != len(c.Ops) {
		t.Fatal("kernel transpile should not rewrite")
	}
}

func TestTranspilePreservesUnitary(t *testing.T) {
	// Every decomposable gate, checked as a 2-qubit matrix up to global
	// phase against the untranspiled circuit.
	builders := map[string]func(*Circuit){
		"x":    func(c *Circuit) { c.X(0) },
		"y":    func(c *Circuit) { c.Y(1) },
		"z":    func(c *Circuit) { c.Z(0) },
		"s":    func(c *Circuit) { c.S(0) },
		"sdg":  func(c *Circuit) { c.Append(gate.Sdg, []int{0}, nil) },
		"t":    func(c *Circuit) { c.T(1) },
		"tdg":  func(c *Circuit) { c.Append(gate.Tdg, []int{1}, nil) },
		"rx":   func(c *Circuit) { c.RX(0.9, 0) },
		"p":    func(c *Circuit) { c.P(1.1, 1) },
		"u3":   func(c *Circuit) { c.U3(0.4, 1.5, -0.6, 0) },
		"cz":   func(c *Circuit) { c.CZ(0, 1) },
		"cp":   func(c *Circuit) { c.CP(0.77, 1, 0) },
		"cry":  func(c *Circuit) { c.CRY(-1.1, 0, 1) },
		"swap": func(c *Circuit) { c.SWAP(0, 1) },
		"mix": func(c *Circuit) {
			c.H(0).RX(0.3, 1).CP(0.5, 0, 1).U3(1, 2, 3, 0).SWAP(0, 1).CZ(1, 0)
		},
	}
	for name, build := range builders {
		orig := New(2, 0)
		build(orig)
		nat := orig.Transpile(BasisNative)
		if !equalUpToPhase4(mat4Of(t, nat), mat4Of(t, orig), 1e-9) {
			t.Errorf("%s: transpiled unitary differs", name)
		}
	}
}

func TestTranspileRandomCircuitsProperty(t *testing.T) {
	// Random 2-qubit circuits keep their unitary (up to phase) and land
	// in the native set.
	r := qmath.NewRNG(1234)
	for trial := 0; trial < 40; trial++ {
		c := New(2, 0)
		for i := 0; i < 12; i++ {
			switch r.Intn(8) {
			case 0:
				c.H(r.Intn(2))
			case 1:
				c.RX(r.Angle(), r.Intn(2))
			case 2:
				c.RY(r.Angle(), r.Intn(2))
			case 3:
				c.RZ(r.Angle(), r.Intn(2))
			case 4:
				c.CX(0, 1)
			case 5:
				c.CP(r.Angle(), 1, 0)
			case 6:
				c.SWAP(0, 1)
			case 7:
				c.U3(r.Angle(), r.Angle(), r.Angle(), r.Intn(2))
			}
		}
		nat := c.Transpile(BasisNative)
		if !equalUpToPhase4(mat4Of(t, nat), mat4Of(t, c), 1e-8) {
			t.Fatalf("trial %d: transpile changed the unitary", trial)
		}
	}
}

func TestStringRendering(t *testing.T) {
	c := New(2, 2)
	c.Name = "demo"
	c.H(0).CP(0.25, 0, 1).Measure(1, 0)
	s := c.String()
	for _, want := range []string{"demo", "h q0", "cr1(0.25) q0, q1", "measure q1 -> c0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}
