package kernel

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// runKernel executes a kernel on a fresh state.
func runKernel(t *testing.T, k *Kernel) *statevec.State {
	t.Helper()
	s := statevec.MustNew(k.NumQubits, 1)
	if err := Execute(k, s); err != nil {
		t.Fatal(err)
	}
	return s
}

// fidelity is |<a|b>|² over the two amplitude vectors.
func fidelity(a, b *statevec.State) float64 {
	var ip complex128
	bb := b.Amplitudes()
	for i, x := range a.Amplitudes() {
		ip += cmplx.Conj(x) * bb[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

func TestBuilderGHZKernel(t *testing.T) {
	// The paper's ghz_kernel listing (Fig. 2b).
	n := 5
	k := New("ghz", n)
	k.H(0)
	for i := 1; i < n; i++ {
		k.XCtrl(0, i)
	}
	k.Mz()
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.NumGates() != 5 || k.CountTwoQubit() != 4 || !k.HasMeasurements() {
		t.Fatalf("ghz kernel shape wrong: gates=%d 2q=%d", k.NumGates(), k.CountTwoQubit())
	}
	s := runKernel(t, k)
	w := 1 / math.Sqrt2
	if cmplx.Abs(s.Amp(0)-complex(w, 0)) > 1e-12 || cmplx.Abs(s.Amp(31)-complex(w, 0)) > 1e-12 {
		t.Fatal("GHZ kernel state wrong")
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
	mustPanic("range", func() { New("k", 2).H(2) })
	mustPanic("dup operands", func() { New("k", 2).XCtrl(1, 1) })
	mustPanic("negative size", func() { New("k", -1) })
	mustPanic("negative clbit", func() { New("k", 2).MeasureOne(0, -1) })
}

func TestFromCircuitCarriesMeasurements(t *testing.T) {
	c := circuit.GHZ(3, true)
	k, st, err := FromCircuit(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Measurements != 3 || !k.HasMeasurements() {
		t.Fatal("measurements dropped")
	}
	if k.NumClbits != 3 {
		t.Fatal("clbits not carried")
	}
	k2, _, err := FromCircuit(c, Options{DropMeasurements: true})
	if err != nil {
		t.Fatal(err)
	}
	if k2.HasMeasurements() {
		t.Fatal("DropMeasurements ignored")
	}
}

func TestFromCircuitRejectsInvalid(t *testing.T) {
	bad := &circuit.Circuit{NumQubits: 1, Ops: []circuit.Op{{Gate: gate.CX, Qubits: []int{0, 5}}}}
	if _, _, err := FromCircuit(bad, Options{}); err == nil {
		t.Fatal("invalid circuit accepted")
	}
}

func TestPruningDropsSmallAngles(t *testing.T) {
	c := circuit.New(3, 0)
	c.H(0).CP(1e-7, 0, 1).RY(0.8, 2).RZ(1e-9, 1).CX(0, 2)
	k, st, err := FromCircuit(c, Options{PruneAngle: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if st.PrunedGates != 2 {
		t.Fatalf("pruned %d gates, want 2", st.PrunedGates)
	}
	// The pruned kernel state must stay within the pruning error.
	full, _, err := FromCircuit(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f := fidelity(runKernel(t, full), runKernel(t, k)); f < 1-1e-8 {
		t.Fatalf("pruning destroyed fidelity: %g", f)
	}
	// Non-prunable gates (H, CX) are never dropped even at huge
	// thresholds.
	k2, st2, err := FromCircuit(circuit.GHZ(3, false), Options{PruneAngle: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st2.PrunedGates != 0 || k2.NumGates() != 3 {
		t.Fatal("pruning dropped non-rotation gates")
	}
}

func TestAdjointRoundTrip(t *testing.T) {
	k, _, err := FromCircuit(oracle.Soup(5, 80, qmath.NewRNG(17)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	adj, err := k.Adjoint()
	if err != nil {
		t.Fatal(err)
	}
	s := statevec.MustNew(5, 1)
	if err := Execute(k, s); err != nil {
		t.Fatal(err)
	}
	if err := Execute(adj, s); err != nil {
		t.Fatal(err)
	}
	// Fidelity with |0...0> is the weight left on amplitude 0.
	if a := cmplx.Abs(s.Amp(0)); a*a < 1-1e-9 {
		t.Fatalf("k·k† != I, fidelity %g", a*a)
	}
}

func TestAdjointRejectsMeasured(t *testing.T) {
	k := New("m", 1).H(0).Mz()
	if _, err := k.Adjoint(); err == nil {
		t.Fatal("adjoint of measured kernel accepted")
	}
}

func TestExecuteSizeMismatch(t *testing.T) {
	k := New("k", 3).H(0)
	s := statevec.MustNew(2, 1)
	if err := Execute(k, s); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []*Kernel{
		{NumQubits: 2, Instrs: []Instr{{Kind: KGate, Gate: gate.Measure, Qubits: []int{0}}}},
		{NumQubits: 2, Instrs: []Instr{{Kind: KGate, Gate: gate.CX, Qubits: []int{0}}}},
		{NumQubits: 2, Instrs: []Instr{{Kind: KGate, Gate: gate.RY, Qubits: []int{0}}}},
		{NumQubits: 2, Instrs: []Instr{{Kind: KGate, Gate: gate.H, Qubits: []int{4}}}},
		{NumQubits: 2, Instrs: []Instr{{Kind: InstrKind(1), Qubits: []int{0, 1}}}}, // the old fused-block kind
		{NumQubits: 2, NumClbits: 0, Instrs: []Instr{{Kind: KMeasure, Qubits: []int{0}, Clbit: 0}}},
		{NumQubits: 2, Instrs: []Instr{{Kind: InstrKind(9), Qubits: []int{0}}}},
		{NumQubits: -2},
	}
	for i, k := range cases {
		if err := k.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestStringRendering(t *testing.T) {
	k := New("demo", 2).H(0).CR1(0.25, 0, 1).Mz()
	s := k.String()
	for _, want := range []string{"kernel demo(qvector[2])", "h q[0]", "cr1(0.25) q[0 1]", "mz(q[1]) -> c[1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q in:\n%s", want, s)
		}
	}
}

func TestTransformIsConstantTimePerGate(t *testing.T) {
	// Lemma B.2 / §2.1: conversion cost is linear in gate count (no
	// super-linear blowup). We verify the output size tracks input size
	// exactly; wall-clock linearity is covered by BenchmarkTransform.
	for _, ops := range []int{100, 1000, 4000} {
		c := oracle.Soup(8, ops, qmath.NewRNG(uint64(ops)))
		k, st, err := FromCircuit(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st.EmittedOps != ops || len(k.Instrs) != ops {
			t.Fatalf("ops=%d: emitted %d", ops, st.EmittedOps)
		}
	}
}
