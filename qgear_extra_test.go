package qgear

import (
	"math"
	"strings"
	"testing"
)

func TestQASMViaFacade(t *testing.T) {
	c := GHZ(3, true)
	src, err := ExportQASM(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "OPENQASM 2.0") || !strings.Contains(src, "cx q[0],q[2];") {
		t.Fatalf("export wrong:\n%s", src)
	}
	back, err := ParseQASM(src)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumQubits != 3 || back.CountTwoQubit() != 2 || !back.HasMeasurements() {
		t.Fatal("qasm round trip lost structure")
	}
	// The round-tripped circuit simulates identically.
	a, err := Run(c, RunOptions{Target: TargetAer})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(back, RunOptions{Target: TargetAer})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Probabilities {
		if math.Abs(a.Probabilities[i]-b.Probabilities[i]) > 1e-12 {
			t.Fatal("round-tripped circuit diverged")
		}
	}
}

// expectation is ⟨H⟩ through RunExpectation with the Hamiltonian's terms
// partitioned over `devices` term-parallel evaluators.
func expectation(c *Circuit, h *Hamiltonian, devices int) (float64, error) {
	res, err := RunExpectation(c, h, RunOptions{Target: TargetNvidiaMQPU, Devices: devices})
	if err != nil {
		return 0, err
	}
	return *res.ExpValue, nil
}

func TestExpectationViaFacade(t *testing.T) {
	// GHZ: <Z0Z1> + <Z1Z2> = 2; the measured circuit must also work
	// (measurements dropped for the pure state).
	c := GHZ(3, true)
	h := &Hamiltonian{NumQubits: 3}
	h.Add(NewPauliTerm(1, map[int]Pauli{0: PauliZ, 1: PauliZ}))
	h.Add(NewPauliTerm(1, map[int]Pauli{1: PauliZ, 2: PauliZ}))
	for _, devices := range []int{1, 2} {
		v, err := expectation(c, h, devices)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-2) > 1e-12 {
			t.Fatalf("devices=%d: <H> = %g, want 2", devices, v)
		}
	}
}

func TestTFIMViaFacade(t *testing.T) {
	// |0...0> has TFIM energy -J(n-1).
	n := 6
	c := NewCircuit(n, 0)
	h := TransverseFieldIsing(n, 1.25, 0.5)
	v, err := expectation(c, h, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-(-1.25*float64(n-1))) > 1e-12 {
		t.Fatalf("<H> = %g", v)
	}
}

func TestExpectationErrors(t *testing.T) {
	c := NewCircuit(2, 0)
	h := &Hamiltonian{NumQubits: 2}
	h.Add(NewPauliTerm(1, map[int]Pauli{5: PauliZ}))
	if _, err := expectation(c, h, 1); err == nil {
		t.Fatal("out-of-range term accepted")
	}
}
