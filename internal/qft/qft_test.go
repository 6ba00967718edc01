package qft

import (
	"math"
	"math/cmplx"
	"testing"

	"qgear/internal/kernel"
	"qgear/internal/statevec"
)

// fidelity is |<a|b>|² over the two amplitude vectors.
func fidelity(a, b *statevec.State) float64 {
	var ip complex128
	bb := b.Amplitudes()
	for i, x := range a.Amplitudes() {
		ip += cmplx.Conj(x) * bb[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// runCircuitState executes the QFT circuit on |basis>.
func runState(t *testing.T, n int, basis uint64, reverse bool) *statevec.State {
	t.Helper()
	c, err := Circuit(n, reverse)
	if err != nil {
		t.Fatal(err)
	}
	s := statevec.MustNew(n, 1)
	if err := s.PrepareBasis(basis); err != nil {
		t.Fatal(err)
	}
	for _, op := range c.Ops {
		s.ApplyGate(op.Gate, op.Qubits, op.Params)
	}
	return s
}

func TestQFTMatchesDFTMatrix(t *testing.T) {
	// QFT|x> = (1/√N) Σ_k e^{2πi·xk/N}|k> in natural bit order with
	// the reversal swaps enabled.
	for _, n := range []int{1, 2, 3, 4} {
		N := 1 << uint(n)
		for x := 0; x < N; x++ {
			s := runState(t, n, uint64(x), true)
			for k := 0; k < N; k++ {
				want := cmplx.Exp(complex(0, 2*math.Pi*float64(x)*float64(k)/float64(N))) / complex(math.Sqrt(float64(N)), 0)
				if cmplx.Abs(s.Amp(uint64(k))-want) > 1e-10 {
					t.Fatalf("n=%d x=%d k=%d: amp %v, want %v", n, x, k, s.Amp(uint64(k)), want)
				}
			}
		}
	}
}

func TestQFTOnZeroIsUniform(t *testing.T) {
	s := runState(t, 5, 0, false)
	w := 1 / math.Sqrt(32)
	for i := 0; i < 32; i++ {
		if cmplx.Abs(s.Amp(uint64(i))-complex(w, 0)) > 1e-12 {
			t.Fatalf("QFT|0> not uniform at %d", i)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	n := 5
	fwd, err := Circuit(n, true)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := fwd.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	s := statevec.MustNew(n, 1)
	if err := s.PrepareBasis(19); err != nil {
		t.Fatal(err)
	}
	for _, op := range fwd.Ops {
		s.ApplyGate(op.Gate, op.Qubits, op.Params)
	}
	for _, op := range inv.Ops {
		s.ApplyGate(op.Gate, op.Qubits, op.Params)
	}
	if cmplx.Abs(s.Amp(19)-1) > 1e-10 {
		t.Fatalf("QFT·QFT† != I: amp(19) = %v", s.Amp(19))
	}
}

func TestGateCount(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33} {
		c, err := Circuit(n, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(c.Ops); got != GateCount(n) {
			t.Fatalf("n=%d: %d ops, want %d", n, got, GateCount(n))
		}
	}
	// Table 1's QFT row: "max gate depth 528" at the top of the 16–33
	// qubit sweep; GateCount(32) = 32 + 496 = 528.
	if GateCount(32) != 528 {
		t.Fatalf("GateCount(32) = %d, want 528 (Table 1)", GateCount(32))
	}
}

func TestPruningTradesFidelityForGates(t *testing.T) {
	// Deep QFT rotations shrink as 2π/2^(j-i+1); pruning at 1e-2 drops
	// the long tail with tiny fidelity loss.
	n := 12
	c, err := Circuit(n, false)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := kernel.FromCircuit(c, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, st, err := kernel.FromCircuit(c, kernel.Options{PruneAngle: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if st.PrunedGates == 0 {
		t.Fatal("nothing pruned")
	}
	if pruned.NumGates() >= full.NumGates() {
		t.Fatal("pruning did not reduce gate count")
	}
	a := statevec.MustNew(n, 1)
	b := statevec.MustNew(n, 1)
	if err := a.PrepareBasis(1234); err != nil {
		t.Fatal(err)
	}
	if err := b.PrepareBasis(1234); err != nil {
		t.Fatal(err)
	}
	if err := kernel.Execute(full, a); err != nil {
		t.Fatal(err)
	}
	if err := kernel.Execute(pruned, b); err != nil {
		t.Fatal(err)
	}
	f := fidelity(a, b)
	if f < 0.999 {
		t.Fatalf("pruning at 1e-2 lost too much fidelity: %g", f)
	}
}

func TestBadSizes(t *testing.T) {
	if _, err := Circuit(0, false); err == nil {
		t.Fatal("0-qubit QFT accepted")
	}
	if _, err := Circuit(-1, false); err == nil {
		t.Fatal("negative QFT accepted")
	}
}
