package qft

import (
	"math"
	"math/cmplx"
	"testing"

	"qgear/internal/gate"
	"qgear/internal/kernel"
	"qgear/internal/oracle"
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
	inv, err := Inverse(n, true)
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

func TestKernelWithFusionMatchesCircuit(t *testing.T) {
	n := 6
	k, st, err := Kernel(n, true, kernel.Options{FusionWindow: 5}) // the Appendix D.2 configuration
	if err != nil {
		t.Fatal(err)
	}
	if st.FusedGroups == 0 {
		t.Fatal("fusion=5 produced no fused groups")
	}
	plain := runState(t, n, 11, true)
	s := statevec.MustNew(n, 1)
	if err := s.PrepareBasis(11); err != nil {
		t.Fatal(err)
	}
	if err := kernel.Execute(k, s); err != nil {
		t.Fatal(err)
	}
	if f := fidelity(s, plain); f < 1-1e-10 {
		t.Fatalf("fused QFT kernel fidelity %g", f)
	}
}

// TestFusedQFTKeepsDiagonals: under the paper's fusion = 5 a window of
// cr1 gates alone is not a dense block — it stays gates, which every
// plan runs as a phase table — so each fused block holds a Hadamard,
// every plan has diagonal groups, and the per-gate and tiled plans are
// bit-identical to each other and within 1e-12 of the oracle.
func TestFusedQFTKeepsDiagonals(t *testing.T) {
	const n, basis = 12, 0b100001000010
	k, st, err := Kernel(n, true, kernel.Options{FusionWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	gates := 0
	for _, in := range k.Instrs {
		if in.Kind == kernel.KGate && in.Gate == gate.CP {
			gates++
		}
		if in.Kind != kernel.KFused {
			continue
		}
		dim := 1 << uint(len(in.Qubits))
		diagonal := true
		for i, v := range in.Mat {
			diagonal = diagonal && (i/dim == i%dim || v == 0)
		}
		if diagonal {
			t.Fatalf("fused block on %v is diagonal", in.Qubits)
		}
	}
	if st.FusedGroups == 0 || gates == 0 || gates+st.FusedGates+st.PrunedGates < GateCount(n) {
		t.Fatalf("%d fused groups of %d gates, %d cr1 left as gates", st.FusedGroups, st.FusedGates, gates)
	}
	c, err := Circuit(n, true)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New(n)
	o[0], o[basis] = 0, 1
	for _, op := range c.Ops {
		o.Apply(op.Gate, op.Qubits, op.Params)
	}
	var ref *statevec.State
	for _, tb := range []int{0, 6, 16} {
		p, err := kernel.Plan(k, kernel.PlanConfig{TileBits: tb})
		if err != nil {
			t.Fatal(err)
		}
		groups := 0
		for _, seg := range p.Segments {
			if seg.Kind == kernel.SegGlobal && seg.Hi-seg.Lo > 1 {
				groups++
			}
		}
		for _, op := range p.Ops {
			if op.Kind == statevec.TileTable {
				groups++
			}
		}
		s := statevec.MustNew(n, 2)
		if err := s.PrepareBasis(basis); err != nil {
			t.Fatal(err)
		}
		if err := p.Execute(s); err != nil {
			t.Fatal(err)
		}
		for i, a := range s.Amplitudes() {
			if cmplx.Abs(a-o[i]) > 1e-12 || ref != nil && a != ref.Amp(uint64(i)) {
				t.Fatalf("tile %d: amplitude %d = %v, oracle %v", tb, i, a, o[i])
			}
		}
		if groups == 0 {
			t.Errorf("tile %d: no diagonal group in the plan", tb)
		}
		if ref == nil {
			ref = s
		}
	}
}

func TestPruningTradesFidelityForGates(t *testing.T) {
	// Deep QFT rotations shrink as 2π/2^(j-i+1); pruning at 1e-2 drops
	// the long tail with tiny fidelity loss.
	n := 12
	full, _, err := Kernel(n, false, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, st, err := Kernel(n, false, kernel.Options{PruneAngle: 1e-2})
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
	if _, _, err := Kernel(-1, false, kernel.Options{}); err == nil {
		t.Fatal("negative QFT accepted")
	}
	if _, err := Inverse(0, false); err == nil {
		t.Fatal("0-qubit inverse accepted")
	}
}
