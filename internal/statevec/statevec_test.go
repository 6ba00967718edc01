package statevec

import (
	"math"
	"math/cmplx"
	"testing"

	"qgear/internal/gate"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
)

func TestNewState(t *testing.T) {
	s := MustNew(3, 1)
	if s.Len() != 8 || s.NumQubits() != 3 {
		t.Fatal("size wrong")
	}
	if s.Amp(0) != 1 {
		t.Fatal("initial state not |000>")
	}
	if n := s.Norm(); math.Abs(n-1) > 1e-15 {
		t.Fatalf("norm %g", n)
	}
	if _, err := New(-1, 1); err == nil {
		t.Fatal("negative qubits accepted")
	}
	if _, err := New(MaxQubits+1, 1); err == nil {
		t.Fatal("oversize accepted")
	}
}

func TestHadamardOnZero(t *testing.T) {
	s := MustNew(1, 1)
	s.ApplyGate(gate.H, []int{0}, nil)
	want := complex(1/math.Sqrt2, 0)
	if cmplx.Abs(s.Amp(0)-want) > 1e-15 || cmplx.Abs(s.Amp(1)-want) > 1e-15 {
		t.Fatalf("H|0> wrong: %v %v", s.Amp(0), s.Amp(1))
	}
}

func TestBellState(t *testing.T) {
	s := MustNew(2, 1)
	s.ApplyGate(gate.H, []int{0}, nil)
	s.ApplyGate(gate.CX, []int{0, 1}, nil)
	w := 1 / math.Sqrt2
	if cmplx.Abs(s.Amp(0)-complex(w, 0)) > 1e-15 ||
		cmplx.Abs(s.Amp(3)-complex(w, 0)) > 1e-15 ||
		cmplx.Abs(s.Amp(1)) > 1e-15 || cmplx.Abs(s.Amp(2)) > 1e-15 {
		t.Fatalf("Bell state wrong: %v", s.Amplitudes())
	}
}

func TestAppendixAExample(t *testing.T) {
	// Appendix A: 3 qubits, control q0, target q2. In states with
	// q0=1 the amplitudes swap for q2: α001↔α101, α011↔α111
	// (bit order: index bit i = qubit i, so |q2 q1 q0>).
	s := MustNew(3, 1)
	// Load a recognizable non-uniform state.
	for i := 0; i < 8; i++ {
		s.SetAmp(uint64(i), complex(float64(i+1), 0))
	}
	s.ApplyGate(gate.CX, []int{0, 2}, nil)
	// q0 is bit 0, q2 is bit 2. Pairs with bit0=1: (001,101)=(1,5), (011,111)=(3,7).
	wants := []float64{1, 6, 3, 8, 5, 2, 7, 4}
	for i, w := range wants {
		if real(s.Amp(uint64(i))) != w {
			t.Fatalf("amp[%d] = %v, want %g", i, s.Amp(uint64(i)), w)
		}
	}
}

func TestCXControlTargetOrientation(t *testing.T) {
	// |01> (q0=1, q1=0): cx(0,1) must flip q1 -> |11>.
	s := MustNew(2, 1)
	if err := s.PrepareBasis(0b01); err != nil {
		t.Fatal(err)
	}
	s.ApplyGate(gate.CX, []int{0, 1}, nil)
	if cmplx.Abs(s.Amp(0b11)-1) > 1e-15 {
		t.Fatalf("cx(0,1)|01> != |11>: %v", s.Amplitudes())
	}
	// cx(1,0) on |01>: control q1=0, no-op.
	s2 := MustNew(2, 1)
	if err := s2.PrepareBasis(0b01); err != nil {
		t.Fatal(err)
	}
	s2.ApplyGate(gate.CX, []int{1, 0}, nil)
	if cmplx.Abs(s2.Amp(0b01)-1) > 1e-15 {
		t.Fatal("cx(1,0)|01> should be a no-op")
	}
}

// applyDense2 applies a 4×4 unitary to the pair (hi=q1, lo=q0) — row
// and column index (bit(q1)<<1)|bit(q0), gate.Matrix2's convention —
// through the oracle's dense gather/multiply/scatter loop: the reference
// the two-qubit fast paths are held to.
func applyDense2(s *State, q1, q0 int, m gate.Mat4) {
	oracle.State(s.AmplitudesRaw()).ApplyMatrix([]int{q0, q1}, m[:])
}

// The whole-state sweep of an arbitrary 2×2 (controlled with applyCtrl1),
// phase on the amplitudes whose mask bits are all 1, or diag(a, b): the
// kernels no named gate reaches with any value (ApplyGate lowers rz to
// diag(a, b), not to its 2×2).
func applyMat1(s *State, t int, m gate.Mat2) { s.ApplyOp(TileOp{Kind: TileMat1, T: uint8(t), M: m}) }
func applyCtrl1(s *State, c, t int, m gate.Mat2) {
	s.ApplyOp(TileOp{Kind: TileMat1, T: uint8(t), C: uint8(c), HasCtrl: true, M: m})
}
func applyPhase(s *State, mask uint64, p complex128) { s.ApplyOp(DiagOp(p, mask, 0)) }
func applyRelPhase(s *State, t int, a, b complex128) { s.ApplyOp(RelPhaseOp(a, b, uint8(t), 0)) }

func TestControlled1MatchesMat2(t *testing.T) {
	// A controlled TileMat1 (c, t, U) must equal the dense 4×4 diag(I,U).
	r := qmath.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		n := 4
		a := randomState(n, r)
		b := a.Clone()
		th := r.Angle()
		u := gate.Matrix1(gate.RY, []float64{th})
		c, tg := r.Intn(n), r.Intn(n)
		if c == tg {
			continue
		}
		applyCtrl1(a, c, tg, u)
		// q1=control, q0=target: ControlledOnHigh.
		applyDense2(b, c, tg, gate.ControlledOnHigh(u))
		requireClose(t, a, b, 1e-12)
	}
}

func TestSWAPViaApplyGate(t *testing.T) {
	s := MustNew(2, 1)
	if err := s.PrepareBasis(0b01); err != nil {
		t.Fatal(err)
	}
	s.ApplyGate(gate.SWAP, []int{0, 1}, nil)
	if cmplx.Abs(s.Amp(0b10)-1) > 1e-15 {
		t.Fatalf("swap failed: %v", s.Amplitudes())
	}
}

func TestApplyGateDispatchAgainstMatrices(t *testing.T) {
	// Every unitary gate type applied via ApplyGate matches the direct
	// matrix kernels on a random state.
	r := qmath.NewRNG(77)
	params := map[gate.Type][]float64{
		gate.RX: {0.3}, gate.RY: {0.9}, gate.RZ: {-0.4}, gate.P: {1.2},
		gate.U3: {0.5, 0.6, 0.7}, gate.CP: {0.8}, gate.CRY: {1.4},
	}
	for g := gate.Type(0); g.Valid(); g++ {
		if !g.IsUnitary() {
			continue
		}
		a := randomState(3, r)
		b := a.Clone()
		switch g.Arity() {
		case 1:
			a.ApplyGate(g, []int{1}, params[g])
			applyMat1(b, 1, gate.Matrix1(g, params[g]))
		case 2:
			a.ApplyGate(g, []int{2, 0}, params[g])
			applyDense2(b, 2, 0, gate.Matrix2(g, params[g]))
		}
		requireClose(t, a, b, 1e-12)
	}
}

func TestProbabilitiesAndExpZ(t *testing.T) {
	s := MustNew(2, 1)
	s.ApplyGate(gate.H, []int{0}, nil)
	p := s.Probabilities()
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[1]-0.5) > 1e-12 || p[2] != 0 || p[3] != 0 {
		t.Fatalf("probs wrong: %v", p)
	}
	// <Z_q> = P(q=0) − P(q=1), read off the probabilities.
	expZ := func(p []float64, q int) float64 {
		var z float64
		for i, v := range p {
			z += v * float64(1-2*(i>>uint(q)&1))
		}
		return z
	}
	if z := expZ(p, 0); math.Abs(z) > 1e-12 {
		t.Fatalf("<Z0> = %g, want 0", z)
	}
	if z := expZ(p, 1); math.Abs(z-1) > 1e-12 {
		t.Fatalf("<Z1> = %g, want 1", z)
	}
	// RY(θ)|0>: <Z> = cos θ — the QCrank readout relation.
	th := 0.87
	s2 := MustNew(1, 1)
	s2.ApplyGate(gate.RY, []int{0}, []float64{th})
	if z := expZ(s2.Probabilities(), 0); math.Abs(z-math.Cos(th)) > 1e-12 {
		t.Fatalf("<Z> = %g, want cos θ = %g", z, math.Cos(th))
	}
}

func TestPrepareBasisAndReset(t *testing.T) {
	s := MustNew(3, 1)
	if err := s.PrepareBasis(5); err != nil {
		t.Fatal(err)
	}
	if s.Amp(5) != 1 || s.Amp(0) != 0 {
		t.Fatal("PrepareBasis wrong")
	}
	if err := s.PrepareBasis(8); err == nil {
		t.Fatal("out-of-range basis accepted")
	}
	// Back to |0...0> — the reset — is the zeroth basis state.
	if err := s.PrepareBasis(0); err != nil {
		t.Fatal(err)
	}
	if s.Amp(0) != 1 || s.Amp(5) != 0 {
		t.Fatal("reset to |0...0> wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustNew(2, 1)
	b := a.Clone()
	b.ApplyGate(gate.X, []int{0}, nil)
	if a.Amp(1) != 0 {
		t.Fatal("clone shares storage")
	}
}

// randomState prepares a pseudo-random normalized state by running a
// seeded random circuit on |0...0>.
func randomState(n int, r *qmath.RNG) *State {
	s := MustNew(n, 1)
	for i := 0; i < 3*n; i++ {
		q := r.Intn(n)
		s.ApplyGate(gate.U3, []int{q}, []float64{r.Angle(), r.Angle(), r.Angle()})
		if n > 1 {
			q2 := (q + 1 + r.Intn(n-1)) % n
			s.ApplyGate(gate.CX, []int{q, q2}, nil)
		}
	}
	return s
}

func requireClose(t *testing.T, a, b *State, tol float64) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatal("length mismatch")
	}
	for i := range a.amps {
		if cmplx.Abs(a.amps[i]-b.amps[i]) > tol {
			t.Fatalf("amplitude %d differs: %v vs %v", i, a.amps[i], b.amps[i])
		}
	}
}

// TestSerialKernelsAllocateNothing: a single-worker state runs every
// per-gate kernel on the caller's goroutine and builds nothing for the
// fan-out it does not perform — the per-gate cost of a small served
// circuit. Probabilities allocates its result and nothing else.
func TestSerialKernelsAllocateNothing(t *testing.T) {
	s := MustNew(12, 1)
	theta := []float64{0.37}
	for _, g := range []struct {
		name   string
		typ    gate.Type
		qubits []int
		params []float64
	}{
		{"h", gate.H, []int{3}, nil},
		{"h q0", gate.H, []int{0}, nil},
		{"ry", gate.RY, []int{7}, theta},
		{"cx", gate.CX, []int{2, 9}, nil},
		{"cx t0", gate.CX, []int{5, 0}, nil},
		{"cr1", gate.CP, []int{4, 1}, theta},
		{"rz", gate.RZ, []int{6}, theta},
		{"rz q0", gate.RZ, []int{0}, theta},
		{"p", gate.P, []int{8}, theta},
		{"cry", gate.CRY, []int{10, 3}, theta},
		{"swap", gate.SWAP, []int{1, 11}, nil},
	} {
		if a := testing.AllocsPerRun(20, func() { s.ApplyGate(g.typ, g.qubits, g.params) }); a != 0 {
			t.Errorf("ApplyGate(%s) on a 12-qubit Workers=1 state: %v allocations, want 0", g.name, a)
		}
	}
	var probs []float64
	if a := testing.AllocsPerRun(20, func() { probs = s.Probabilities() }); a != 1 {
		t.Errorf("Probabilities on an identity layout: %v allocations, want 1 (%d entries)", a, len(probs))
	}
}

// TestZeroRecordSkipsEverything: a state recorded as all zero — an mgpu
// shard that holds none of the state yet — stays all +0 and all zero
// through every kernel (per-gate sweeps, a tile run, a phase group, a
// bit swap, a relayout), and a non-zero SetAmp brings it back as the
// basis state it wrote.
func TestZeroRecordSkipsEverything(t *testing.T) {
	const n = 6
	s := MustNew(n, 2)
	defer s.Release()
	s.SetAmp(0, 0)
	s.SetSupport(Support{Zero: true})
	for q := 0; q < n; q++ {
		s.ApplyGate(gate.H, []int{q}, nil)
	}
	s.ApplyGate(gate.CX, []int{0, 3}, nil)
	s.ApplyGate(gate.RZ, []int{2}, []float64{0.7})
	s.ApplyGate(gate.RY, []int{5}, []float64{-0.4})
	if err := s.ApplyTileRun(3, 0, []TileOp{
		{Kind: TileMat1, T: 1, M: gate.Matrix1(gate.H, nil)},
		{Kind: TileCX, T: 2, C: 0, HasCtrl: true},
		RelPhaseOp(1, 1i, 0, 0),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyPhaseGroup([]TileOp{DiagOp(1i, 1<<1|1<<4, 0), DiagOp(-1, 1<<2, 0)}); err != nil {
		t.Fatal(err)
	}
	s.ApplySwap(1, 5)
	if err := s.SetPermutation([]int{5, 4, 3, 2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	s.MaterializePerm()
	if sp := s.Support(); sp != (Support{Zero: true}) {
		t.Fatalf("record %+v after the gates, want all zero", sp)
	}
	for i := uint64(0); i < 1<<n; i++ {
		if a := s.Amp(i); math.Float64bits(real(a))|math.Float64bits(imag(a)) != 0 {
			t.Fatalf("amplitude %d is %v, want +0", i, a)
		}
	}
	s.SetAmp(5, 1)
	if sp := s.Support(); sp != (Support{Mask: 1<<n - 1, Val: 5}) {
		t.Fatalf("record %+v after SetAmp(5, 1), want the basis state 5", sp)
	}
}
