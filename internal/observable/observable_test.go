package observable

import (
	"math"
	"strings"
	"testing"

	"qgear/internal/gate"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// ghz prepares the n-qubit GHZ state.
func ghz(t *testing.T, n int) *statevec.State {
	t.Helper()
	s := statevec.MustNew(n, 1)
	s.ApplyGate(gate.H, []int{0}, nil)
	for i := 1; i < n; i++ {
		s.ApplyGate(gate.CX, []int{0, i}, nil)
	}
	return s
}

func expectTerm(t *testing.T, s *statevec.State, term Term, want float64) {
	t.Helper()
	got, err := term.Expectation(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("<%s> = %g, want %g", term, got, want)
	}
}

func TestGHZCorrelations(t *testing.T) {
	s := ghz(t, 3)
	// <Z_i> = 0 individually; <Z_i Z_j> = +1; <XXX> = +1; <YYX> = -1.
	expectTerm(t, s, NewTerm(1, map[int]Pauli{0: Z}), 0)
	expectTerm(t, s, NewTerm(1, map[int]Pauli{2: Z}), 0)
	expectTerm(t, s, NewTerm(1, map[int]Pauli{0: Z, 1: Z}), 1)
	expectTerm(t, s, NewTerm(1, map[int]Pauli{1: Z, 2: Z}), 1)
	expectTerm(t, s, NewTerm(1, map[int]Pauli{0: X, 1: X, 2: X}), 1)
	expectTerm(t, s, NewTerm(1, map[int]Pauli{0: Y, 1: Y, 2: X}), -1)
	expectTerm(t, s, NewTerm(2.5, map[int]Pauli{0: Z, 1: Z}), 2.5)
}

func TestSingleQubitRotationExpectations(t *testing.T) {
	// RY(θ)|0>: <Z> = cos θ, <X> = sin θ, <Y> = 0.
	th := 0.81
	s := statevec.MustNew(1, 1)
	s.ApplyGate(gate.RY, []int{0}, []float64{th})
	expectTerm(t, s, NewTerm(1, map[int]Pauli{0: Z}), math.Cos(th))
	expectTerm(t, s, NewTerm(1, map[int]Pauli{0: X}), math.Sin(th))
	expectTerm(t, s, NewTerm(1, map[int]Pauli{0: Y}), 0)
	// RX(θ)|0>: <Y> = -sin θ.
	s2 := statevec.MustNew(1, 1)
	s2.ApplyGate(gate.RX, []int{0}, []float64{th})
	expectTerm(t, s2, NewTerm(1, map[int]Pauli{0: Y}), -math.Sin(th))
}

func TestIdentityTermAndValidation(t *testing.T) {
	s := statevec.MustNew(2, 1)
	expectTerm(t, s, NewTerm(3.25, nil), 3.25)
	if _, err := NewTerm(1, map[int]Pauli{9: Z}).Expectation(s); err == nil {
		t.Fatal("out-of-range qubit accepted")
	}
	h := &Hamiltonian{NumQubits: 2}
	h.Add(NewTerm(1, map[int]Pauli{5: Z}))
	if _, err := h.ExpectationCancel(s, nil); err == nil {
		t.Fatal("out-of-range term accepted by the grouped sweep")
	}
}

func TestExpectationDoesNotMutateState(t *testing.T) {
	s := ghz(t, 3)
	before := append([]complex128(nil), s.Amplitudes()...)
	if _, err := NewTerm(1, map[int]Pauli{0: X, 1: Y, 2: Z}).Expectation(s); err != nil {
		t.Fatal(err)
	}
	for i, a := range s.Amplitudes() {
		if a != before[i] {
			t.Fatal("Expectation mutated the state")
		}
	}
}

// TestHamiltonianSequentialVsParallel: the same state built and read
// by one worker and by several gives bit-identical ⟨H⟩.
func TestHamiltonianSequentialVsParallel(t *testing.T) {
	h := TransverseFieldIsing(6, 1.0, 0.7)
	var seq float64
	for _, workers := range []int{1, 2, 4, 16} {
		r := qmath.NewRNG(12)
		s := statevec.MustNew(6, workers)
		for i := 0; i < 30; i++ {
			q := r.Intn(6)
			s.ApplyGate(gate.U3, []int{q}, []float64{r.Angle(), r.Angle(), r.Angle()})
			s.ApplyGate(gate.CX, []int{q, (q + 1) % 6}, nil)
		}
		par, err := h.Expectation(s)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			seq = par
		} else if par != seq {
			t.Fatalf("workers=%d: parallel %.17g != sequential %.17g", workers, par, seq)
		}
	}
}

func TestTFIMGroundStateLimits(t *testing.T) {
	// g=0: |00...0> is a ground state with energy -J(n-1).
	n := 5
	h := TransverseFieldIsing(n, 2.0, 0)
	s := statevec.MustNew(n, 1)
	e, err := h.Expectation(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-(-2.0*float64(n-1))) > 1e-12 {
		t.Fatalf("TFIM g=0 energy %g", e)
	}
	// J=0, g>0: |+>^n has energy -g·n.
	h2 := TransverseFieldIsing(n, 0, 1.5)
	s2 := statevec.MustNew(n, 1)
	for q := 0; q < n; q++ {
		s2.ApplyGate(gate.H, []int{q}, nil)
	}
	e2, err := h2.Expectation(s2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e2-(-1.5*float64(n))) > 1e-12 {
		t.Fatalf("TFIM J=0 energy %g", e2)
	}
}

func TestStringRendering(t *testing.T) {
	term := NewTerm(0.5, map[int]Pauli{2: Z, 0: X})
	if term.String() != "0.5·X0Z2" {
		t.Fatalf("term string %q", term.String())
	}
	h := &Hamiltonian{NumQubits: 3}
	h.Add(term)
	h.Add(NewTerm(1, nil))
	if !strings.Contains(h.String(), "X0Z2") || !strings.Contains(h.String(), "·I") {
		t.Fatalf("hamiltonian string %q", h.String())
	}
	if X.String() != "X" || Y.String() != "Y" || Z.String() != "Z" || Pauli(0).String() != "I" {
		t.Fatal("pauli names")
	}
}

// TestTermExpectationVisitCount is the stride-iteration regression
// test: an identity-padded few-qubit term must enumerate exactly half
// the statevector (2^(n-1) indices), never the full 2^n the rotation-
// based evaluator walked, and the identity term must visit nothing.
func TestTermExpectationVisitCount(t *testing.T) {
	n := 10
	s := ghz(t, n)
	ev := s.PauliEvaluator()
	for _, tc := range []struct {
		term Term
		want int
	}{
		{NewTerm(1, nil), 0},
		{NewTerm(1, map[int]Pauli{0: Z}), 1 << (n - 1)},
		{NewTerm(1, map[int]Pauli{3: Z, 7: Z}), 1 << (n - 1)},
		{NewTerm(1, map[int]Pauli{5: X}), 1 << (n - 1)},
		{NewTerm(1, map[int]Pauli{1: Y, 8: Z}), 1 << (n - 1)},
	} {
		_, visited, err := tc.term.expectationOn(ev, n)
		if err != nil {
			t.Fatal(err)
		}
		if visited != tc.want {
			t.Errorf("<%s>: visited %d, want %d", tc.term, visited, tc.want)
		}
	}
}

func TestEstimateZBasis(t *testing.T) {
	// Deterministic counts: a fake 2-qubit distribution.
	h := &Hamiltonian{NumQubits: 2}
	h.Add(NewTerm(1.0, map[int]Pauli{0: Z}))
	h.Add(NewTerm(0.5, map[int]Pauli{0: Z, 1: Z}))
	h.Add(NewTerm(2.0, nil)) // identity folds in exactly
	counts := map[uint64]int{0: 400, 1: 300, 2: 200, 3: 100}
	// <Z0> = (400+200-300-100)/1000 = 0.2
	// <Z0Z1> = (400+100-300-200)/1000 = 0.0
	got, err := h.EstimateZBasis(counts)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0*0.2 + 0.5*0.0 + 2.0
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("estimate %g, want %g", got, want)
	}
	bad := &Hamiltonian{NumQubits: 2}
	bad.Add(NewTerm(1, map[int]Pauli{0: X}))
	if _, err := bad.EstimateZBasis(counts); err == nil {
		t.Fatal("non-diagonal term accepted by Z-basis estimator")
	}
	if _, err := h.EstimateZBasis(nil); err == nil {
		t.Fatal("empty counts accepted")
	}
}

func TestZViewAndDiagonal(t *testing.T) {
	term := NewTerm(0.75, map[int]Pauli{0: X, 2: Y, 3: Z})
	if term.Diagonal() {
		t.Fatal("XYZ term reported diagonal")
	}
	zv := term.ZView()
	if !zv.Diagonal() || zv.Coef != 0.75 || len(zv.Ops) != 3 {
		t.Fatalf("ZView wrong: %v", zv)
	}
	if !NewTerm(1, map[int]Pauli{1: Z}).Diagonal() {
		t.Fatal("Z term not diagonal")
	}
}

func TestValidateAndClone(t *testing.T) {
	h := TransverseFieldIsing(4, 1, 1)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Hamiltonian{NumQubits: 2}
	bad.Add(NewTerm(math.Inf(1), map[int]Pauli{0: Z}))
	if err := bad.Validate(); err == nil {
		t.Fatal("infinite coefficient accepted")
	}
	// Two finite terms whose ⟨H⟩ on |0⟩ is 2e308: the sum must be refused.
	overflow := &Hamiltonian{NumQubits: 2}
	overflow.Add(NewTerm(1e308, nil))
	overflow.Add(NewTerm(1e308, map[int]Pauli{0: Z}))
	if err := overflow.Validate(); err == nil {
		t.Fatal("coefficients whose absolute sum overflows accepted")
	}
	// One finite identity term: a state norm rounded just above 1 would
	// make its ⟨H⟩ +Inf, so it is refused with the margin.
	huge := &Hamiltonian{NumQubits: 1}
	huge.Add(NewTerm(math.MaxFloat64, nil))
	if err := huge.Validate(); err == nil {
		t.Fatal("a MaxFloat64 coefficient accepted")
	}
	// The edge: a sum of exactly maxCoefSum is accepted, one ulp more is not.
	edge := &Hamiltonian{NumQubits: 2}
	edge.Add(NewTerm(maxCoefSum/2, map[int]Pauli{0: Z}))
	edge.Add(NewTerm(-maxCoefSum/2, map[int]Pauli{1: X}))
	if err := edge.Validate(); err != nil {
		t.Fatalf("absolute sum of exactly maxCoefSum refused: %v", err)
	}
	above := &Hamiltonian{NumQubits: 1}
	above.Add(NewTerm(math.Nextafter(maxCoefSum, math.Inf(1)), map[int]Pauli{0: Z}))
	if err := above.Validate(); err == nil {
		t.Fatal("absolute sum one ulp above maxCoefSum accepted")
	}
	oob := &Hamiltonian{NumQubits: 2}
	oob.Add(NewTerm(1, map[int]Pauli{5: Z}))
	if err := oob.Validate(); err == nil {
		t.Fatal("out-of-range qubit accepted")
	}

	c := h.Clone()
	if c.Fingerprint() != h.Fingerprint() {
		t.Fatal("clone hashes differently")
	}
	c.Terms[0].Ops[0] = X // mutate the clone's map
	if c.Fingerprint() == h.Fingerprint() {
		t.Fatal("clone shares factor maps with the original")
	}
}
