package statevec

import (
	"testing"

	"qgear/internal/gate"
	"qgear/internal/qmath"
)

func TestDiagonalFastPathMatchesGeneralKernels(t *testing.T) {
	r := qmath.NewRNG(404)
	params := map[gate.Type][]float64{gate.RZ: {1.234}, gate.P: {-0.7}, gate.CP: {0.37}}
	for _, g := range []gate.Type{gate.Z, gate.S, gate.Sdg, gate.T, gate.Tdg, gate.RZ, gate.P, gate.CZ, gate.CP} {
		if !IsDiagonalGate(g) {
			t.Fatalf("%v should be diagonal", g)
		}
		fast := randomState(5, r)
		slow := fast.Clone()
		switch g.Arity() {
		case 1:
			fast.ApplyGate(g, []int{2}, params[g])
			applyMat1(slow, 2, gate.Matrix1(g, params[g]))
		case 2:
			fast.ApplyGate(g, []int{1, 3}, params[g])
			applyDense2(slow, 1, 3, gate.Matrix2(g, params[g]))
		}
		requireClose(t, fast, slow, 1e-13)
	}
}

func TestNonDiagonalGatesExcluded(t *testing.T) {
	for _, g := range []gate.Type{gate.H, gate.X, gate.Y, gate.RX, gate.RY, gate.U3, gate.CX, gate.SWAP, gate.CRY, gate.Measure} {
		if IsDiagonalGate(g) {
			t.Fatalf("%v wrongly classified diagonal", g)
		}
	}
}

func TestApplyGateUsesDiagonalPath(t *testing.T) {
	// The dispatch-level test: a QFT-like circuit through ApplyGate
	// must equal explicit matrix application.
	r := qmath.NewRNG(17)
	a := randomState(6, r)
	b := a.Clone()
	ops := []struct {
		g  gate.Type
		qs []int
		ps []float64
	}{
		{gate.RZ, []int{0}, []float64{0.3}},
		{gate.CP, []int{0, 4}, []float64{0.125}},
		{gate.CZ, []int{2, 5}, nil},
		{gate.T, []int{3}, nil},
		{gate.P, []int{1}, []float64{-2.2}},
	}
	for _, op := range ops {
		a.ApplyGate(op.g, op.qs, op.ps)
		switch op.g.Arity() {
		case 1:
			applyMat1(b, op.qs[0], gate.Matrix1(op.g, op.ps))
		case 2:
			applyDense2(b, op.qs[0], op.qs[1], gate.Matrix2(op.g, op.ps))
		}
	}
	requireClose(t, a, b, 1e-13)
}

func TestDiagonalPreservesNorm(t *testing.T) {
	r := qmath.NewRNG(5)
	s := randomState(8, r)
	for i := 0; i < 200; i++ {
		q := r.Intn(8)
		q2 := (q + 1 + r.Intn(7)) % 8
		switch r.Intn(3) {
		case 0:
			s.ApplyGate(gate.RZ, []int{q}, []float64{r.Angle()})
		case 1:
			s.ApplyGate(gate.CP, []int{q, q2}, []float64{r.Angle()})
		case 2:
			s.ApplyGate(gate.CZ, []int{q, q2}, nil)
		}
	}
	if n := s.Norm(); n < 1-1e-10 || n > 1+1e-10 {
		t.Fatalf("norm drifted to %g", n)
	}
}

func TestDiagonalControlEqualsTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(3, 1).ApplyGate(gate.CZ, []int{1, 1}, nil)
}
