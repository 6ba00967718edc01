package gate

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestNamesRoundTrip(t *testing.T) {
	for g := Type(0); g < numTypes; g++ {
		got, err := Parse(g.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", g.String(), err)
		}
		if got != g {
			t.Fatalf("Parse(%q) = %v, want %v", g.String(), got, g)
		}
	}
	if _, err := Parse("nonsense"); err == nil {
		t.Fatal("expected error for unknown gate")
	}
}

func TestArityAndParams(t *testing.T) {
	cases := []struct {
		g      Type
		arity  int
		params int
	}{
		{H, 1, 0}, {X, 1, 0}, {RY, 1, 1}, {RZ, 1, 1}, {RX, 1, 1},
		{U3, 1, 3}, {CX, 2, 0}, {CP, 2, 1}, {SWAP, 2, 0},
		{Measure, 1, 0}, {Barrier, 0, 0}, {CRY, 2, 1},
	}
	for _, c := range cases {
		if c.g.Arity() != c.arity {
			t.Errorf("%v arity = %d, want %d", c.g, c.g.Arity(), c.arity)
		}
		if c.g.ParamCount() != c.params {
			t.Errorf("%v params = %d, want %d", c.g, c.g.ParamCount(), c.params)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if Measure.IsUnitary() || Barrier.IsUnitary() {
		t.Fatal("measure/barrier must not be unitary")
	}
	if !CX.IsEntangling() || H.IsEntangling() {
		t.Fatal("entangling predicate wrong")
	}
	if s := Type(200).String(); s != "gate(200)" {
		t.Fatalf("out-of-range String = %q", s)
	}
	if Type(200).Valid() {
		t.Fatal("out-of-range type must be invalid")
	}
}

func TestAllSingleQubitMatricesUnitary(t *testing.T) {
	params := map[Type][]float64{
		RX: {0.7}, RY: {1.3}, RZ: {-2.1}, P: {0.9}, U3: {0.3, 1.1, -0.5},
	}
	for g := Type(0); g < numTypes; g++ {
		if g.Arity() != 1 || !g.IsUnitary() {
			continue
		}
		m := Matrix1(g, params[g])
		if !m.IsUnitary(1e-12) {
			t.Errorf("%v matrix not unitary", g)
		}
	}
}

func TestAllTwoQubitMatricesUnitary(t *testing.T) {
	params := map[Type][]float64{CP: {0.77}, CRY: {-1.9}}
	for g := Type(0); g < numTypes; g++ {
		if g.Arity() != 2 || !g.IsUnitary() {
			continue
		}
		m := Matrix2(g, params[g])
		if !m.IsUnitary(1e-12) {
			t.Errorf("%v matrix not unitary", g)
		}
	}
}

func TestKnownMatrices(t *testing.T) {
	h := Matrix1(H, nil)
	s := complex(1/math.Sqrt2, 0)
	if h[0] != s || h[3] != -s {
		t.Fatal("H matrix wrong")
	}
	// H² = I.
	if hh := h.Mul(h); cmplx.Abs(hh[0]-1) > 1e-15 || cmplx.Abs(hh[1]) > 1e-15 {
		t.Fatal("H^2 != I")
	}
	// RZ(π) ~ diag(e^{-iπ/2}, e^{iπ/2}) = -i·Z.
	rz := Matrix1(RZ, []float64{math.Pi})
	if cmplx.Abs(rz[0]-(-1i)) > 1e-15 || cmplx.Abs(rz[3]-1i) > 1e-15 {
		t.Fatalf("RZ(pi) wrong: %v", rz)
	}
	// CX flips target when control (high bit) is 1: |10> -> |11>.
	cx := Matrix2(CX, nil)
	if cx[3*4+2] != 1 || cx[2*4+3] != 1 || cx[0] != 1 || cx[1*4+1] != 1 {
		t.Fatalf("CX wrong: %v", cx)
	}
	// CR1(λ) matches Eq. (9).
	la := 0.613
	cp := Matrix2(CP, []float64{la})
	want := cmplx.Exp(complex(0, la))
	if cp[15] != want || cp[0] != 1 || cp[5] != 1 || cp[10] != 1 {
		t.Fatalf("CR1 wrong: %v", cp)
	}
}

func TestRYActsAsExpected(t *testing.T) {
	// RY(θ)|0> = cos(θ/2)|0> + sin(θ/2)|1>.
	th := 1.234
	m := Matrix1(RY, []float64{th})
	if math.Abs(real(m[0])-math.Cos(th/2)) > 1e-15 {
		t.Fatal("RY cos component wrong")
	}
	if math.Abs(real(m[2])-math.Sin(th/2)) > 1e-15 {
		t.Fatal("RY sin component wrong")
	}
}

func TestU3Special(t *testing.T) {
	// U3(θ, 0, 0) == RY(θ) exactly in this convention.
	th := 0.831
	u := Matrix1(U3, []float64{th, 0, 0})
	r := Matrix1(RY, []float64{th})
	for i := range u {
		if cmplx.Abs(u[i]-r[i]) > 1e-15 {
			t.Fatalf("U3(θ,0,0) != RY(θ) at %d", i)
		}
	}
}

func TestAdjointPairs(t *testing.T) {
	params := map[Type][]float64{
		RX: {0.7}, RY: {1.3}, RZ: {-2.1}, P: {0.9}, U3: {0.3, 1.1, -0.5},
		CP: {0.77}, CRY: {-1.9},
	}
	for g := Type(0); g < numTypes; g++ {
		if !g.IsUnitary() {
			if _, _, ok := AdjointParams(g, nil); ok {
				t.Errorf("%v adjoint should not exist", g)
			}
			continue
		}
		adjT, adjP, ok := AdjointParams(g, params[g])
		if !ok {
			t.Fatalf("%v has no adjoint", g)
		}
		switch g.Arity() {
		case 1:
			m := Matrix1(g, params[g])
			ma := Matrix1(adjT, adjP)
			prod := m.Mul(ma)
			id := Identity2()
			for i := range prod {
				if cmplx.Abs(prod[i]-id[i]) > 1e-12 {
					t.Fatalf("%v · adjoint != I", g)
				}
			}
		case 2:
			m := Matrix2(g, params[g])
			ma := Matrix2(adjT, adjP)
			prod := m.Mul(ma)
			id := Identity4()
			for i := range prod {
				if cmplx.Abs(prod[i]-id[i]) > 1e-12 {
					t.Fatalf("%v · adjoint != I", g)
				}
			}
		}
	}
}

func TestMat4MulAssociativity(t *testing.T) {
	a := Matrix2(CX, nil)
	b := Matrix2(SWAP, nil)
	c := Matrix2(CZ, nil)
	left := a.Mul(b).Mul(c)
	right := a.Mul(b.Mul(c))
	for i := range left {
		if cmplx.Abs(left[i]-right[i]) > 1e-12 {
			t.Fatal("Mat4 multiplication not associative")
		}
	}
}

func TestRotationCompositionProperty(t *testing.T) {
	// Property: RZ(a)·RZ(b) == RZ(a+b) up to numerical tolerance.
	f := func(a16, b16 int16) bool {
		a := float64(a16) / 1000
		b := float64(b16) / 1000
		ab := Matrix1(RZ, []float64{a}).Mul(Matrix1(RZ, []float64{b}))
		sum := Matrix1(RZ, []float64{a + b})
		for i := range ab {
			if cmplx.Abs(ab[i]-sum[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOneHot(t *testing.T) {
	m := OneHot()
	for i := 0; i < OneHotSize; i++ {
		for j := 0; j < OneHotSize; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m[i][j] != want {
				t.Fatalf("OneHot[%d][%d] = %g", i, j, m[i][j])
			}
		}
	}
}

func TestMatrixPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Matrix1 on CX", func() { Matrix1(CX, nil) })
	mustPanic("Matrix1 missing params", func() { Matrix1(RY, nil) })
	mustPanic("Matrix2 on H", func() { Matrix2(H, nil) })
	mustPanic("Matrix2 wrong params", func() { Matrix2(CP, nil) })
}
