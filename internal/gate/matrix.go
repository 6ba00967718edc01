package gate

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Mat2 is a dense 2×2 complex matrix in row-major order, the unitary of
// a single-qubit gate (Eq. (2) of the paper applies it to the k-th
// qubit via implicit identity tensor factors; the simulator does that
// with index arithmetic instead of forming the 2^n matrix).
type Mat2 [4]complex128

// Mat4 is a dense 4×4 complex matrix in row-major order, the unitary of
// a two-qubit gate with qubit ordering (q1, q0) — q0 is the least
// significant bit of the row/column index.
type Mat4 [16]complex128

// Identity2 returns the 2×2 identity.
func Identity2() Mat2 { return Mat2{1, 0, 0, 1} }

// Identity4 returns the 4×4 identity.
func Identity4() Mat4 {
	var m Mat4
	for i := 0; i < 4; i++ {
		m[i*4+i] = 1
	}
	return m
}

// Mul returns a·b (apply b first, then a, matching circuit order when
// later gates are left-multiplied).
func (a Mat2) Mul(b Mat2) Mat2 {
	return Mat2{
		a[0]*b[0] + a[1]*b[2], a[0]*b[1] + a[1]*b[3],
		a[2]*b[0] + a[3]*b[2], a[2]*b[1] + a[3]*b[3],
	}
}

// Adjoint returns the conjugate transpose.
func (a Mat2) Adjoint() Mat2 {
	return Mat2{
		cmplx.Conj(a[0]), cmplx.Conj(a[2]),
		cmplx.Conj(a[1]), cmplx.Conj(a[3]),
	}
}

// IsUnitary reports whether a†a ≈ I within tol.
func (a Mat2) IsUnitary(tol float64) bool {
	p := a.Adjoint().Mul(a)
	id := Identity2()
	for i := range p {
		if cmplx.Abs(p[i]-id[i]) > tol {
			return false
		}
	}
	return true
}

// Mul returns a·b for 4×4 matrices.
func (a Mat4) Mul(b Mat4) Mat4 {
	var c Mat4
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			aik := a[i*4+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < 4; j++ {
				c[i*4+j] += aik * b[k*4+j]
			}
		}
	}
	return c
}

// Adjoint returns the conjugate transpose.
func (a Mat4) Adjoint() Mat4 {
	var c Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			c[j*4+i] = cmplx.Conj(a[i*4+j])
		}
	}
	return c
}

// IsUnitary reports whether a†a ≈ I within tol.
func (a Mat4) IsUnitary(tol float64) bool {
	p := a.Adjoint().Mul(a)
	id := Identity4()
	for i := range p {
		if cmplx.Abs(p[i]-id[i]) > tol {
			return false
		}
	}
	return true
}

// ControlledOnHigh embeds u on the low qubit controlled by the high
// qubit of the pair: diag(I, u) per Eq. (3) of the paper.
func ControlledOnHigh(u Mat2) Mat4 {
	m := Identity4()
	m[2*4+2], m[2*4+3] = u[0], u[1]
	m[3*4+2], m[3*4+3] = u[2], u[3]
	return m
}

// Matrix1 returns the 2×2 unitary of a single-qubit gate type with the
// given parameters. It panics if t is not a single-qubit unitary or the
// parameter count is wrong; callers validate ops before simulation.
func Matrix1(t Type, params []float64) Mat2 {
	if t.Arity() != 1 || !t.IsUnitary() {
		panic(fmt.Sprintf("gate: Matrix1 on %v", t))
	}
	if len(params) != t.ParamCount() {
		panic(fmt.Sprintf("gate: %v wants %d params, got %d", t, t.ParamCount(), len(params)))
	}
	s := complex(1/math.Sqrt2, 0)
	switch t {
	case I:
		return Identity2()
	case H:
		return Mat2{s, s, s, -s}
	case X:
		return Mat2{0, 1, 1, 0}
	case Y:
		return Mat2{0, -1i, 1i, 0}
	case Z:
		return Mat2{1, 0, 0, -1}
	case S:
		return Mat2{1, 0, 0, 1i}
	case Sdg:
		return Mat2{1, 0, 0, -1i}
	case T:
		return Mat2{1, 0, 0, cmplx.Exp(1i * math.Pi / 4)}
	case Tdg:
		return Mat2{1, 0, 0, cmplx.Exp(-1i * math.Pi / 4)}
	case RX:
		c, sn := math.Cos(params[0]/2), math.Sin(params[0]/2)
		return Mat2{complex(c, 0), complex(0, -sn), complex(0, -sn), complex(c, 0)}
	case RY:
		c, sn := math.Cos(params[0]/2), math.Sin(params[0]/2)
		return Mat2{complex(c, 0), complex(-sn, 0), complex(sn, 0), complex(c, 0)}
	case RZ:
		e := cmplx.Exp(complex(0, params[0]/2))
		return Mat2{1 / e, 0, 0, e}
	case P:
		return Mat2{1, 0, 0, cmplx.Exp(complex(0, params[0]))}
	case U3:
		th, ph, la := params[0], params[1], params[2]
		c, sn := math.Cos(th/2), math.Sin(th/2)
		return Mat2{
			complex(c, 0), -cmplx.Exp(complex(0, la)) * complex(sn, 0),
			cmplx.Exp(complex(0, ph)) * complex(sn, 0), cmplx.Exp(complex(0, ph+la)) * complex(c, 0),
		}
	}
	panic(fmt.Sprintf("gate: Matrix1 missing case for %v", t))
}

// Matrix2 returns the 4×4 unitary of a two-qubit gate with qubit order
// (control=high bit, target=low bit) for controlled gates; SWAP and CZ
// are symmetric.
func Matrix2(t Type, params []float64) Mat4 {
	if t.Arity() != 2 || !t.IsUnitary() {
		panic(fmt.Sprintf("gate: Matrix2 on %v", t))
	}
	if len(params) != t.ParamCount() {
		panic(fmt.Sprintf("gate: %v wants %d params, got %d", t, t.ParamCount(), len(params)))
	}
	switch t {
	case CX:
		return ControlledOnHigh(Matrix1(X, nil))
	case CZ:
		return ControlledOnHigh(Matrix1(Z, nil))
	case CP:
		// Eq. (9): CR1(λ) = diag(1, 1, 1, e^{iλ}).
		return ControlledOnHigh(Matrix1(P, params))
	case CRY:
		return ControlledOnHigh(Matrix1(RY, params))
	case SWAP:
		var m Mat4
		m[0], m[1*4+2], m[2*4+1], m[3*4+3] = 1, 1, 1, 1
		return m
	}
	panic(fmt.Sprintf("gate: Matrix2 missing case for %v", t))
}

// AdjointParams returns the gate type and parameters of the adjoint
// (inverse) of gate t with params. Self-inverse gates return
// themselves; parameterized rotations negate their angles; S/T map to
// their daggers. The bool result is false for non-unitary ops.
func AdjointParams(t Type, params []float64) (Type, []float64, bool) {
	if !t.IsUnitary() {
		return t, params, false
	}
	neg := func() []float64 {
		out := make([]float64, len(params))
		for i, p := range params {
			out[i] = -p
		}
		return out
	}
	switch t {
	case I, H, X, Y, Z, CX, CZ, SWAP:
		return t, nil, true
	case S:
		return Sdg, nil, true
	case Sdg:
		return S, nil, true
	case T:
		return Tdg, nil, true
	case Tdg:
		return T, nil, true
	case RX, RY, RZ, P, CP, CRY:
		return t, neg(), true
	case U3:
		// U3(θ,φ,λ)† = U3(-θ,-λ,-φ)
		return U3, []float64{-params[0], -params[2], -params[1]}, true
	}
	return t, params, false
}
