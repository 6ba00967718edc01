package statevec

import (
	"math"
	"testing"

	"qgear/internal/gate"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
)

// expRandomState prepares a scrambled n-qubit state.
func expRandomState(n, workers int, seed uint64) *State {
	r := qmath.NewRNG(seed)
	s := MustNew(n, workers)
	for i := 0; i < 4*n; i++ {
		q := r.Intn(n)
		s.ApplyGate(gate.U3, []int{q}, []float64{r.Angle(), r.Angle(), r.Angle()})
		if n > 1 {
			s.ApplyGate(gate.CX, []int{q, (q + 1 + r.Intn(n-1)) % n}, nil)
		}
	}
	return s
}

// TestExpPauliMatchesOracle holds the direct evaluator to
// internal/oracle's dense ⟨ψ|P|ψ⟩ — P applied factor by factor to a
// copy, then the inner product — at 1e-12.
func TestExpPauliMatchesOracle(t *testing.T) {
	r := qmath.NewRNG(5)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(9)
		s := expRandomState(n, 1, r.Uint64())
		var xm, ym, zm uint64
		p := oracle.PauliTerm{Coef: 1, Ops: map[int]gate.Type{}}
		for q := 0; q < n; q++ {
			switch r.Intn(4) {
			case 1:
				xm |= 1 << uint(q)
				p.Ops[q] = gate.X
			case 2:
				ym |= 1 << uint(q)
				p.Ops[q] = gate.Y
			case 3:
				zm |= 1 << uint(q)
				p.Ops[q] = gate.Z
			}
		}
		want := oracle.State(s.Amplitudes()).Expectation([]oracle.PauliTerm{p})
		got, _, err := s.PauliEvaluator().ExpPauli(xm, ym, zm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (n=%d, masks %x/%x/%x): direct %.17g vs oracle %.17g",
				trial, n, xm, ym, zm, got, want)
		}
	}
}

// TestExpPauliVisitCounts pins the stride-iteration contract: every
// non-identity Pauli string enumerates exactly 2^(n-1) indices — half
// the state — never the full 2^n the pre-PR-5 evaluator walked.
func TestExpPauliVisitCounts(t *testing.T) {
	s := expRandomState(8, 1, 3)
	half := 1 << 7
	for _, tc := range []struct {
		name       string
		xm, ym, zm uint64
		want       int
	}{
		{"identity", 0, 0, 0, 0},
		{"single-Z", 0, 0, 1 << 3, half},
		{"ZZ", 0, 0, 1<<2 | 1<<6, half},
		{"single-X", 1 << 5, 0, 0, half},
		{"XYZ", 1 << 0, 1 << 4, 1 << 7, half},
		{"all-Z", 0, 0, 0xff, half},
	} {
		_, visited, err := s.PauliEvaluator().ExpPauli(tc.xm, tc.ym, tc.zm)
		if err != nil {
			t.Fatal(err)
		}
		if visited != tc.want {
			t.Errorf("%s: visited %d indices, want %d", tc.name, visited, tc.want)
		}
	}
}

// TestExpPauliPermutationInvariant evaluates through pending
// permutations: a physically relabeled layout holding the same
// logical state must give bit-identical values, and the evaluation
// leaves it materialized — the identity layout, every amplitude the
// logical one it held before.
func TestExpPauliPermutationInvariant(t *testing.T) {
	r := qmath.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(7)
		s := expRandomState(n, 1, r.Uint64())
		var xm, ym, zm uint64
		for q := 0; q < n; q++ {
			switch r.Intn(4) {
			case 0:
				zm |= 1 << uint(q)
			case 1:
				xm |= 1 << uint(q)
			case 2:
				ym |= 1 << uint(q)
			}
		}
		base, _, err := s.PauliEvaluator().ExpPauli(xm, ym, zm)
		if err != nil {
			t.Fatal(err)
		}
		// Physically swap two qubits, then relabel them back: the
		// logical state is unchanged but the layout now carries a
		// pending permutation.
		perm := s.Clone()
		a := r.Intn(n)
		b := (a + 1 + r.Intn(n-1)) % n
		perm.ApplySwap(a, b)
		declareSwaps(t, perm, [2]int{a, b})
		if perm.PermIsIdentity() {
			t.Fatal("construction failed to leave a pending permutation")
		}
		before := perm.Clone()
		got, _, err := perm.PauliEvaluator().ExpPauli(xm, ym, zm)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("trial %d: permuted layout %.17g != canonical %.17g", trial, got, base)
		}
		if !perm.PermIsIdentity() {
			t.Fatal("evaluation left the permutation pending")
		}
		for i := uint64(0); i < 1<<uint(n); i++ {
			if perm.Amp(i) != before.Amp(i) {
				t.Fatalf("trial %d: amplitude %d changed by the evaluation", trial, i)
			}
		}
	}
}

// TestExpPauliWorkerInvariant pins the reduction contract: the chunked
// tree sum gives the same bits for any worker count.
func TestExpPauliWorkerInvariant(t *testing.T) {
	base := expRandomState(12, 1, 77)
	want, _, err := base.PauliEvaluator().ExpPauli(1<<2, 1<<9, 1<<5|1<<11)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 8, 16} {
		s := expRandomState(12, workers, 77)
		got, _, err := s.PauliEvaluator().ExpPauli(1<<2, 1<<9, 1<<5|1<<11)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: %.17g != serial %.17g", workers, got, want)
		}
	}
}

func TestExpPauliValidation(t *testing.T) {
	s := MustNew(3, 1)
	if _, _, err := s.PauliEvaluator().ExpPauli(1<<5, 0, 0); err == nil {
		t.Fatal("out-of-range mask accepted")
	}
	if _, _, err := s.PauliEvaluator().ExpPauli(1, 1, 0); err == nil {
		t.Fatal("overlapping masks accepted")
	}
	v, visited, err := s.PauliEvaluator().ExpPauli(0, 0, 0)
	if err != nil || v != 1 || visited != 0 {
		t.Fatalf("identity: v=%v visited=%d err=%v", v, visited, err)
	}
}

func TestTreeSumShape(t *testing.T) {
	// 8 chunk partials: ((a+b)+(c+d))+((e+f)+(g+h)) — and an aligned
	// half must be an exact subtree.
	v := []float64{1e-16, 1, -1, 1e-16, 3, 1e-3, -4, 0.5}
	full := treeSum(v)
	composed := treeSum([]float64{treeSum(v[:4]), treeSum(v[4:])})
	if full != composed {
		t.Fatalf("subtree composition broke: %.17g vs %.17g", full, composed)
	}
	if treeSum(nil) != 0 || treeSum([]float64{42}) != 42 {
		t.Fatal("degenerate tree sums")
	}
}
