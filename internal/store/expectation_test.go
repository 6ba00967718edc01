package store

import (
	"errors"
	"testing"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/observable"
)

// testExpResult evaluates a small expectation job for round-trip
// material: no probability vector, ExpValue set.
func testExpResult(t *testing.T) *backend.Result {
	t.Helper()
	c := circuit.GHZ(6, false)
	h := observable.TransverseFieldIsing(6, 1.0, 0.7)
	res, err := backend.RunExpectation(c, h, backend.Config{Target: backend.TargetNvidia, Workers: 1, TileBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExpectationWrongSignatureRejected(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("expkey", testSig, testExpResult(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadResult("expkey", "other-sig"); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("wrong signature: err %v, want ErrIntegrity", err)
	}
}

// TestResultWithoutValueOrVectorRejected pins the save-side guard.
func TestResultWithoutValueOrVectorRejected(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("empty", testSig, &backend.Result{NumQubits: 4}); err == nil {
		t.Fatal("result with neither probabilities nor expectation accepted")
	}
}
