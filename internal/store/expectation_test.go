package store

import (
	"errors"
	"os"
	"path/filepath"
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

// TestExpectationRoundTripBitIdentity: a spilled and reloaded
// expectation artifact must return the exact same ⟨H⟩ bits, with no
// probability vector materialized and all metadata intact.
func TestExpectationRoundTripBitIdentity(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := testExpResult(t)
	if err := st.SaveResult("expkey", testSig, res); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadResult("expkey", testSig)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExpValue == nil || *got.ExpValue != *res.ExpValue {
		t.Fatalf("⟨H⟩ round trip: got %v, want %v", got.ExpValue, res.ExpValue)
	}
	if len(got.Probabilities) != 0 || got.Counts != nil {
		t.Fatal("expectation artifact grew a readout on reload")
	}
	if got.NumQubits != res.NumQubits || got.ExpTerms != res.ExpTerms || got.TileBits != res.TileBits {
		t.Fatalf("metadata drifted: %+v vs %+v", got, res)
	}
	if got.Target != res.Target {
		t.Fatalf("target %q, want %q", got.Target, res.Target)
	}
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

func TestExpectationCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("expkey", testSig, testExpResult(t)); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "results", "*", "*"+resultExt))
	if len(files) != 1 {
		t.Fatalf("%d artifacts", len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x55
	if err := os.WriteFile(files[0], raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadResult("expkey", testSig); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupt artifact: err %v, want ErrIntegrity", err)
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
