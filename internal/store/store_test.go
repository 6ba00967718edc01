package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"qgear/internal/artifact/artifacttest"
	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/sampling"
)

const testSig = "f0|p0|tnvidia|d1|w0|s0|r0|b0|pffalse"

// resultPath is the on-disk location of the result saved under key.
func (st *Store) resultPath(key string) string {
	return st.stemPath(kindResult, encodeKey(key))
}

// testResult simulates a small circuit for round-trip material.
func testResult(t *testing.T) *backend.Result {
	t.Helper()
	c := circuit.GHZ(6, false)
	res, err := backend.Run(c, backend.Config{Target: backend.TargetNvidia, Workers: 1, Shots: 200, Seed: 11, TileBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultRoundTripBitIdentity: every flavor of result — simulated
// with shot counts, probabilities only, an expectation value, a gradient
// — spilled and reloaded is the value saved, bit for bit (max |Δp| = 0,
// every count bucket, ⟨H⟩ and gradient bits), metadata and statistics
// included, and grows nothing it did not have (no counts, no readout);
// only the run's trace is not kept.
func TestResultRoundTripBitIdentity(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	simulated := testResult(t)
	simulated.Duration = 123456 * time.Microsecond
	ev := 0.75
	for name, res := range map[string]*backend.Result{
		"simulated":          simulated,
		"probabilities only": {Target: backend.TargetNvidia, NumQubits: 2, Probabilities: []float64{0.5, 0, 0, 0.5}},
		"expectation":        testExpResult(t),
		"gradient":           {Target: backend.TargetNvidia, NumQubits: 2, ExpValue: &ev, Gradient: []float64{0.1, -0.2, 0.3}, SweepPoints: 6},
	} {
		if err := st.SaveResult(name, testSig, res); err != nil {
			t.Fatal(err)
		}
		if !st.HasResult(name) {
			t.Fatalf("%s: saved result not indexed", name)
		}
		got, err := st.LoadResult(name, testSig)
		if err != nil {
			t.Fatal(err)
		}
		want := *res
		want.Trace = nil // a timing breakdown of the run, not part of the artifact
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("%s: reloaded %+v, saved %+v", name, got, &want)
		}
	}
}

// TestPlanRoundTrip: what Compile produces, tiled and per gate, for
// the circuits FuzzDecodePlan starts from survives the sidecar — same
// kernel, segments and stats, same cost tag.
func TestPlanRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range artifacttest.SeedCircuits(t) {
		for _, tile := range []int{4, -1} {
			comp, err := backend.Compile(c, backend.Config{Target: backend.TargetNvidia, TileBits: tile})
			if err != nil {
				t.Fatal(err)
			}
			key, cost := fmt.Sprintf("fp%d|b%d", i, tile), 42.5+float64(i)
			if err := st.SavePlan(key, testSig, comp, cost); err != nil {
				t.Fatal(err)
			}
			got, gotCost, err := st.LoadPlan(key, testSig)
			if err != nil {
				t.Fatal(err)
			}
			if gotCost != cost || !reflect.DeepEqual(got, comp) {
				t.Fatalf("%s: plan drifted through the sidecar (cost %v, want %v):\n got %+v\nwant %+v", key, gotCost, cost, got, comp)
			}
		}
	}
}

// TestWrongKeyRejected: a file whose recorded key does not match the
// requested one (e.g. renamed on disk) is rejected — always as
// ErrIntegrity, since injective stems leave no innocent explanation.
func TestWrongKeyRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("aaaa", testSig, testResult(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(st.resultPath("bbbb")), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(st.resultPath("aaaa"), st.resultPath("bbbb")); err != nil {
		t.Fatal(err)
	}
	// Drop the manifest so the reopen re-scans the tree and discovers
	// the file under its new name.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir) // re-index
	if err != nil {
		t.Fatal(err)
	}
	if !st2.HasResult("bbbb") {
		t.Fatal("renamed file not indexed")
	}
	if _, err := st2.LoadResult("bbbb", testSig); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("moved file under the wrong key: err = %v, want ErrIntegrity", err)
	}
}

// TestWrongSignatureRejected: an artifact recorded under a different
// execution configuration is rejected (fingerprint/TileBits/plan-
// config integrity).
func TestWrongSignatureRejected(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("k", testSig, testResult(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadResult("k", "f0|p0|tnvidia|d1|w0|s0|r0|b9|pffalse"); err == nil {
		t.Fatal("result accepted under a different config signature")
	}
	c := circuit.GHZ(8, false)
	comp, err := backend.Compile(c, backend.Config{Target: backend.TargetNvidia, TileBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SavePlan("p", testSig, comp, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LoadPlan("p", "other-sig"); err == nil {
		t.Fatal("plan accepted under a different config signature")
	}
}

// TestReopenIndexes: a fresh Open over an existing directory sees the
// artifacts a previous Store instance wrote — the warm-restart scan.
func TestReopenIndexes(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	if err := st.SaveResult("k1", testSig, res); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("k2", testSig, res); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := st2.Stats()
	if got.ResultEntries != 2 || got.Bytes == 0 {
		t.Fatalf("reopened stats %+v, want 2 results", got)
	}
	if _, err := st2.LoadResult("k1", testSig); err != nil {
		t.Fatal(err)
	}
	// Stray files that are not artifacts are ignored by the scan.
	if err := os.WriteFile(filepath.Join(dir, "results", "junk.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Stats().ResultEntries != 2 {
		t.Fatalf("stray file counted as artifact: %+v", st3.Stats())
	}
}

// TestGhostEntryHeals: a result whose file is removed behind the
// store's back fails its load wrapping fs.ErrNotExist, and that load
// drops the index entry: HasResult and Stats stop counting it, and a
// store reopened from the journal does not index it again.
func TestGhostEntryHeals(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	for _, key := range []string{"ghost", "kept"} {
		if err := st.SaveResult(key, testSig, res); err != nil {
			t.Fatal(err)
		}
	}
	kept, err := os.Stat(st.resultPath("kept"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(st.resultPath("ghost")); err != nil {
		t.Fatal(err)
	}
	if !st.HasResult("ghost") {
		t.Fatal("the index forgot the entry before a load found it gone")
	}
	if _, err := st.LoadResult("ghost", testSig); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("loading a removed file: %v, want fs.ErrNotExist", err)
	}
	if st.HasResult("ghost") {
		t.Fatal("HasResult still reports the removed file")
	}
	if got := st.Stats(); got.ResultEntries != 1 || got.Bytes != kept.Size() {
		t.Fatalf("stats %+v, want 1 result of %d bytes", got, kept.Size())
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := st2.Stats()
	if got.BootScanned {
		t.Fatal("the reopen scanned the directory; want the journal replayed")
	}
	if st2.HasResult("ghost") || got.ResultEntries != 1 || got.Bytes != kept.Size() {
		t.Fatalf("reopened: ghost indexed %v, stats %+v", st2.HasResult("ghost"), got)
	}
}

// TestSaveIdempotent: re-saving an existing key is a no-op (eviction
// spills of warm-started entries must not rewrite files).
func TestSaveIdempotent(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := testResult(t)
	if err := st.SaveResult("k", testSig, res); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(st.resultPath("k"))
	if err != nil {
		t.Fatal(err)
	}
	other := &backend.Result{Target: backend.TargetAer, NumQubits: 1, Probabilities: []float64{1, 0}, Counts: sampling.Counts{0: 1}}
	if err := st.SaveResult("k", testSig, other); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(st.resultPath("k"))
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() != after.Size() || !before.ModTime().Equal(after.ModTime()) {
		t.Fatal("idempotent save rewrote the file")
	}
}

// TestPlanKeySanitized: plan keys carry a '|' which must not leak into
// filenames; the artifact still round-trips under the original key.
func TestPlanKeySanitized(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.GHZ(8, false)
	comp, err := backend.Compile(c, backend.Config{Target: backend.TargetNvidia, TileBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	key := "abc|b14"
	if err := st.SavePlan(key, testSig, comp, 1); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, plansSubdir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		for _, r := range e.Name() {
			if r == '|' {
				t.Fatalf("unsanitized filename %q", e.Name())
			}
		}
	}
	if _, _, err := st.LoadPlan(key, testSig); err != nil {
		t.Fatal(err)
	}
}
