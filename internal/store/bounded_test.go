package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"qgear/internal/artifact"
	"qgear/internal/backend"
	"qgear/internal/faultfs"
	"qgear/internal/kernel"
)

// probsResult fabricates a distinct probability result. ops feeds the
// recompute-cost model (emitted kernel ops × state size) so tests can
// steer Greedy-Dual-Size priorities without running a simulator.
func probsResult(i int, ops int) *backend.Result {
	return &backend.Result{
		Target:        backend.TargetNvidia,
		NumQubits:     2,
		Probabilities: []float64{0.5, 1e-9 * float64(i+1), 0, 0.5 - 1e-9*float64(i+1)},
		Duration:      time.Millisecond,
		KernelStats:   kernel.Stats{EmittedOps: ops},
	}
}

// diskArtifactBytes sums the on-disk size of every artifact file under
// the store — the quantity -max-store-bytes bounds. The manifest
// journal and in-flight temp files are outside the budget. Entries
// that vanish mid-walk (concurrent GC deletes) are skipped; note a
// walk concurrent with saves is only an approximation — a file
// deleted behind the walker and its replacement ahead of it are both
// counted though they never coexisted — so budget assertions belong
// at quiescent points.
func diskArtifactBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		if d.IsDir() || isTempName(d.Name()) {
			return nil
		}
		if !strings.HasSuffix(d.Name(), kindResult.ext()) && !strings.HasSuffix(d.Name(), kindPlan.ext()) {
			return nil
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// --- key encoding ---------------------------------------------------

// TestKeyCollisionDistinctArtifacts is the regression for a lossy
// sanitizer that mapped every unsafe byte to '+': the keys "a|b" and
// "a+b" collided on one filename, so the second save was silently
// skipped and the second load quarantined the first key's artifact.
// The injective percent-escape encoding keeps them apart.
func TestKeyCollisionDistinctArtifacts(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a|b", "a+b"}
	for i, k := range keys {
		if err := st.SaveResult(k, testSig, probsResult(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		res, err := st.LoadResult(k, testSig)
		if err != nil {
			t.Fatalf("load %q: %v", k, err)
		}
		want := probsResult(i, 1).Probabilities
		if !reflect.DeepEqual(res.Probabilities, want) {
			t.Fatalf("key %q answered with the other key's artifact", k)
		}
	}
	if p1, p2 := st.resultPath(keys[0]), st.resultPath(keys[1]); p1 == p2 {
		t.Fatalf("colliding paths: %s", p1)
	}
	if got := st.Stats().ResultEntries; got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
}

// TestBootScanIgnoresForeignFiles: the store reads only the layout it
// writes. A file sitting flat under results/ or plans/, or a shard file
// whose stem encodeKey could not have produced, is not the store's:
// the boot scan must neither index, move nor delete it, and Open must
// still succeed.
func TestBootScanIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("a|b", testSig, probsResult(0, 1)); err != nil {
		t.Fatal(err)
	}
	artifact, err := os.ReadFile(st.resultPath("a|b"))
	if err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(st.resultPath("a|b"))
	foreign := []string{
		filepath.Join(dir, resultsSubdir, "flat"+resultExt), // flat, valid stem
		filepath.Join(dir, plansSubdir, "flat"+planExt),     // flat plan
		filepath.Join(shard, "a+b"+resultExt),               // '+' is never emitted raw
		filepath.Join(shard, "a%7cb"+resultExt),             // escapes are upper-case
		filepath.Join(shard, "a%4"+resultExt),               // truncated escape
		filepath.Join(shard, "a%41b"+resultExt),             // safe bytes are never escaped
	}
	for _, p := range foreign {
		if err := os.WriteFile(p, artifact, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the manifest so the reopen walks the tree.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over foreign files: %v", err)
	}
	if !st2.Stats().BootScanned {
		t.Fatal("reopen did not scan")
	}
	if got := st2.Stats(); got.ResultEntries != 1 || got.PlanEntries != 0 {
		t.Fatalf("foreign files indexed: %d results, %d plans, want 1 and 0", got.ResultEntries, got.PlanEntries)
	}
	for _, k := range []string{"flat", "a+b", "aAb"} {
		if st2.HasResult(k) {
			t.Fatalf("key %q resolves to a foreign file", k)
		}
	}
	if _, err := st2.LoadResult("a|b", testSig); err != nil {
		t.Fatalf("the store's own artifact: %v", err)
	}
	for _, p := range foreign {
		got, err := os.ReadFile(p)
		if err != nil || !bytes.Equal(got, artifact) {
			t.Fatalf("foreign file %s moved, deleted or rewritten (err %v)", p, err)
		}
	}
	if _, err := os.Stat(st2.resultPath("flat")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("flat file was copied into its shard: %v", err)
	}
}

// --- durability: the missing-fsync bugfix ---------------------------

// TestSaveResultSyncsBeforeRename asserts the write path is durable:
// a save fsyncs the temp file and its parent directory (plus the
// manifest append) before reporting success.
func TestSaveResultSyncsBeforeRename(t *testing.T) {
	inj := faultfs.New(faultfs.OS{}, faultfs.Config{})
	st, err := OpenOptions(t.TempDir(), Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	before := inj.OpCalls(faultfs.OpSync)
	if err := st.SaveResult("k", testSig, probsResult(0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := inj.OpCalls(faultfs.OpSync) - before; got < 2 {
		t.Fatalf("save performed %d fsyncs, want >= 2 (temp file + parent dir)", got)
	}
}

// TestSaveResultFailsWhenSyncFails: if fsync cannot confirm
// durability the save must report an error and must not publish the
// key, rather than pretending the artifact is safe.
func TestSaveResultFailsWhenSyncFails(t *testing.T) {
	inj := faultfs.New(faultfs.OS{}, faultfs.Config{
		Seed:  1,
		PerOp: map[faultfs.Op]faultfs.Rates{faultfs.OpSync: {ErrPerMille: 1000}},
	})
	st, err := OpenOptions(t.TempDir(), Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("k", testSig, probsResult(0, 1)); err == nil {
		t.Fatal("save reported success with fsync failing")
	}
	if st.HasResult("k") {
		t.Fatal("un-durable artifact was published to the index")
	}
}

// --- gradient length: the unvalidated-dataset bugfix ----------------

// TestGradientLengthMismatchRejected crafts an artifact whose gradient
// vector disagrees with the recorded gradient_len and one whose
// gradient vector was dropped entirely; both must fail integrity.
func TestGradientLengthMismatchRejected(t *testing.T) {
	build := func(gradient []float64, recordedLen int) []byte {
		res := &backend.Result{
			Target: backend.TargetNvidia, NumQubits: 1, SweepPoints: 2,
			SweepValues: []float64{0.25, 0.5}, Gradient: gradient,
		}
		w := artifact.NewWriter(0)
		writeResult(w, "gk", testSig, res, recordedLen)
		data, err := w.Seal(artifact.KindResult, FormatVersion, true)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for name, data := range map[string][]byte{
		"truncated": build([]float64{1, 2, 3}, 5),
		"dropped":   build(nil, 3),
	} {
		t.Run(name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := st.resultPath("gk")
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := st.LoadResult("gk", testSig); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("tampered gradient loaded: err = %v, want ErrIntegrity", err)
			}
		})
	}
}

// --- temp-name matching: the substring-shadowing bugfix -------------

// TestTmpSubstringKeysSurviveScan: a key merely containing ".tmp"
// must not be mistaken for an in-flight temp file by the boot scan.
func TestTmpSubstringKeysSurviveScan(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const key = "circ.tmp12-3"
	if err := st.SaveResult(key, testSig, probsResult(0, 1)); err != nil {
		t.Fatal(err)
	}
	// Force the reopen down the scan path; the old Contains(".tmp")
	// check silently dropped this artifact there.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.HasResult(key) {
		t.Fatalf("scan dropped artifact whose key contains .tmp")
	}
	if _, err := st2.LoadResult(key, testSig); err != nil {
		t.Fatal(err)
	}
}

// TestStaleTempReaping: real temp files are skipped while fresh (a
// concurrent writer may own them) and deleted once stale.
func TestStaleTempReaping(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("k", testSig, probsResult(0, 1)); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(st.resultPath("k"))
	fresh := filepath.Join(shard, "f"+resultExt+".tmp99-1")
	stale := filepath.Join(shard, "s"+resultExt+".tmp99-2")
	for _, p := range []string{fresh, stale} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().ResultEntries; got != 1 {
		t.Fatalf("temp files leaked into the index: %d entries", got)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file reaped prematurely: %v", err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived the scan: %v", err)
	}
}

// --- manifest journal -----------------------------------------------

// TestManifestReplayNoScan: the second Open of a populated store must
// boot from the manifest alone — zero ReadDir calls — and serve the
// same bytes.
func TestManifestReplayNoScan(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if err := st.SaveResult(fmt.Sprintf("k%d", i), testSig, probsResult(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	inj := faultfs.New(faultfs.OS{}, faultfs.Config{})
	st2, err := OpenOptions(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.ReadDirCalls(); got != 0 {
		t.Fatalf("manifest replay still walked directories: %d ReadDir calls", got)
	}
	stats := st2.Stats()
	if stats.BootScanned {
		t.Fatal("replay boot reported a scan")
	}
	if stats.ResultEntries != n {
		t.Fatalf("replayed %d entries, want %d", stats.ResultEntries, n)
	}
	for i := 0; i < n; i++ {
		res, err := st2.LoadResult(fmt.Sprintf("k%d", i), testSig)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Probabilities, probsResult(i, 1).Probabilities) {
			t.Fatalf("entry %d drifted through manifest replay", i)
		}
	}
}

// TestManifestCorruptionFallsBackAndHeals: flipping a byte inside a
// frame must send Open down the full scan — once. The scan rewrites
// the manifest, so the following Open replays again.
func TestManifestCorruptionFallsBackAndHeals(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := st.SaveResult(fmt.Sprintf("k%d", i), testSig, probsResult(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(manifestMagic)+2+12] ^= 0xFF // inside the first frame's payload
	if err := os.WriteFile(mpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	inj := faultfs.New(faultfs.OS{}, faultfs.Config{})
	st2, err := OpenOptions(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Stats().BootScanned {
		t.Fatal("corrupt manifest did not trigger the scan fallback")
	}
	if inj.ReadDirCalls() == 0 {
		t.Fatal("scan fallback performed no ReadDir")
	}
	if st2.Stats().ResultEntries != 4 {
		t.Fatalf("scan recovered %d entries, want 4", st2.Stats().ResultEntries)
	}

	// Self-healed: the third open replays the rewritten manifest.
	inj2 := faultfs.New(faultfs.OS{}, faultfs.Config{})
	st3, err := OpenOptions(dir, Options{FS: inj2})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Stats().BootScanned {
		t.Fatal("manifest was not healed by the scan")
	}
	if got := inj2.ReadDirCalls(); got != 0 {
		t.Fatalf("healed boot still scanned: %d ReadDir calls", got)
	}
	if _, err := st3.LoadResult("k2", testSig); err != nil {
		t.Fatal(err)
	}
}

// TestManifestTornTailReplaysPrefix: a crash mid-append leaves a
// truncated final frame. That is not corruption — the intact prefix
// replays and the journal is compacted clean.
func TestManifestTornTailReplaysPrefix(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.SaveResult(fmt.Sprintf("k%d", i), testSig, probsResult(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	mpath := filepath.Join(dir, manifestName)
	fh, err := os.OpenFile(mpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header promising 64 payload bytes, followed by only 5.
	torn := []byte{64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5}
	if _, err := fh.Write(torn); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	inj := faultfs.New(faultfs.OS{}, faultfs.Config{})
	st2, err := OpenOptions(dir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Stats().BootScanned {
		t.Fatal("torn tail escalated to a full scan")
	}
	if got := inj.ReadDirCalls(); got != 0 {
		t.Fatalf("torn-tail boot scanned: %d ReadDir calls", got)
	}
	if st2.Stats().ResultEntries != 3 {
		t.Fatalf("prefix replay found %d entries, want 3", st2.Stats().ResultEntries)
	}
	// The boot compacted the torn journal; the next open is clean.
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, torn, err := parseManifest(raw); err != nil || torn {
		t.Fatalf("journal not compacted clean after torn tail: torn=%v err=%v", torn, err)
	}
}

// --- on-disk GC -----------------------------------------------------

// TestGCBudgetNeverExceeded: under a byte budget the artifact tree
// never outgrows it — checked on disk after every save — and the
// surviving artifacts stay bit-identical.
func TestGCBudgetNeverExceeded(t *testing.T) {
	probe, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.SaveResult("probe", testSig, probsResult(0, 1)); err != nil {
		t.Fatal(err)
	}
	artifact := probe.Stats().Bytes
	if artifact <= 0 {
		t.Fatal("probe artifact has no size")
	}

	dir := t.TempDir()
	budget := 3*artifact + artifact/2
	st, err := OpenOptions(dir, Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		if err := st.SaveResult(fmt.Sprintf("k%d", i), testSig, probsResult(i, 1)); err != nil {
			t.Fatal(err)
		}
		if got := diskArtifactBytes(t, dir); got > budget {
			t.Fatalf("after save %d: %d bytes on disk, budget %d", i, got, budget)
		}
	}
	stats := st.Stats()
	if stats.GCEvictions == 0 {
		t.Fatal("budget forced no evictions")
	}
	if stats.Bytes > budget {
		t.Fatalf("accounted bytes %d exceed budget %d", stats.Bytes, budget)
	}
	survivors := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if !st.HasResult(key) {
			continue
		}
		survivors++
		res, err := st.LoadResult(key, testSig)
		if err != nil {
			t.Fatalf("surviving artifact %s: %v", key, err)
		}
		if !reflect.DeepEqual(res.Probabilities, probsResult(i, 1).Probabilities) {
			t.Fatalf("surviving artifact %s drifted", key)
		}
	}
	if survivors == 0 {
		t.Fatal("GC evicted everything")
	}
}

// TestGCPrefersCheapArtifacts: with equal sizes, the artifact that is
// cheap to recompute is the one evicted (cost-per-byte priority).
func TestGCPrefersCheapArtifacts(t *testing.T) {
	probe, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.SaveResult("probe", testSig, probsResult(0, 1)); err != nil {
		t.Fatal(err)
	}
	artifact := probe.Stats().Bytes

	st, err := OpenOptions(t.TempDir(), Options{MaxBytes: 2*artifact + artifact/2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("expensive", testSig, probsResult(0, 100000)); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("cheap", testSig, probsResult(1, 0)); err != nil {
		t.Fatal(err)
	}
	// The third save must evict exactly one of the two — the cheap one.
	if err := st.SaveResult("mid", testSig, probsResult(2, 100)); err != nil {
		t.Fatal(err)
	}
	if !st.HasResult("expensive") {
		t.Fatal("GC evicted the expensive-to-recompute artifact")
	}
	if st.HasResult("cheap") {
		t.Fatal("GC kept the cheap artifact over the expensive one")
	}
	if !st.HasResult("mid") {
		t.Fatal("incoming artifact was not admitted")
	}
}

// TestGCRejectsOversizedArtifact: an artifact larger than the whole
// budget is refused (nil error, counted) without disturbing residents.
func TestGCRejectsOversizedArtifact(t *testing.T) {
	probe, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.SaveResult("probe", testSig, probsResult(0, 1)); err != nil {
		t.Fatal(err)
	}
	artifact := probe.Stats().Bytes

	st, err := OpenOptions(t.TempDir(), Options{MaxBytes: artifact + artifact/2})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("resident", testSig, probsResult(0, 1)); err != nil {
		t.Fatal(err)
	}
	big := &backend.Result{
		Target:        backend.TargetNvidia,
		NumQubits:     12,
		Probabilities: make([]float64, 1<<12),
		KernelStats:   kernel.Stats{EmittedOps: 1},
	}
	for i := range big.Probabilities {
		big.Probabilities[i] = float64(i) / float64(1<<24) // incompressible-ish
	}
	if err := st.SaveResult("big", testSig, big); err != nil {
		t.Fatalf("oversized save must be a refusal, not an error: %v", err)
	}
	if st.HasResult("big") {
		t.Fatal("oversized artifact was admitted")
	}
	if st.Stats().GCRejected == 0 {
		t.Fatal("refusal not counted")
	}
	if !st.HasResult("resident") {
		t.Fatal("refused save disturbed a resident artifact")
	}
}

// TestGCBootEnforcesShrunkBudget: reopening with a smaller budget
// evicts down to it at boot.
func TestGCBootEnforcesShrunkBudget(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := st.SaveResult(fmt.Sprintf("k%d", i), testSig, probsResult(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	full := st.Stats().Bytes
	budget := full / 2
	st2, err := OpenOptions(dir, Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats().Bytes; got > budget {
		t.Fatalf("boot GC left %d bytes, budget %d", got, budget)
	}
	if got := diskArtifactBytes(t, dir); got > budget {
		t.Fatalf("boot GC left %d bytes on disk, budget %d", got, budget)
	}
	if st2.Stats().GCEvictions == 0 {
		t.Fatal("boot GC evicted nothing")
	}
}

// TestGCFaultingDeletesNeverOvershoot: when the filesystem refuses to
// delete victims, their bytes must stay charged against the budget —
// new saves are refused rather than overshooting.
func TestGCFaultingDeletesNeverOvershoot(t *testing.T) {
	probe, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.SaveResult("probe", testSig, probsResult(0, 1)); err != nil {
		t.Fatal(err)
	}
	artifact := probe.Stats().Bytes

	dir := t.TempDir()
	budget := 2*artifact + artifact/2
	inj := faultfs.New(faultfs.OS{}, faultfs.Config{
		Seed:  7,
		PerOp: map[faultfs.Op]faultfs.Rates{faultfs.OpRemove: {ErrPerMille: 1000}},
	})
	st, err := OpenOptions(dir, Options{FS: inj, MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st.SaveResult(fmt.Sprintf("k%d", i), testSig, probsResult(i, 1)); err != nil {
			t.Fatal(err)
		}
		if got := diskArtifactBytes(t, dir); got > budget {
			t.Fatalf("after save %d with deletes failing: %d bytes on disk, budget %d", i, got, budget)
		}
	}
	if inj.FaultCount() == 0 {
		t.Fatal("injector never fired")
	}
	if st.Stats().GCRejected == 0 {
		t.Fatal("expected refusals while victims were undeletable")
	}
}
