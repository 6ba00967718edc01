package store

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"qgear/internal/faultfs"
)

// TestStoreAcceptance is the `make ci-store` gate, in two phases:
//
//  1. Bounded sustained load — concurrent saves against a small byte
//     budget; the on-disk footprint is audited against the budget
//     throughout, survivors must reload bit-identical, and a warm
//     restart of the bounded store must replay its manifest.
//  2. Boot at scale — an unbounded store is filled with
//     QGEAR_STORE_ACCEPTANCE_N artifacts (default 300; CI runs 10000)
//     and reopened: the second Open must index every artifact from
//     the manifest journal alone, with zero ReadDir calls proven by
//     the faultfs op counters.
//
// When QGEAR_STORE_STATS_OUT names a file, a JSON report of both
// phases lands there for CI artifact upload.
func TestStoreAcceptance(t *testing.T) {
	n := 300
	if v := os.Getenv("QGEAR_STORE_ACCEPTANCE_N"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p <= 0 {
			t.Fatalf("bad QGEAR_STORE_ACCEPTANCE_N %q", v)
		}
		n = p
	}

	report := struct {
		GCSaves         int     `json:"gc_saves"`
		GCBudgetBytes   int64   `json:"gc_budget_bytes"`
		GCPeakDiskBytes int64   `json:"gc_peak_disk_bytes"`
		GCStats         Stats   `json:"gc_stats"`
		GCSurvivors     int     `json:"gc_survivors"`
		BootArtifacts   int     `json:"boot_artifacts"`
		BootReplayMS    float64 `json:"boot_replay_ms"`
		BootReadDirs    uint64  `json:"boot_readdirs"`
		BootStats       Stats   `json:"boot_stats"`
	}{}

	// --- Phase 1: the budget holds under concurrent load ---
	probe, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.SaveResult("probe", testSig, probsResult(0, 1)); err != nil {
		t.Fatal(err)
	}
	artifact := probe.Stats().Bytes

	gcDir := t.TempDir()
	budget := 24 * artifact
	st, err := OpenOptions(gcDir, Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	saves := n
	if saves > 2000 {
		saves = 2000 // the budget invariant saturates; scale lives in phase 2
	}
	// Waves of concurrent saves with a quiescent budget audit between
	// them. (A directory walk concurrent with saves cannot audit the
	// budget soundly: a file deleted behind the walker and its
	// replacement ahead of it are both counted though they never
	// coexisted on disk.)
	var (
		wg   sync.WaitGroup
		peak int64
	)
	const waveLen = 8 * workers
	for start := 0; start < saves; start += waveLen {
		end := start + waveLen
		if end > saves {
			end = saves
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := start + w; i < end; i += workers {
					// Vary recompute cost so eviction has real choices.
					if err := st.SaveResult(fmt.Sprintf("gc%d", i), testSig, probsResult(i, 1+i%97)); err != nil {
						t.Errorf("save gc%d: %v", i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		got := diskArtifactBytes(t, gcDir)
		if got > peak {
			peak = got
		}
		if got > budget {
			t.Fatalf("after %d saves: %d artifact bytes on disk, budget %d", end, got, budget)
		}
	}
	if got := diskArtifactBytes(t, gcDir); got > budget {
		t.Fatalf("after load: %d artifact bytes on disk, budget %d", got, budget)
	}
	gcStats := st.Stats()
	if gcStats.GCEvictions == 0 {
		t.Fatal("sustained load never engaged the GC")
	}
	survivors := 0
	for i := 0; i < saves; i++ {
		key := fmt.Sprintf("gc%d", i)
		if !st.HasResult(key) {
			continue
		}
		survivors++
		res, err := st.LoadResult(key, testSig)
		if err != nil {
			t.Fatalf("survivor %s: %v", key, err)
		}
		if !reflect.DeepEqual(res.Probabilities, probsResult(i, 1+i%97).Probabilities) {
			t.Fatalf("survivor %s drifted", key)
		}
	}
	if survivors == 0 {
		t.Fatal("GC left no survivors")
	}
	// Warm restart of the bounded store: manifest replay, survivors
	// intact and still bit-identical.
	gcInj := faultfs.New(faultfs.OS{}, faultfs.Config{})
	st2, err := OpenOptions(gcDir, Options{FS: gcInj, MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if got := gcInj.ReadDirCalls(); got != 0 {
		t.Fatalf("bounded-store restart scanned: %d ReadDir calls", got)
	}
	for i := 0; i < saves; i++ {
		key := fmt.Sprintf("gc%d", i)
		if !st2.HasResult(key) {
			continue
		}
		res, err := st2.LoadResult(key, testSig)
		if err != nil {
			t.Fatalf("survivor %s after restart: %v", key, err)
		}
		if !reflect.DeepEqual(res.Probabilities, probsResult(i, 1+i%97).Probabilities) {
			t.Fatalf("survivor %s drifted across restart", key)
		}
	}
	report.GCSaves, report.GCBudgetBytes, report.GCPeakDiskBytes = saves, budget, peak
	report.GCStats, report.GCSurvivors = gcStats, survivors

	// --- Phase 2: a populated store boots by replay, not by scan ---
	bootDir := t.TempDir()
	big, err := Open(bootDir)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := big.SaveResult(fmt.Sprintf("boot%d", i), testSig, probsResult(i, 1)); err != nil {
					t.Errorf("save boot%d: %v", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	inj := faultfs.New(faultfs.OS{}, faultfs.Config{})
	t0 := time.Now()
	big2, err := OpenOptions(bootDir, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	replay := time.Since(t0)
	if got := inj.ReadDirCalls(); got != 0 {
		t.Fatalf("boot of %d artifacts scanned: %d ReadDir calls, want pure manifest replay", n, got)
	}
	bootStats := big2.Stats()
	if bootStats.BootScanned {
		t.Fatal("boot reported a scan fallback")
	}
	if bootStats.ResultEntries != n {
		t.Fatalf("replay indexed %d artifacts, want %d", bootStats.ResultEntries, n)
	}
	for i := 0; i < n; i += 1 + n/64 {
		res, err := big2.LoadResult(fmt.Sprintf("boot%d", i), testSig)
		if err != nil {
			t.Fatalf("boot%d after replay: %v", i, err)
		}
		if !reflect.DeepEqual(res.Probabilities, probsResult(i, 1).Probabilities) {
			t.Fatalf("boot%d drifted through replay", i)
		}
	}
	report.BootArtifacts, report.BootReplayMS = n, float64(replay.Microseconds())/1000
	report.BootReadDirs, report.BootStats = inj.ReadDirCalls(), bootStats
	t.Logf("gc: %d saves under %dB budget, peak disk %dB, %d evictions, %d survivors; boot: %d artifacts replayed in %.1fms, %d ReadDirs",
		saves, budget, peak, gcStats.GCEvictions, survivors, n, report.BootReplayMS, report.BootReadDirs)

	if out := os.Getenv("QGEAR_STORE_STATS_OUT"); out != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
