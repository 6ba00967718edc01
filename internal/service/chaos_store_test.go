package service

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/faultfs"
)

// Fabricated results on either side of a ~16ms median load latency:
// recomputing the cheap one is faster than loading it back.
var (
	fakeCheapResult  = backend.Result{Target: backend.TargetNvidia, Probabilities: []float64{1, 0}, Duration: time.Millisecond}
	fakeCostlyResult = backend.Result{Target: backend.TargetNvidia, Probabilities: []float64{1, 0}, Duration: time.Second}
)

// diskStoreBytes sums the artifact files under a store directory —
// the footprint -max-store-bytes promises to bound. In-flight temp
// files are counted too (their bytes are covered by the store's
// reservation accounting); entries that vanish mid-walk (concurrent
// GC deletes) are skipped.
func diskStoreBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.Contains(d.Name(), ".") || d.Name() == "manifest.qgm" {
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

// TestChaosStoreGCFaultingDeletes runs waves of distinct circuits
// through a byte-bounded store whose deletes fail half the time: the
// on-disk footprint must never exceed the budget (failed deletes stay
// charged; saves are refused sooner than overshooting), while serving
// stays correct and bit-identical to a clean server.
func TestChaosStoreGCFaultingDeletes(t *testing.T) {
	inj := faultfs.New(faultfs.OS{}, faultfs.Config{
		Seed: 0xDE1E7E,
		// Only deletes fault: this test targets the GC's accounting,
		// not the read/write paths (chaos-covered elsewhere).
		PerOp: map[faultfs.Op]faultfs.Rates{
			faultfs.OpRemove: {ErrPerMille: 500},
		},
	})
	dir := t.TempDir()
	// A dozen of the ~0.2 KiB results this test spills, or one plan and
	// a handful: every wave overflows it.
	const budget = 3 << 10
	// The tiny result cache evicts nearly everything, so each wave
	// spills to the store and keeps the GC churning against the budget.
	cfg := Config{
		StoreDir: dir, StoreFS: inj, MaxStoreBytes: budget, MaxCacheBytes: 8 << 10,
		WorkerPool: 2, MaxBatch: 2, TileBits: 4,
	}
	s := newTestServer(t, cfg)
	clean := newTestServer(t, Config{WorkerPool: 2, MaxBatch: 2, TileBits: 4})

	for wave := 0; wave < 3; wave++ {
		circs := storeTestCircuits(8, 8)
		for i := range circs {
			circs[i].RZ(1e-3*float64(wave+1), 1) // distinct work per wave
		}
		var wg sync.WaitGroup
		for i, c := range circs {
			wg.Add(1)
			go func(i int, c *circuit.Circuit) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				res, _, err := s.Run(ctx, c, SubmitOptions{Shots: 200, Seed: uint64(i)})
				if err != nil {
					t.Errorf("wave %d circuit %d: %v", wave, i, err)
					return
				}
				want, _, err := clean.Run(ctx, c, SubmitOptions{Shots: 200, Seed: uint64(i)})
				if err != nil {
					t.Errorf("wave %d circuit %d clean reference: %v", wave, i, err)
					return
				}
				if !reflect.DeepEqual(res.Probabilities, want.Probabilities) {
					t.Errorf("wave %d circuit %d probabilities diverged", wave, i)
				}
			}(i, c)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		// Drain the spiller, then audit the disk against the budget.
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			s.mu.Lock()
			pending := len(s.pendingSpills)
			s.mu.Unlock()
			if pending == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("wave %d: %d spills still pending after 30 s", wave, pending)
			}
		}
		if got := diskStoreBytes(t, dir); got > budget {
			t.Fatalf("wave %d: store grew to %d bytes on disk, budget %d", wave, got, budget)
		}
	}
	if inj.FaultCount() == 0 {
		t.Fatal("delete-fault injector never fired — the test exercised nothing")
	}
	st := s.Stats()
	if st.StoreSpills == 0 {
		t.Fatal("no spills reached the store")
	}
	if st.StoreGCEvictions == 0 && st.StoreGCRejected == 0 {
		t.Fatal("budget pressure never engaged the GC")
	}
	t.Logf("faults=%d spills=%d gc: evictions=%d evicted_bytes=%d rejected=%d disk=%d/%d",
		inj.FaultCount(), st.StoreSpills, st.StoreGCEvictions, st.StoreGCEvictedBytes,
		st.StoreGCRejected, diskStoreBytes(t, dir), budget)
}

// TestChaosManifestReplayAfterKill abandons a server without Close —
// the kill -9 shape — and warm-starts a second one over the same
// store: the boot must come from the manifest journal alone (zero
// directory scans, proven by the injector's ReadDir counter) and the
// stored artifacts must serve bit-identically.
func TestChaosManifestReplayAfterKill(t *testing.T) {
	dir := t.TempDir()
	// The tiny cache forces eviction-spills, so artifacts reach disk
	// while the server is live (Close — the orderly spill path — is
	// exactly what this test denies itself).
	base := Config{StoreDir: dir, MaxCacheBytes: 4 << 10, WorkerPool: 1, MaxBatch: 1, TileBits: 4}
	circs := storeTestCircuits(6, 8)
	ctx := context.Background()

	s1, err := New(pinHost(base))
	if err != nil {
		t.Fatal(err)
	}
	// The abandoned spiller goes on landing s1's backlog after the test
	// body; the directory is removed only once it has.
	t.Cleanup(func() {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			s1.mu.Lock()
			backlog := len(s1.pendingSpills)
			s1.mu.Unlock()
			if backlog == 0 {
				return
			}
		}
		t.Error("s1's spill backlog never drained")
	})
	want := make([][]float64, len(circs))
	for i, c := range circs {
		res, _, err := s1.Run(ctx, c, SubmitOptions{Shots: 150, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Probabilities
	}
	// Wait for the async spiller to land artifacts, then walk away
	// without Close: goroutines, spill backlog, everything abandoned.
	deadline := time.Now().Add(5 * time.Second)
	for s1.Stats().StoreResultEntries < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("spiller landed only %d artifacts", s1.Stats().StoreResultEntries)
		}
		time.Sleep(10 * time.Millisecond)
	}
	landed := s1.Stats().StoreResultEntries

	inj := faultfs.New(faultfs.OS{}, faultfs.Config{})
	cfg2 := base
	cfg2.StoreFS = inj
	s2 := newTestServer(t, cfg2)
	if got := inj.ReadDirCalls(); got != 0 {
		t.Fatalf("boot after kill scanned the store: %d ReadDir calls, want manifest replay", got)
	}
	st := s2.Stats()
	if st.StoreBootScanned {
		t.Fatal("boot after kill reported a scan fallback")
	}
	if st.StoreResultEntries < landed {
		t.Fatalf("replay found %d artifacts, killed server had landed %d", st.StoreResultEntries, landed)
	}
	served := 0
	for i, c := range circs {
		res, info, err := s2.Run(ctx, c, SubmitOptions{Shots: 150, Seed: uint64(i)})
		if err != nil {
			t.Fatalf("circuit %d after kill: %v", i, err)
		}
		if !reflect.DeepEqual(res.Probabilities, want[i]) {
			t.Fatalf("circuit %d diverged across the kill", i)
		}
		if info.Cached {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no submission was answered from the replayed store")
	}
	if s2.Stats().StoreHits == 0 {
		t.Fatal("replayed store produced no hits")
	}
}

// TestStoreAdmissionSkipsCheapResults drives enough store loads to
// establish a median load latency, then verifies that results whose
// recorded compute time is far below it are not persisted (the spill
// is skipped and counted), while expensive results still are.
func TestStoreAdmissionSkipsCheapResults(t *testing.T) {
	cfg := Config{StoreDir: t.TempDir(), MaxCacheBytes: 4 << 10, WorkerPool: 1, MaxBatch: 1, TileBits: 4}
	s := newTestServer(t, cfg)
	// Seed the load histogram past the admission threshold by
	// observing synthetic loads, exactly as serveFromStore would.
	for i := 0; i < 64; i++ {
		s.storeLoad.Observe(10 * time.Millisecond)
	}
	if s.admitResultSpill(&fakeCheapResult) {
		t.Fatal("a result cheaper to recompute than the median load was admitted")
	}
	if !s.admitResultSpill(&fakeCostlyResult) {
		t.Fatal("an expensive result was refused")
	}
	before := s.Stats().StoreAdmissionSkips
	s.mu.Lock()
	s.enqueueSpillLocked(spillItem{key: "cheap", result: &fakeCheapResult})
	s.mu.Unlock()
	if got := s.Stats().StoreAdmissionSkips; got != before+1 {
		t.Fatalf("admission skip not counted: %d -> %d", before, got)
	}
}
