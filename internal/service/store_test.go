package service

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"qgear/internal/artifact"
	"qgear/internal/artifact/artifacttest"
	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/store"
)

// storeTestCircuits builds n deterministic, distinct circuits.
func storeTestCircuits(n, qubits int) []*circuit.Circuit {
	cs := make([]*circuit.Circuit, n)
	for i := range cs {
		c := circuit.GHZ(qubits, false)
		c.RZ(1e-6*float64(i+1), 0)
		cs[i] = c
	}
	return cs
}

// TestWarmRestartServesFromStore is the acceptance test: a server is
// filled, closed (spilling to disk), and a second server on the same
// directory answers every repeat submission — simulate and expectation
// jobs, one of them through the HTTP handler — from the store: marked
// cached, zero simulations. Every restarted answer is held against an
// independent backend.Run / RunExpectation of the same circuit, not
// against what the first server said: bit-identical probabilities,
// exact shot counts, bit-identical ⟨H⟩.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	cfg := pinHost(Config{StoreDir: dir, WorkerPool: 1, MaxBatch: 1, TileBits: 4})
	circs := storeTestCircuits(5, 8)
	h := expTestHamiltonian(8)
	ctx := context.Background()
	const shots = 300

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range circs {
		if _, _, err := s1.Run(ctx, c, SubmitOptions{Shots: shots, Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s1.Run(ctx, circs[0], SubmitOptions{Hamiltonian: h}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	ref := backend.Config{Target: backend.TargetNvidia, Workers: cfg.Workers, TileBits: cfg.TileBits, Shots: shots}
	s2, ts := newHTTPServer(t, cfg)
	for i, c := range circs {
		ref.Seed = uint64(i)
		want, err := backend.Run(c, ref)
		if err != nil {
			t.Fatal(err)
		}
		var probs []float64
		var counts map[string]int
		var cached bool
		if i == 0 {
			// The same job as a client sees it: POST, poll, fetch.
			info, code := postJob(t, ts.URL, SubmitRequest{Kind: "simulate", Circuit: FromCircuit(c), Shots: shots, Seed: ref.Seed})
			if code != http.StatusAccepted {
				t.Fatalf("submit over HTTP: %d", code)
			}
			pollDone(t, ts.URL, info.ID)
			var body ResultResponse
			getJSON(t, ts.URL+"/v1/results/"+info.ID+"?full=1", &body)
			probs, counts, cached = body.Probabilities, body.Counts, body.Cached
		} else {
			res, info, err := s2.Run(ctx, c, SubmitOptions{Shots: shots, Seed: ref.Seed})
			if err != nil {
				t.Fatal(err)
			}
			probs, counts, cached = res.Probabilities, bitstringMap(wireCounts{res.Counts, res.NumQubits}), info.Cached
		}
		if !cached {
			t.Fatalf("circuit %d was re-simulated after restart", i)
		}
		if !reflect.DeepEqual(probs, want.Probabilities) {
			t.Fatalf("circuit %d: restarted probabilities differ from an independent run (max |Δp| must be 0)", i)
		}
		if wantCounts := bitstringMap(wireCounts{want.Counts, want.NumQubits}); !reflect.DeepEqual(counts, wantCounts) {
			t.Fatalf("circuit %d: restarted counts %v, independent run %v", i, counts, wantCounts)
		}
	}
	ref.Shots, ref.Seed = 0, 0
	wantExp, err := backend.RunExpectation(circs[0], h, ref)
	if err != nil {
		t.Fatal(err)
	}
	res, info, err := s2.Run(ctx, circs[0], SubmitOptions{Hamiltonian: h})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached || res.ExpValue == nil || *res.ExpValue != *wantExp.ExpValue {
		t.Fatalf("expectation after restart: cached=%v ⟨H⟩=%v, independent evaluation %.17g", info.Cached, res.ExpValue, *wantExp.ExpValue)
	}

	st := s2.Stats()
	if want := uint64(len(circs)) + 1; st.StoreHits != want {
		t.Fatalf("store hits %d, want %d", st.StoreHits, want)
	}
	if st.Executed != 0 {
		t.Fatalf("%d simulations ran on the warm-started server", st.Executed)
	}
	if st.HitRate != 1 {
		t.Fatalf("hit rate %v, want 1 (store hits count)", st.HitRate)
	}
}

// TestWarmRestartPlansFromStore: the compiled-plan cache warm-starts
// too — a new shots/seed submission of a known circuit (result-cache
// miss) reuses the persisted plan instead of recompiling.
func TestWarmRestartPlansFromStore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StoreDir: dir, WorkerPool: 1, MaxBatch: 1, TileBits: 4}
	c := storeTestCircuits(1, 8)[0]
	ctx := context.Background()

	s1, err := New(pinHost(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Run(ctx, c, SubmitOptions{Shots: 100, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	// Different shots: misses the result store, must still simulate —
	// but through the persisted plan.
	if _, _, err := s2.Run(ctx, c, SubmitOptions{Shots: 200, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.StorePlanHits != 1 {
		t.Fatalf("plan store hits %d, want 1", st.StorePlanHits)
	}
	if st.Executed != 1 {
		t.Fatalf("executed %d, want 1", st.Executed)
	}
}

// TestPlanlessMGPUArtifactIsRecompiled: a store written while per-gate
// execution was the absence of a plan — aer, small states, and before
// that small nvidia-mgpu worlds — holds compiled artifacts with no plan
// under an unchanged signature. Every engine executes plans only, so the
// warm-starting server quarantines one like a corrupt file and compiles
// afresh, whatever the target.
func TestPlanlessMGPUArtifactIsRecompiled(t *testing.T) {
	for _, cfg := range []Config{
		{Target: backend.TargetAer},
		{Target: backend.TargetNvidiaMGPU, Devices: 2},
	} {
		// What the older build wrote: kernel, a cleared plan flag,
		// transform stats, tile width 0.
		oldPlanIsRecompiled(t, cfg, func(w *artifact.Writer, comp *backend.Compiled) {
			kernel.WriteKernel(w, comp.Kernel)
			w.Bool(false)
			kernel.WriteStats(w, comp.TransformStats)
			w.Int(0)
		})
	}
}

// TestExchangePlanArtifactIsRecompiled: a store written while rank-bit
// targets compiled into exchange segments holds nvidia-mgpu plans with
// a segment kind the plan reader no longer has, under an unchanged
// format version and signature. The warm-starting server quarantines
// one and compiles afresh.
func TestExchangePlanArtifactIsRecompiled(t *testing.T) {
	oldPlanIsRecompiled(t, Config{Target: backend.TargetNvidiaMGPU, Devices: 2}, func(w *artifact.Writer, comp *backend.Compiled) {
		kernel.WriteKernel(w, comp.Kernel)
		w.Bool(true)
		artifacttest.WriteExchangePlan(w, comp.Plan.TileBits, comp.Kernel.NumQubits)
		kernel.WriteStats(w, comp.TransformStats)
		w.Int(comp.Plan.TileBits)
	})
}

// oldPlanIsRecompiled saves a circuit's plan through a fresh server for
// cfg, replaces the file's payload after key, signature and cost by what
// write puts there, and checks that the next run of the circuit
// quarantines the file and compiles afresh.
func oldPlanIsRecompiled(t *testing.T, cfg Config, write func(w *artifact.Writer, comp *backend.Compiled)) {
	t.Helper()
	cfg.StoreDir, cfg.WorkerPool, cfg.MaxBatch = t.TempDir(), 1, 1
	c := storeTestCircuits(1, 6)[0]
	s := newTestServer(t, cfg)
	key := s.planKey(c, c.Fingerprint())
	comp, err := backend.Compile(c, backend.Config{Target: cfg.Target, Devices: cfg.Devices})
	if err != nil {
		t.Fatal(err)
	}
	// The index entry comes from a real save; the file is then replaced.
	if err := s.store.SavePlan(key, s.cfgSig, comp, 1); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(cfg.StoreDir, "plans", "*", "*.plan"))
	if err != nil || len(files) != 1 {
		t.Fatalf("plan files %v (err %v), want one", files, err)
	}
	w := artifact.NewWriter(0)
	w.Str(key)
	w.Str(s.cfgSig)
	w.F64(1)
	write(w, comp)
	old, err := w.Seal(artifact.KindStorePlan, store.FormatVersion, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], old, 0o644); err != nil {
		t.Fatal(err)
	}
	res, _, err := s.Run(context.Background(), c, SubmitOptions{Shots: 100, Seed: 4})
	if err != nil {
		t.Fatalf("%s: an old plan artifact must fall back to a fresh compile, got %v", cfg.Target, err)
	}
	if res.PlanStats == nil {
		t.Fatalf("%s: the job ran without a plan", cfg.Target)
	}
	if st := s.Stats(); st.StoreQuarantines != 1 || st.StorePlanHits != 0 {
		t.Fatalf("%s: quarantines %d, plan store hits %d; want 1 and 0", cfg.Target, st.StoreQuarantines, st.StorePlanHits)
	}
}

// TestCorruptStoreFallsBack: a bit-flipped spill file is rejected,
// quarantined, and the submission transparently falls back to a real
// simulation with a correct result.
func TestCorruptStoreFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StoreDir: dir, WorkerPool: 1, MaxBatch: 1, TileBits: 4}
	c := storeTestCircuits(1, 8)[0]
	ctx := context.Background()

	s1, err := New(pinHost(cfg))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := s1.Run(ctx, c, SubmitOptions{Shots: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in every result file.
	matches, err := filepath.Glob(filepath.Join(dir, "results", "*", "*.qgr"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no spill files found: %v", err)
	}
	for _, path := range matches {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newTestServer(t, cfg)
	res, info, err := s2.Run(ctx, c, SubmitOptions{Shots: 100, Seed: 9})
	if err != nil {
		t.Fatalf("corrupt store must fall back to simulation, got %v", err)
	}
	if info.State != StateDone {
		t.Fatalf("job state %s", info.State)
	}
	for k := range want.Probabilities {
		if res.Probabilities[k] != want.Probabilities[k] {
			t.Fatalf("fallback result differs at %d", k)
		}
	}
	st := s2.Stats()
	if st.StoreErrors == 0 {
		t.Fatal("corruption was not counted")
	}
	if st.StoreHits != 0 {
		t.Fatalf("store hits %d from a corrupt file", st.StoreHits)
	}
	if st.Executed != 1 {
		t.Fatalf("executed %d, want 1 fallback simulation", st.Executed)
	}
	// The corrupt file was quarantined: a second restart re-simulates
	// without error noise.
	if got, _ := filepath.Glob(filepath.Join(dir, "results", "*", "*.qgr")); len(got) >= len(matches) {
		t.Fatalf("corrupt file not dropped: %d files, had %d", len(got), len(matches))
	}
}

// TestCacheByteBoundUnderLoad: with a budget sized for a fraction of
// the working set, resident bytes never exceed MaxCacheBytes while
// evicted entries spill and remain answerable from disk.
func TestCacheByteBoundUnderLoad(t *testing.T) {
	dir := t.TempDir()
	// A GHZ-10 result is 8 KiB of probabilities (+overhead); budget ~3
	// entries, then push 12 distinct circuits through.
	cfg := Config{StoreDir: dir, WorkerPool: 2, MaxCacheBytes: 30 << 10, TileBits: 4}
	circs := storeTestCircuits(12, 10)
	ctx := context.Background()
	s := newTestServer(t, cfg)
	for i, c := range circs {
		if _, _, err := s.Run(ctx, c, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.CacheBytes > st.CacheMaxBytes {
			t.Fatalf("after job %d: resident %d bytes exceed budget %d", i, st.CacheBytes, st.CacheMaxBytes)
		}
	}
	st := s.Stats()
	if st.CacheEvictions == 0 {
		t.Fatal("no evictions under a 30 KiB budget and 12 x 8 KiB results")
	}

	// Eviction spills are asynchronous; wait for the spiller to land
	// every evicted entry on disk before resubmitting.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st = s.Stats()
		if st.StoreSpills+st.StoreSpillDrops >= st.CacheEvictions {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spiller never caught up: %d spills + %d drops vs %d evictions",
				st.StoreSpills, st.StoreSpillDrops, st.CacheEvictions)
		}
		time.Sleep(time.Millisecond)
	}
	if st.StoreSpillDrops > 0 {
		t.Skipf("spill backlog shed %d entries; store completeness not guaranteed", st.StoreSpillDrops)
	}

	// Every circuit — including evicted ones — is still answered
	// without re-simulation: resident hits or store loads.
	execBefore := s.Stats().Executed
	for i, c := range circs {
		if _, info, err := s.Run(ctx, c, SubmitOptions{}); err != nil || !info.Cached {
			t.Fatalf("resubmission %d: err=%v cached=%v", i, err, info.Cached)
		}
	}
	if after := s.Stats(); after.Executed != execBefore {
		t.Fatalf("resubmissions re-simulated: %d -> %d", execBefore, after.Executed)
	}
}

// TestStoreEndpoint: /v1/store reports the on-disk contents.
func TestStoreEndpoint(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{StoreDir: dir, WorkerPool: 1, TileBits: 4})
	if _, _, err := s.Run(context.Background(), storeTestCircuits(1, 8)[0], SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	// Force a spill by closing; then inspect a fresh server's endpoint.
	s.Close()
	s2 := newTestServer(t, Config{StoreDir: dir, WorkerPool: 1, TileBits: 4})
	st := s2.Stats()
	if st.StoreResultEntries == 0 || st.StoreBytes == 0 || st.StoreDir != dir {
		t.Fatalf("store stats %+v, want indexed artifacts under %s", st, dir)
	}
}

// TestPreSplitArtifactsAreRefused: before single-process states that fit
// one tile were split into two, a 13- to 16-qubit circuit compiled to
// the per-gate plan, and a store kept that plan and its result under
// the bare signature. Reopened by a server that splits, both artifacts
// are refused — the plan would run at the old speed and, under plan
// fusion, round differently from what the server now compiles — and
// the job is recompiled and simulated, not served.
func TestPreSplitArtifactsAreRefused(t *testing.T) {
	for _, tc := range []struct {
		planFusion bool
		parentSig  string
	}{
		{false, "f0|p0|tnvidia|d0|w0|s0|r0|b16|pffalse"},
		{true, "f0|p0|tnvidia|d0|w0|s0|r0|b16|pftrue"},
	} {
		cfg := Config{StoreDir: t.TempDir(), WorkerPool: 1, MaxBatch: 1, TileBits: 16, PlanFusion: tc.planFusion}
		c := storeTestCircuits(1, 14)[0]
		opts := SubmitOptions{Shots: 100, Seed: 3}

		// What the parent wrote: the per-gate compile and its run.
		s1 := newTestServer(t, cfg)
		if s1.cfgSig == tc.parentSig {
			t.Fatalf("plan fusion %v: the signature %q did not change with the split rule", tc.planFusion, s1.cfgSig)
		}
		perGate := backend.Config{Target: backend.TargetNvidia, TileBits: -1, PlanFusion: tc.planFusion, Shots: opts.Shots, Seed: opts.Seed}
		comp, err := backend.Compile(c, perGate)
		if err != nil {
			t.Fatal(err)
		}
		old, err := backend.RunCompiled(comp, perGate)
		if err != nil {
			t.Fatal(err)
		}
		resKey, planKey := s1.key(kindSimulate, c, opts), s1.planKey(c, c.Fingerprint())
		if err := s1.store.SavePlan(planKey, tc.parentSig, comp, 1); err != nil {
			t.Fatal(err)
		}
		if err := s1.store.SaveResult(resKey, tc.parentSig, old); err != nil {
			t.Fatal(err)
		}
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}

		s2 := newTestServer(t, cfg)
		if !s2.store.HasResult(resKey) || !s2.store.HasPlan(planKey) {
			t.Fatalf("plan fusion %v: the reopened store lost the parent's artifacts", tc.planFusion)
		}
		res, info, err := s2.Run(context.Background(), c, opts)
		if err != nil {
			t.Fatal(err)
		}
		st := s2.Stats()
		if info.Cached || st.StoreHits != 0 || st.StorePlanHits != 0 || st.Executed != 1 || st.StoreQuarantines != 2 {
			t.Fatalf("plan fusion %v: cached %v, store hits %d, plan store hits %d, executed %d, quarantines %d; want the result and plan refused and the job run",
				tc.planFusion, info.Cached, st.StoreHits, st.StorePlanHits, st.Executed, st.StoreQuarantines)
		}
		if res.TileBits != c.NumQubits-1 {
			t.Fatalf("plan fusion %v: ran at tile width %d, want the split %d", tc.planFusion, res.TileBits, c.NumQubits-1)
		}
		if !tc.planFusion && !reflect.DeepEqual(res.Probabilities, old.Probabilities) {
			t.Fatal("the split run's probabilities differ from the per-gate run's")
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}

		// What the splitting server spilled is served on the next start.
		s3 := newTestServer(t, cfg)
		if _, info, err := s3.Run(context.Background(), c, opts); err != nil || !info.Cached || s3.Stats().StoreHits != 1 {
			t.Fatalf("plan fusion %v: rerun after restart cached %v, store hits %d, err %v; want a store hit", tc.planFusion, info.Cached, s3.Stats().StoreHits, err)
		}
	}
}
