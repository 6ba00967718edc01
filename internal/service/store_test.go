package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
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

// TestWarmRestartIgnoresStoredPlans: the server persists results only.
// A plan file an older build left under the job's own plan key and
// signature is neither read nor quarantined: a new shots/seed submission
// of the circuit (a result-store miss) compiles afresh and answers what
// a fresh backend.Run answers. A server that evicts plans and then
// closes writes none to the store.
func TestWarmRestartIgnoresStoredPlans(t *testing.T) {
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
	comp, err := backend.Compile(c, s1.execOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.store.SavePlan(s1.planKey(c, c.Fingerprint()), s1.cfgSig, comp, 1); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	opts := SubmitOptions{Shots: 200, Seed: 2}
	res, _, err := s2.Run(ctx, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.PlanCacheMisses != 1 || st.StoreErrors != 0 || st.StoreQuarantines != 0 || st.Executed != 1 {
		t.Fatalf("plan cache misses %d, store errors %d, quarantines %d, executed %d; want 1, 0, 0, 1",
			st.PlanCacheMisses, st.StoreErrors, st.StoreQuarantines, st.Executed)
	}
	bcfg := s2.execOptions()
	bcfg.Shots, bcfg.Seed = opts.Shots, opts.Seed
	ref, err := backend.Run(c, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Probabilities, ref.Probabilities) {
		t.Fatal("the restarted server's probabilities differ from a fresh backend.Run")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.PlanCacheSize = 1
	s3 := newTestServer(t, cfg)
	before := s3.store.Stats().PlanEntries
	for _, n := range []int{5, 6, 7} { // three plan keys, structural or not
		if _, _, err := s3.Run(ctx, storeTestCircuits(1, n)[0], SubmitOptions{Shots: 10, Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s3.Stats(); st.PlanCacheEvictions != 2 {
		t.Fatalf("plan cache evictions %d, want 2", st.PlanCacheEvictions)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	if after := s3.store.Stats().PlanEntries; after != before {
		t.Fatalf("store plan entries %d -> %d: the server persisted plans", before, after)
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

// TestStoreEndpoint: GET /v1/store reports what the store holds on
// disk, every key present even at zero, and a store-less server answers
// with the same keys, "enabled": false and no "dir".
func TestStoreEndpoint(t *testing.T) {
	get := func(s *Server) string {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/store", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/store: status %d, body %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	const gc = `"gc_evictions":0,"gc_evicted_bytes":0,"gc_rejected":0,`
	want := `{"enabled":false,"result_entries":0,"plan_entries":0,"bytes":0,"max_bytes":0,` + gc +
		`"manifest_records":0,"manifest_compactions":0,"boot_scanned":false}` + "\n"
	if got := get(newTestServer(t, Config{WorkerPool: 1})); got != want {
		t.Fatalf("store-less /v1/store:\n got %s\nwant %s", got, want)
	}

	dir := t.TempDir()
	cfg := Config{StoreDir: dir, MaxStoreBytes: 1 << 20, WorkerPool: 1, TileBits: 4}
	s := newTestServer(t, cfg)
	c := storeTestCircuits(1, 8)[0]
	if _, _, err := s.Run(context.Background(), c, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	// The server persists results only; plan_entries counts the plan
	// files an older build left, such as this one.
	comp, err := backend.Compile(c, s.execOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.store.SavePlan(s.planKey(c, c.Fingerprint()), s.cfgSig, comp, 1); err != nil {
		t.Fatal(err)
	}
	// Force a spill by closing; then inspect a fresh server's endpoint.
	s.Close()
	s2 := newTestServer(t, cfg)
	st := s2.Stats()
	if st.StoreBytes == 0 || st.StoreManifestRecords == 0 {
		t.Fatalf("store stats %+v, want indexed artifacts under %s", st, dir)
	}
	quoted, _ := json.Marshal(dir)
	want = fmt.Sprintf(`{"enabled":true,"dir":%s,"result_entries":1,"plan_entries":1,"bytes":%d,"max_bytes":1048576,`+gc+
		`"manifest_records":%d,"manifest_compactions":0,"boot_scanned":false}`+"\n", quoted, st.StoreBytes, st.StoreManifestRecords)
	if got := get(s2); got != want {
		t.Fatalf("store-backed /v1/store:\n got %s\nwant %s", got, want)
	}
}

// TestPreSplitArtifactsAreRefused: before single-process states that fit
// one tile were split into two, a 13- to 16-qubit circuit compiled to
// the per-gate plan, and a store kept its result under the bare
// signature. Reopened by a server that splits, the result is refused
// and the job is compiled and simulated, not served. The same holds for a store
// written under the removed plan fusion option (its signatures end in
// "pftrue"; every signature now ends in "pffalse") and for one written
// with a gate fusion window (its signatures start "f2"; every signature
// now starts "f0").
func TestPreSplitArtifactsAreRefused(t *testing.T) {
	for _, parentSig := range []string{
		"f0|p0|tnvidia|d0|w0|s0|r0|b16|pffalse",
		"f0|p0|tnvidia|d0|w0|s0|r0|b16|pftrue",
		"f2|p0|tnvidia|d0|w0|s0|r0|b16|pffalse",
	} {
		cfg := Config{StoreDir: t.TempDir(), WorkerPool: 1, MaxBatch: 1, TileBits: 16}
		c := storeTestCircuits(1, 14)[0]
		opts := SubmitOptions{Shots: 100, Seed: 3}

		// What the parent wrote: the per-gate compile and its run.
		s1 := newTestServer(t, cfg)
		if s1.cfgSig == parentSig {
			t.Fatalf("%s: the signature did not change with the split rule", parentSig)
		}
		perGate := backend.Config{Target: backend.TargetNvidia, TileBits: -1, Shots: opts.Shots, Seed: opts.Seed}
		comp, err := backend.Compile(c, perGate)
		if err != nil {
			t.Fatal(err)
		}
		old, err := backend.RunCompiled(comp, perGate)
		if err != nil {
			t.Fatal(err)
		}
		resKey := s1.key(kindSimulate, c, opts)
		if err := s1.store.SaveResult(resKey, parentSig, old); err != nil {
			t.Fatal(err)
		}
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}

		s2 := newTestServer(t, cfg)
		if !s2.store.HasResult(resKey) {
			t.Fatalf("%s: the reopened store lost the parent's result", parentSig)
		}
		res, info, err := s2.Run(context.Background(), c, opts)
		if err != nil {
			t.Fatal(err)
		}
		st := s2.Stats()
		if info.Cached || st.StoreHits != 0 || st.Executed != 1 || st.StoreQuarantines != 1 {
			t.Fatalf("%s: cached %v, store hits %d, executed %d, quarantines %d; want the result refused and the job run",
				parentSig, info.Cached, st.StoreHits, st.Executed, st.StoreQuarantines)
		}
		if res.TileBits != c.NumQubits-1 {
			t.Fatalf("%s: ran at tile width %d, want the split %d", parentSig, res.TileBits, c.NumQubits-1)
		}
		if !reflect.DeepEqual(res.Probabilities, old.Probabilities) {
			t.Fatal("the split run's probabilities differ from the per-gate run's")
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}

		// What the splitting server spilled is served on the next start.
		s3 := newTestServer(t, cfg)
		if _, info, err := s3.Run(context.Background(), c, opts); err != nil || !info.Cached || s3.Stats().StoreHits != 1 {
			t.Fatalf("%s: rerun after restart cached %v, store hits %d, err %v; want a store hit", parentSig, info.Cached, s3.Stats().StoreHits, err)
		}
	}
}

// TestPreTableArtifactsAreRefused: a store written before adjacent
// diagonal gates ran as one phase table holds results that differ from
// a table run in the last bits, under a signature without the "|dt"
// suffix. Reopened, the result of a QFT (all cr1 ladders) is refused,
// the job is compiled and run, and what that run spilled is served on
// the next start.
func TestPreTableArtifactsAreRefused(t *testing.T) {
	cfg := Config{StoreDir: t.TempDir(), WorkerPool: 1, MaxBatch: 1}
	c := circuit.New(10, 0)
	for j := 9; j >= 0; j-- {
		c.H(j)
		for k := j - 1; k >= 0; k-- {
			c.CP(math.Pi/float64(int(1)<<uint(j-k)), k, j)
		}
	}
	c.MeasureAll()
	opts := SubmitOptions{Shots: 100, Seed: 3}

	s1 := newTestServer(t, cfg)
	parentSig, ok := strings.CutSuffix(s1.cfgSig, "|dt")
	if !ok {
		t.Fatalf("signature %q does not end in the table suffix", s1.cfgSig)
	}
	bcfg := backend.Config{Target: backend.TargetNvidia, Shots: opts.Shots, Seed: opts.Seed}
	comp, err := backend.Compile(c, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := backend.RunCompiled(comp, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	resKey := s1.key(kindSimulate, c, opts)
	if err := s1.store.SaveResult(resKey, parentSig, res); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	if !s2.store.HasResult(resKey) {
		t.Fatal("the reopened store lost the old result")
	}
	if _, info, err := s2.Run(context.Background(), c, opts); err != nil {
		t.Fatal(err)
	} else if st := s2.Stats(); info.Cached || st.StoreHits != 0 || st.Executed != 1 || st.StoreQuarantines != 1 {
		t.Fatalf("cached %v, store hits %d, executed %d, quarantines %d; want the result refused and the job run",
			info.Cached, st.StoreHits, st.Executed, st.StoreQuarantines)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := newTestServer(t, cfg)
	if _, info, err := s3.Run(context.Background(), c, opts); err != nil || !info.Cached || s3.Stats().StoreHits != 1 {
		t.Fatalf("rerun after restart cached %v, store hits %d, err %v; want a store hit", info.Cached, s3.Stats().StoreHits, err)
	}
}
