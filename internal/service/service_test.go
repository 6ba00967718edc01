package service

import (
	"context"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/observable"
	"qgear/internal/oracle"
	"qgear/internal/randcirc"
	"qgear/internal/telemetry"
)

// pinHost fixes the two Config defaults New would otherwise read off
// the machine — the admission budget (half of MemAvailable) and the
// per-device worker count (NumCPU) — wherever the caller left them
// zero, so no test's outcome depends on the host's RAM or core count.
func pinHost(cfg Config) Config {
	if cfg.MaxStateBytes == 0 {
		cfg.MaxStateBytes = 4 << 30
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	return cfg
}

// newTestServer builds a server with small, deterministic sizing.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(pinHost(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// newHeldServer is newTestServer with every backend execution parked
// in ExecHook until release is called: the first one to start announces
// itself on started. Tests build a backlog deterministically behind a
// held worker instead of racing a timer — the worker takes whatever is
// queued the moment it is released. Cleanup releases, so a failing test
// never wedges Close. A hook already in cfg runs after the gate. The
// returned counts are the executions started and the most that were
// inside the hook at once; each stays there heldOverlap past the gate, so
// executions running side by side overlap in it.
func newHeldServer(t *testing.T, cfg Config) (s *Server, started <-chan struct{}, release func(), execs *heldExecs) {
	t.Helper()
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	execs = &heldExecs{}
	inner := cfg.ExecHook
	cfg.ExecHook = func() {
		execs.calls.Add(1)
		n := execs.running.Add(1)
		defer execs.running.Add(-1)
		for p := execs.peak.Load(); n > p; p = execs.peak.Load() {
			if execs.peak.CompareAndSwap(p, n) {
				break
			}
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		time.Sleep(heldOverlap)
		if inner != nil {
			inner()
		}
	}
	s = newTestServer(t, cfg)
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return s, entered, release, execs
}

// heldOverlap is how long newHeldServer's hook holds an execution after
// release.
const heldOverlap = 5 * time.Millisecond

// heldExecs counts what newHeldServer's hook saw.
type heldExecs struct {
	calls, running, peak atomic.Int64
}

func testCircuit(t *testing.T, qubits, blocks int, seed uint64) *circuit.Circuit {
	t.Helper()
	c, err := randcirc.Generate(randcirc.Spec{Qubits: qubits, Blocks: blocks, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunMatchesBackend(t *testing.T) {
	s := newTestServer(t, Config{})
	c := circuit.GHZ(10, false)
	res, info, err := s.Run(context.Background(), c, SubmitOptions{Shots: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateDone || info.Cached {
		t.Fatalf("info = %+v", info)
	}
	ref, err := backend.Run(c, backend.Config{Target: backend.TargetNvidia, Shots: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probabilities) != len(ref.Probabilities) {
		t.Fatalf("prob lengths %d vs %d", len(res.Probabilities), len(ref.Probabilities))
	}
	// Both sides of that executed the same plan — the width-0 one unless
	// QGEAR_TILE_BITS says otherwise, ten qubits fitting any detected tile
	// — so the job is also held to the oracle.
	if res.PlanStats == nil || res.TileBits == 0 && res.PlanStats.Global != res.KernelStats.EmittedOps {
		t.Fatalf("tile=%d plan stats %+v for %d kernel instructions", res.TileBits, res.PlanStats, res.KernelStats.EmittedOps)
	}
	want := oracle.Run(c).Probabilities()
	for i := range res.Probabilities {
		if res.Probabilities[i] != ref.Probabilities[i] {
			t.Fatalf("prob[%d] = %g, want %g", i, res.Probabilities[i], ref.Probabilities[i])
		}
		if math.Abs(res.Probabilities[i]-want[i]) > 1e-12 {
			t.Fatalf("prob[%d] = %g, oracle %g", i, res.Probabilities[i], want[i])
		}
	}
	if len(res.Counts) != len(ref.Counts) {
		t.Fatalf("counts differ: %v vs %v", res.Counts, ref.Counts)
	}
	for k, v := range ref.Counts {
		if res.Counts[k] != v {
			t.Fatalf("counts[%d] = %d, want %d", k, res.Counts[k], v)
		}
	}
}

// TestLRUEvictionOrder checks the cache's recency discipline end to
// end: a re-submission refreshes recency, so the cold entry is the one
// evicted.
func TestLRUEvictionOrder(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 2, WorkerPool: 1, MaxBatch: 1})
	ctx := context.Background()
	a := testCircuit(t, 8, 10, 1)
	b := testCircuit(t, 8, 10, 2)
	c := testCircuit(t, 8, 10, 3)
	keyOf := func(circ *circuit.Circuit) string { return s.key(kindSimulate, circ, SubmitOptions{}) }

	for _, circ := range []*circuit.Circuit{a, b} {
		if _, _, err := s.Run(ctx, circ, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a: now b is least recently used.
	if _, info, err := s.Run(ctx, a, SubmitOptions{}); err != nil || !info.Cached {
		t.Fatalf("expected cache hit for a: %+v, %v", info, err)
	}
	// c evicts b.
	if _, _, err := s.Run(ctx, c, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	want := []string{keyOf(c), keyOf(a)}
	got := s.cacheKeys()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("cache order %v, want %v", got, want)
	}
	st := s.Stats()
	if st.CacheEvictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.CacheEvictions)
	}
	// b is gone: resubmitting executes again.
	before := s.Stats().Executed
	if _, info, err := s.Run(ctx, b, SubmitOptions{}); err != nil || info.Cached {
		t.Fatalf("expected miss for evicted b: %+v, %v", info, err)
	}
	if after := s.Stats().Executed; after != before+1 {
		t.Fatalf("executed %d -> %d, want +1", before, after)
	}
}

// TestBatchMatchesSequential builds a backlog behind the single worker
// while it is held in the first job: on release that job finishes alone
// and the worker takes all the others at once — two batches, with no
// timer anywhere. Each job's probabilities and counts must be
// bit-identical to a standalone backend.Run. Distinct circuits run one
// after another, so no more executions are under way at once than there
// are workers (one state per worker, as admission prices it); the jobs
// of one circuit under many seeds share one run, so their backlog costs
// a single execution.
func TestBatchMatchesSequential(t *testing.T) {
	const workers = 1
	for _, tc := range []struct {
		target  backend.Target
		devices int
	}{
		{backend.TargetNvidiaMQPU, 4},
		{backend.TargetNvidia, 1},
	} {
		t.Run(string(tc.target), func(t *testing.T) {
			for _, in := range []struct {
				name     string
				circuits []uint64 // job i runs testCircuit(circuits[i]) with seed i
				execs    int64
			}{
				{"distinct", []uint64{100, 101, 102, 103, 104, 105}, 6},
				{"one-circuit", []uint64{100, 100, 100, 100, 100}, 2},
			} {
				t.Run(in.name, func(t *testing.T) {
					s, started, release, execs := newHeldServer(t, Config{
						Target:     tc.target,
						Devices:    tc.devices,
						WorkerPool: workers,
						MaxBatch:   8,
					})
					n := len(in.circuits)
					circs := make([]*circuit.Circuit, n)
					for i := range circs {
						circs[i] = testCircuit(t, 10, 20, in.circuits[i])
					}
					ids := make([]string, n)
					for i, c := range circs {
						info, err := s.Submit(c, SubmitOptions{Shots: 200, Seed: uint64(i)})
						if err != nil {
							t.Fatal(err)
						}
						ids[i] = info.ID
						if i == 0 {
							<-started // the worker now sits in job 0; the rest queue behind it
						}
					}
					release()
					ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
					defer cancel()
					for _, id := range ids {
						if info, err := s.Wait(ctx, id); err != nil || info.State != StateDone {
							t.Fatalf("job %s: %+v, %v", id, info, err)
						}
					}
					st := s.Stats()
					if st.BatchedJobs != uint64(n) {
						t.Fatalf("batched jobs %d, want %d", st.BatchedJobs, n)
					}
					if st.Batches >= uint64(n) {
						t.Fatalf("no coalescing: %d batches for %d jobs", st.Batches, n)
					}
					if st.Batches > 2 {
						t.Fatalf("%d batches for a held job plus a backlog of %d, want 2", st.Batches, n-1)
					}
					if got := execs.calls.Load(); got != in.execs {
						t.Fatalf("%d executions for %d jobs, want %d", got, n, in.execs)
					}
					if p := execs.peak.Load(); p > workers {
						t.Fatalf("%d executions at once on %d workers: more than one state per worker", p, workers)
					}
					for i, id := range ids {
						got, err := s.Result(id)
						if err != nil {
							t.Fatal(err)
						}
						// Reference runs on the server's own target/devices: a shared
						// or back-to-back run must match a standalone Run bit for bit,
						// including the mqpu per-device shot-sampling split.
						ref, err := backend.Run(circs[i], backend.Config{
							Target: tc.target, Devices: tc.devices, Shots: 200, Seed: uint64(i),
						})
						if err != nil {
							t.Fatal(err)
						}
						for j := range ref.Probabilities {
							if got.Probabilities[j] != ref.Probabilities[j] {
								t.Fatalf("job %d prob[%d]: %g vs %g", i, j, got.Probabilities[j], ref.Probabilities[j])
							}
						}
						if len(got.Counts) != len(ref.Counts) {
							t.Fatalf("job %d: counts size %d vs %d", i, len(got.Counts), len(ref.Counts))
						}
						for k, v := range ref.Counts {
							if got.Counts[k] != v {
								t.Fatalf("job %d counts[%d]: %d vs %d", i, k, got.Counts[k], v)
							}
						}
					}
				})
			}
		})
	}
}

// TestGracefulShutdownDrains submits a burst and closes immediately:
// every accepted job must still reach a terminal state before Close
// returns, and post-close submissions are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, Config{WorkerPool: 2, QueueSize: 64})
	const n = 12
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		info, err := s.Submit(testCircuit(t, 12, 20, uint64(i)), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		info, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateDone {
			t.Fatalf("job %s left in state %q after Close", id, info.State)
		}
	}
	if _, err := s.Submit(circuit.GHZ(4, false), SubmitOptions{}); err != ErrClosed {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}
}

// TestFailureIsolation: a job that exceeds the single-device qubit
// limit fails alone; batch-mates dequeued with it still succeed.
func TestFailureIsolation(t *testing.T) {
	// No admission budget: the bad job must reach execution, where
	// statevec.New refuses n > 28 before allocating anything.
	s, started, release, _ := newHeldServer(t, Config{WorkerPool: 1, MaxBatch: 4, MaxStateBytes: -1})
	// A first job holds the only worker while the bad job and its
	// batch-mate queue up behind it.
	if _, err := s.Submit(circuit.GHZ(6, false), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	<-started
	good := circuit.GHZ(8, false)
	bad := circuit.GHZ(30, false) // over statevec.MaxQubits
	badInfo, err := s.Submit(bad, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	goodInfo, err := s.Submit(good, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bi, err := s.Wait(ctx, badInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bi.State != StateFailed || bi.Error == "" {
		t.Fatalf("bad job: %+v", bi)
	}
	gi, err := s.Wait(ctx, goodInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gi.State != StateDone {
		t.Fatalf("good batch-mate failed too: %+v", gi)
	}
	if _, err := s.Result(badInfo.ID); err == nil {
		t.Fatal("failed job returned a result")
	}
	st := s.Stats()
	// Completed counts the good batch-mate and the holding job.
	if st.Failed != 1 || st.Completed != 2 {
		t.Fatalf("failed %d completed %d, want 1/2", st.Failed, st.Completed)
	}
	if st.Batches != 2 || st.BatchedJobs != 3 {
		t.Fatalf("%d jobs in %d batches: the bad job and its batch-mate were not coalesced", st.BatchedJobs, st.Batches)
	}
}

// TestIdleServerDispatchesAtOnce: with nothing queued behind it a job
// goes straight to execution — the worker takes what is there and never
// lingers for batch-mates.
func TestIdleServerDispatchesAtOnce(t *testing.T) {
	s := newTestServer(t, Config{WorkerPool: 1})
	const n = 50
	waits := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		c := circuit.GHZ(6, false)
		c.RZ(float64(i+1)*0.1, 0) // distinct fingerprints
		res, _, err := s.Run(context.Background(), c, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var wait time.Duration
		for _, sp := range res.Trace.Spans {
			if sp.Stage == telemetry.StageQueueWait {
				wait += sp.Duration()
			}
		}
		waits = append(waits, wait)
	}
	sort.Slice(waits, func(a, b int) bool { return waits[a] < waits[b] })
	if med := waits[n/2]; med >= 500*time.Microsecond {
		t.Fatalf("median queue_wait of %d sequential jobs on an idle server is %v, want < 0.5ms", n, med)
	}
	if st := s.Stats(); st.Batches != n || st.BatchedJobs != n {
		t.Fatalf("%d jobs in %d batches, want %d batches of one", st.BatchedJobs, st.Batches, n)
	}
}

// TestSubmitOwnsItsInputs: Submit returns with the server holding its
// own copy of everything the worker will read. Mutating the caller's
// circuit, Hamiltonian and sweep points while the jobs are still queued
// changes neither their results nor their cache keys.
func TestSubmitOwnsItsInputs(t *testing.T) {
	s, started, release, _ := newHeldServer(t, Config{Target: backend.TargetNvidia, WorkerPool: 1})
	if _, err := s.Submit(circuit.GHZ(6, false), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	<-started

	const nq = 5
	circ := sweepAnsatz(nq)
	ham := observable.TransverseFieldIsing(nq, 1.0, 0.7)
	points := angleGrid(circ.NumParams(), 4)
	jobs := []SubmitOptions{
		{Shots: 300, Seed: 9},
		{Hamiltonian: ham},
		{Hamiltonian: ham, SweepPoints: points},
		{Hamiltonian: ham, Gradient: true},
	}
	// What was submitted, kept apart from what the caller goes on to
	// scribble over.
	wantCirc, wantHam := circ.Copy(), ham.Clone()
	wantPoints := angleGrid(circ.NumParams(), 4)
	ids := make([]string, len(jobs))
	for i, opts := range jobs {
		info, err := s.Submit(circ, opts)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}

	circ.Ops[0].Params[0] += 1
	circ.Ops[nq].Qubits[0], circ.Ops[nq].Qubits[1] = circ.Ops[nq].Qubits[1], circ.Ops[nq].Qubits[0]
	ham.Terms[0].Coef *= 3
	for q := range ham.Terms[1].Ops {
		ham.Terms[1].Ops[q] = observable.Y
	}
	for _, pt := range points {
		pt[0] += 0.5
	}
	release()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := backend.Config{Target: backend.TargetNvidia}
	for i, id := range ids {
		if info, err := s.Wait(ctx, id); err != nil || info.State != StateDone {
			t.Fatalf("job %d: %+v, %v", i, info, err)
		}
		got, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		var want *backend.Result
		switch i {
		case 0:
			c := cfg
			c.Shots, c.Seed = 300, 9
			want, err = backend.Run(wantCirc, c)
		case 1:
			want, err = backend.RunExpectation(wantCirc, wantHam, cfg)
		case 2:
			want, err = backend.RunSweep(wantCirc, wantHam, wantPoints, cfg)
		case 3:
			want, err = backend.RunGradient(wantCirc, wantHam, wantCirc.ParamValues(), cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Probabilities, want.Probabilities) || !reflect.DeepEqual(got.Counts, want.Counts) ||
			!reflect.DeepEqual(got.ExpValue, want.ExpValue) || !reflect.DeepEqual(got.SweepValues, want.SweepValues) ||
			!reflect.DeepEqual(got.Gradient, want.Gradient) {
			t.Fatalf("job %d ran on inputs mutated after Submit returned", i)
		}
	}
	// The keys are those of the submitted inputs: resubmitting them hits
	// the cache, the mutated ones are new work.
	executed := s.Stats().Executed
	for i, opts := range jobs {
		pristine := opts
		if opts.Hamiltonian != nil {
			pristine.Hamiltonian = wantHam
		}
		if opts.SweepPoints != nil {
			pristine.SweepPoints = wantPoints
		}
		if _, info, err := s.Run(ctx, wantCirc, pristine); err != nil || !info.Cached {
			t.Fatalf("job %d: resubmitting the original inputs: %+v, %v; want a cache hit", i, info, err)
		}
		if _, info, err := s.Run(ctx, circ, opts); err != nil || info.Cached {
			t.Fatalf("job %d: submitting the mutated inputs: %+v, %v; want a fresh execution", i, info, err)
		}
	}
	if got := s.Stats().Executed; got != executed+uint64(len(jobs)) {
		t.Fatalf("executed %d -> %d, want +%d", executed, got, len(jobs))
	}
}

func TestQueueBackpressure(t *testing.T) {
	s, started, release, _ := newHeldServer(t, Config{WorkerPool: 1, QueueSize: 1, MaxBatch: 1})
	// Occupy the worker: its job is held until the queue has overflowed.
	slow, err := s.Submit(testCircuit(t, 16, 120, 99), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Fill the queue, then overflow it.
	var sawFull bool
	for i := 0; i < 3; i++ {
		_, err := s.Submit(testCircuit(t, 8, 5, uint64(i)), SubmitOptions{})
		if err == ErrQueueFull {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("bounded queue accepted more than its capacity while the worker was busy")
	}
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if info, err := s.Wait(ctx, slow.ID); err != nil || info.State != StateDone {
		t.Fatalf("slow job: %+v, %v", info, err)
	}
}

func TestSeedNormalizationSharesKey(t *testing.T) {
	s := newTestServer(t, Config{})
	c := circuit.GHZ(6, false)
	// Shots == 0: seeds must not split the content address.
	if s.key(kindSimulate, c, SubmitOptions{Seed: 1}) != s.key(kindSimulate, c, SubmitOptions{Seed: 2}) {
		t.Fatal("probabilities-only submissions with different seeds got different keys")
	}
	// With shots, the seed matters.
	if s.key(kindSimulate, c, SubmitOptions{Shots: 10, Seed: 1}) == s.key(kindSimulate, c, SubmitOptions{Shots: 10, Seed: 2}) {
		t.Fatal("sampled submissions with different seeds share a key")
	}
	// And shots themselves matter.
	if s.key(kindSimulate, c, SubmitOptions{}) == s.key(kindSimulate, c, SubmitOptions{Shots: 10}) {
		t.Fatal("shots ignored in key")
	}
}

func TestStatsShape(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, _, err := s.Run(context.Background(), circuit.GHZ(6, false), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(context.Background(), circuit.GHZ(6, false), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Submitted != 2 || st.Executed != 1 || st.CacheHits != 1 {
		t.Fatalf("stats %+v", st)
	}
	if math.Abs(st.HitRate-0.5) > 1e-9 {
		t.Fatalf("hit rate %g, want 0.5", st.HitRate)
	}
	h, ok := st.Latency[string(backend.TargetNvidia)]
	if !ok || h.Count != 1 {
		t.Fatalf("execution latency histogram missing: %+v", st.Latency)
	}
	hc, ok := st.Latency["cache"]
	if !ok || hc.Count != 1 {
		t.Fatalf("cache latency histogram missing: %+v", st.Latency)
	}
	if len(h.Counts) != len(h.UpperBoundsUS) {
		t.Fatal("histogram shape mismatch")
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total != h.Count {
		t.Fatalf("histogram counts sum %d != count %d", total, h.Count)
	}
}

func TestJobRetention(t *testing.T) {
	s := newTestServer(t, Config{MaxRetainedJobs: 3, CacheSize: -1})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 5; i++ {
		c := circuit.GHZ(4, false)
		c.RZ(float64(i+1)*0.1, 0) // distinct fingerprints
		_, info, err := s.Run(ctx, c, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	if _, err := s.Job(ids[0]); err != ErrNotFound {
		t.Fatalf("oldest job should be forgotten, got %v", err)
	}
	if _, err := s.Job(ids[4]); err != nil {
		t.Fatalf("newest job missing: %v", err)
	}
}

func TestFingerprintProperties(t *testing.T) {
	a := circuit.GHZ(8, true)
	b := circuit.GHZ(8, true)
	b.Name = "renamed"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on the circuit name")
	}
	c := circuit.GHZ(8, false)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("measured and unmeasured GHZ share a fingerprint")
	}
	d := circuit.GHZ(9, false)
	if c.Fingerprint() == d.Fingerprint() {
		t.Fatal("different widths share a fingerprint")
	}
	e := circuit.New(4, 0).RY(0.5, 0)
	f := circuit.New(4, 0).RY(0.5000001, 0)
	if e.Fingerprint() == f.Fingerprint() {
		t.Fatal("different parameters share a fingerprint")
	}
	if len(a.Fingerprint()) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex string", a.Fingerprint())
	}
}
