package service

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/faultfs"
)

// The chaos suite (everything matching -run 'TestChaos') is the
// robustness harness behind `make ci-chaos`: seeded fault injection in
// the store, injected panics and stalls in the execute path, and tight
// deadlines — asserting the server's survival invariants: no worker
// death, no hung Wait, no torn artifact ever served, and fallbacks
// bit-identical to a clean run.

// chaosWait waits for a job with a hard timeout: a hang here is
// exactly the failure mode the chaos suite exists to rule out.
func chaosWait(t *testing.T, s *Server, id string) JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("job %s hung: %v", id, err)
	}
	return info
}

// TestChaosPanicIsolation injects a panic into the execute path and
// asserts the blast radius: the panicking job and every single-flight
// member on its key fail with the panic message, the worker survives,
// and a later resubmission of the same circuit re-executes cleanly
// with bit-identical output, on the default and the mqpu target.
func TestChaosPanicIsolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{WorkerPool: 1, MaxBatch: 1, TileBits: 4}},
		{"nvidia-mqpu", Config{WorkerPool: 1, MaxBatch: 1, TileBits: 4, Target: backend.TargetNvidiaMQPU, Devices: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) { chaosPanicIsolation(t, tc.cfg) })
	}
}

func chaosPanicIsolation(t *testing.T, base Config) {
	var armed atomic.Bool
	cfg := base
	cfg.ExecHook = func() {
		if armed.Load() {
			panic("chaos: injected execution panic")
		}
	}
	s := newTestServer(t, cfg)
	c := testCircuit(t, 8, 10, 42)

	// A wave of identical submissions rides one flight into the panic.
	armed.Store(true)
	const members = 6
	var wg sync.WaitGroup
	ids := make([]string, members)
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info, err := s.Submit(c, SubmitOptions{Shots: 100, Seed: 9})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = info.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		info := chaosWait(t, s, id)
		if info.State != StateFailed {
			t.Fatalf("job %s: state %s, want failed", id, info.State)
		}
		if _, err := s.Result(id); !errors.Is(err, ErrPanic) {
			t.Fatalf("job %s error %v, want ErrPanic", id, err)
		}
	}
	if st := s.Stats(); st.PanicsRecovered == 0 {
		t.Fatal("no panics counted as recovered")
	}

	// The worker survived: an unrelated circuit executes.
	armed.Store(false)
	other := testCircuit(t, 8, 10, 43)
	if _, _, err := s.Run(context.Background(), other, SubmitOptions{Shots: 50, Seed: 1}); err != nil {
		t.Fatalf("server did not keep serving after panic: %v", err)
	}

	// The failed key was not poisoned: resubmitting re-executes, and
	// the result is bit-identical to a clean server's.
	res, info, err := s.Run(context.Background(), c, SubmitOptions{Shots: 100, Seed: 9})
	if err != nil {
		t.Fatalf("resubmission after panic: %v", err)
	}
	if info.State != StateDone {
		t.Fatalf("resubmission state %s", info.State)
	}
	clean := newTestServer(t, base)
	want, _, err := clean.Run(context.Background(), c, SubmitOptions{Shots: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Probabilities, want.Probabilities) {
		t.Fatal("post-panic re-execution diverged from clean run")
	}
	if !reflect.DeepEqual(res.Counts, want.Counts) {
		t.Fatal("post-panic shot counts diverged from clean run")
	}
}

// TestChaosDeadlineRunning stalls the execute path past a per-job
// deadline and asserts the job stops cooperatively: it fails with
// ErrDeadlineExceeded, the running-stage cancellation counter moves,
// and the worker goes on to serve the next job — also when the job was
// dequeued beside an unbounded job of another circuit.
func TestChaosDeadlineRunning(t *testing.T) {
	var stall atomic.Bool
	cfg := Config{WorkerPool: 1, MaxBatch: 1, TileBits: 4}
	cfg.ExecHook = func() {
		if stall.Load() {
			time.Sleep(80 * time.Millisecond)
		}
	}
	s := newTestServer(t, cfg)
	c := testCircuit(t, 8, 10, 7)

	stall.Store(true)
	info, err := s.Submit(c, SubmitOptions{Shots: 100, Seed: 1, TimeoutMs: 10})
	if err != nil {
		t.Fatal(err)
	}
	fin := chaosWait(t, s, info.ID)
	if fin.State != StateFailed {
		t.Fatalf("state %s, want failed", fin.State)
	}
	if _, err := s.Result(info.ID); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("error %v, want ErrDeadlineExceeded", err)
	}
	st := s.Stats()
	if st.CancelledRunning == 0 {
		t.Fatal("running-stage cancellation not counted")
	}

	// The budget-free resubmission completes.
	stall.Store(false)
	if _, _, err := s.Run(context.Background(), c, SubmitOptions{Shots: 100, Seed: 1}); err != nil {
		t.Fatalf("post-deadline resubmission: %v", err)
	}

	// A tight job dequeued beside an unbounded job of another circuit
	// keeps its own budget: only the jobs of one circuit share a run, and
	// with it a deadline.
	t.Run("beside-unbounded", func(t *testing.T) {
		var calls atomic.Int32
		s, started, release, _ := newHeldServer(t, Config{WorkerPool: 1, TileBits: 4, ExecHook: func() {
			if calls.Add(1) > 1 { // every run after the held one stalls
				time.Sleep(80 * time.Millisecond)
			}
		}})
		if _, err := s.Submit(testCircuit(t, 8, 10, 8), SubmitOptions{Shots: 100, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		<-started
		tight, err := s.Submit(testCircuit(t, 8, 10, 9), SubmitOptions{Shots: 100, Seed: 1, TimeoutMs: 40})
		if err != nil {
			t.Fatal(err)
		}
		loose, err := s.Submit(testCircuit(t, 8, 10, 10), SubmitOptions{Shots: 100, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		release()
		if fin := chaosWait(t, s, tight.ID); fin.State != StateFailed {
			t.Fatalf("tight job state %s, want failed", fin.State)
		}
		if _, err := s.Result(tight.ID); !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("tight job error %v, want ErrDeadlineExceeded", err)
		}
		if fin := chaosWait(t, s, loose.ID); fin.State != StateDone {
			t.Fatalf("unbounded job state %s (%s), want done", fin.State, fin.Error)
		}
	})
}

// TestChaosDeadlineQueueExpiry parks a short-deadline job behind a
// slow one: it must be dropped at dequeue — counted under the queue
// stage, never executed — and still resolve its waiters.
func TestChaosDeadlineQueueExpiry(t *testing.T) {
	var stall atomic.Bool
	cfg := Config{WorkerPool: 1, MaxBatch: 1, TileBits: 4}
	cfg.ExecHook = func() {
		if stall.Load() {
			time.Sleep(80 * time.Millisecond)
		}
	}
	s := newTestServer(t, cfg)

	stall.Store(true)
	blocker, err := s.Submit(testCircuit(t, 8, 10, 100), SubmitOptions{Shots: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Queued behind the stalled blocker with a 1ms budget: expired long
	// before the worker reaches it.
	doomed, err := s.Submit(testCircuit(t, 8, 10, 101), SubmitOptions{Shots: 50, Seed: 1, TimeoutMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	stalledDone := chaosWait(t, s, doomed.ID)
	if stalledDone.State != StateFailed {
		t.Fatalf("expired job state %s, want failed", stalledDone.State)
	}
	if _, err := s.Result(doomed.ID); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired job error %v, want ErrDeadlineExceeded", err)
	}
	chaosWait(t, s, blocker.ID)
	st := s.Stats()
	if st.CancelledQueue == 0 {
		t.Fatal("queue-stage cancellation not counted")
	}
	if st.Executed != 1 {
		t.Fatalf("executed %d, want 1 (the expired job must never run)", st.Executed)
	}
}

// TestChaosAdmissionTooLarge prices an over-budget circuit at Submit:
// rejected synchronously with ErrTooLarge, counted by reason, and the
// queue untouched.
func TestChaosAdmissionTooLarge(t *testing.T) {
	s := newTestServer(t, Config{WorkerPool: 1, MaxStateBytes: 1 << 20, TileBits: 4})
	big := circuit.GHZ(20, false) // 24 MiB working set against a 1 MiB budget
	if _, err := s.Submit(big, SubmitOptions{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error %v, want ErrTooLarge", err)
	}
	st := s.Stats()
	if st.RejectedTooLarge != 1 {
		t.Fatalf("rejected_too_large %d, want 1", st.RejectedTooLarge)
	}
	if st.Submitted != 0 || st.QueueDepth != 0 {
		t.Fatalf("rejected submission leaked into the pipeline: %+v", st)
	}
	// Within budget still flows.
	if _, _, err := s.Run(context.Background(), circuit.GHZ(8, false), SubmitOptions{Shots: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosHTTPStatusCodes pins the failure-mode status codes of the
// HTTP surface: 422 for over-budget and 504 for deadline-exceeded
// results, after which the server is still healthy. The 429 of a full
// queue is TestHTTPQueueFullEnvelope's.
func TestChaosHTTPStatusCodes(t *testing.T) {
	var stall atomic.Bool
	cfg := Config{WorkerPool: 1, MaxBatch: 1, QueueSize: 1, MaxStateBytes: 1 << 20, TileBits: 4}
	cfg.ExecHook = func() {
		if stall.Load() {
			time.Sleep(60 * time.Millisecond)
		}
	}
	_, ts := newHTTPServer(t, cfg)

	// 422: priced out at admission.
	_, code := postJob(t, ts.URL, SubmitRequest{Kind: "simulate", Circuit: FromCircuit(circuit.GHZ(20, false))})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget submission returned %d, want 422", code)
	}

	// 504: deadline blown mid-run.
	stall.Store(true)
	info, code := postJob(t, ts.URL, SubmitRequest{
		Kind: "simulate", Circuit: FromCircuit(testCircuit(t, 8, 10, 5)), Shots: 50, TimeoutMs: 10,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submission returned %d", code)
	}
	fin := pollDone(t, ts.URL, info.ID)
	if fin.State != StateFailed {
		t.Fatalf("state %s, want failed", fin.State)
	}
	resp, err := http.Get(ts.URL + "/v1/results/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline-exceeded result returned %d, want 504", resp.StatusCode)
	}

	stall.Store(false)

	// The server is still healthy after all of it.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d after chaos", hresp.StatusCode)
	}
}

// TestChaosStoreFaultsUnderLoad drives concurrent distinct submissions
// over a store whose filesystem injects seeded errors, short writes,
// and latency. Every job must still complete with results identical to
// a fault-free server's, and the injector must actually have fired.
func TestChaosStoreFaultsUnderLoad(t *testing.T) {
	inj := faultfs.New(faultfs.OS{}, faultfs.Config{
		Seed: 0xC0FFEE,
		// No OpMeta faults: a MkdirAll/ReadDir fault at open time fails
		// server construction by design — this test targets the serving
		// path, where read/write faults must never surface to a client.
		PerOp: map[faultfs.Op]faultfs.Rates{
			faultfs.OpWrite: {ErrPerMille: 300, ShortPerMille: 300, Latency: time.Millisecond},
			faultfs.OpRead:  {ErrPerMille: 300, CorruptPerMille: 300},
		},
	})
	// A result cache this small evicts almost every entry, so wave one
	// spills to the store (write faults) and wave two's cache misses go
	// through store loads (read faults) before falling back.
	cfg := Config{
		StoreDir: t.TempDir(), StoreFS: inj, MaxCacheBytes: 8 << 10,
		WorkerPool: 2, MaxBatch: 2, TileBits: 4,
	}
	s := newTestServer(t, cfg)
	clean := newTestServer(t, Config{WorkerPool: 2, MaxBatch: 2, TileBits: 4})

	circs := storeTestCircuits(12, 8)
	wave := func(label string) {
		var wg sync.WaitGroup
		for i, c := range circs {
			wg.Add(1)
			go func(i int, c *circuit.Circuit) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				res, _, err := s.Run(ctx, c, SubmitOptions{Shots: 200, Seed: uint64(i)})
				if err != nil {
					t.Errorf("%s circuit %d under store faults: %v", label, i, err)
					return
				}
				want, _, err := clean.Run(ctx, c, SubmitOptions{Shots: 200, Seed: uint64(i)})
				if err != nil {
					t.Errorf("%s circuit %d clean reference: %v", label, i, err)
					return
				}
				if !reflect.DeepEqual(res.Probabilities, want.Probabilities) {
					t.Errorf("%s circuit %d probabilities diverged under store faults", label, i)
				}
				if !reflect.DeepEqual(res.Counts, want.Counts) {
					t.Errorf("%s circuit %d counts diverged under store faults", label, i)
				}
			}(i, c)
		}
		wg.Wait()
	}
	wave("fill")
	// Wait for the spiller to settle the eviction backlog, so that wave
	// two's misses reach disk (and its injected read faults). Every
	// eviction ends as a spill, a shed entry, a skipped one, or, when its
	// write is faulted, a store error.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st := s.Stats()
		if st.StoreSpills+st.StoreSpillDrops+st.StoreAdmissionSkips+st.StoreErrors >= st.CacheEvictions {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spiller never settled: %d spills, %d drops, %d skips, %d errors vs %d evictions",
				st.StoreSpills, st.StoreSpillDrops, st.StoreAdmissionSkips, st.StoreErrors, st.CacheEvictions)
		}
	}
	wave("reload")
	if t.Failed() {
		t.FailNow()
	}
	if inj.FaultCount() == 0 {
		t.Fatal("fault injector never fired — the test exercised nothing")
	}
	st := s.Stats()
	t.Logf("faults=%d store: hits=%d misses=%d spills=%d errors=%d quarantines=%d",
		inj.FaultCount(), st.StoreHits, st.StoreMisses, st.StoreSpills, st.StoreErrors, st.StoreQuarantines)
}

// TestChaosCorruptStoreQuarantine warm-restarts over a store whose
// every read comes back bit-flipped at the filesystem seam: integrity
// checks must refuse every artifact, count the errors, and let each job
// run. TestCorruptStoreFallsBack holds the fallback's answer and
// execution count.
func TestChaosCorruptStoreQuarantine(t *testing.T) {
	dir := t.TempDir()
	base := Config{StoreDir: dir, WorkerPool: 1, MaxBatch: 1, TileBits: 4}
	circs := storeTestCircuits(4, 8)
	ctx := context.Background()

	s1 := newTestServer(t, base)
	for i, c := range circs {
		if _, _, err := s1.Run(ctx, c, SubmitOptions{Shots: 100, Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	corrupt := faultfs.New(faultfs.OS{}, faultfs.Config{
		Seed:  1,
		PerOp: map[faultfs.Op]faultfs.Rates{faultfs.OpRead: {CorruptPerMille: 1000}},
	})
	cfg2 := base
	cfg2.StoreFS = corrupt
	s2 := newTestServer(t, cfg2)
	for i, c := range circs {
		if _, _, err := s2.Run(ctx, c, SubmitOptions{Shots: 100, Seed: uint64(i)}); err != nil {
			t.Fatalf("circuit %d did not fall back past corruption: %v", i, err)
		}
	}
	if st := s2.Stats(); st.StoreHits != 0 || st.StoreErrors == 0 {
		t.Fatalf("%d store hits, %d store errors from corrupt artifacts; want none and some", st.StoreHits, st.StoreErrors)
	}
}
