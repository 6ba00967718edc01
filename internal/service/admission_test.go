package service

import (
	"context"
	"errors"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"qgear/internal/artifact/artifacttest"
	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/qft"
	"qgear/internal/statevec"
)

// drainSlabs takes every free n-qubit slab off the free list (and drops
// it), so the next New of that size is a fresh allocation.
func drainSlabs(n int) {
	for {
		before := statevec.SlabStats().Hits
		statevec.TakeSlab(n)
		if statevec.SlabStats().Hits == before {
			return
		}
	}
}

// TestAdmissionPricesAColdRun: estimateStateBytes is at least what a
// cold run of that job allocates — every state-sized array it will ever
// hold, measured with the slab free list emptied of its sizes first —
// at few shots and at many per outcome, and is not so far above it that
// the budget means something else.
func TestAdmissionPricesAColdRun(t *testing.T) {
	old := debug.SetGCPercent(-1) // no cycle may age or free anything mid-measurement
	defer debug.SetGCPercent(old)
	const n = 16
	c, err := qft.Circuit(n, true)
	if err != nil {
		t.Fatal(err)
	}
	c.MeasureAll()
	for _, target := range []backend.Target{backend.TargetNvidia, backend.TargetNvidiaMGPU, backend.TargetNvidiaMQPU} {
		s := newTestServer(t, Config{Target: target, Devices: 2})
		for _, shots := range []int{1, 1000, 1<<n/4 + 1, 3 << n} { // one shot (no mqpu split), walks, a quarter shot an outcome, three shots an outcome
			cfg := backend.Config{Target: target, Devices: 2, Workers: 2, Shots: shots, Seed: 3}
			comp, err := backend.Compile(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			drainSlabs(n)     // whole states
			drainSlabs(n - 1) // two-rank shards
			var res *backend.Result
			cold := int64(artifacttest.AllocBytes(func() { res, err = backend.RunCompiled(comp, cfg) }))
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts.Total() != shots {
				t.Fatalf("%s: %d shots counted, want %d", target, res.Counts.Total(), shots)
			}
			priced := s.estimateStateBytes(n, shots)
			t.Logf("%s shots=%d: priced %d, cold run %d", target, shots, priced, cold)
			if priced < cold {
				t.Errorf("%s shots=%d: admission prices %d bytes, a cold run allocated %d", target, shots, priced, cold)
			}
			if priced > 2*cold {
				t.Errorf("%s shots=%d: admission prices %d bytes, over twice the %d a cold run allocated", target, shots, priced, cold)
			}
		}
	}
}

// TestAdmissionCountsTheSampler: the same circuit fits the budget with
// few shots and is refused with enough that the sampler's output and
// Counts no longer fit.
func TestAdmissionCountsTheSampler(t *testing.T) {
	const n = 14
	s := newTestServer(t, Config{MaxStateBytes: 30<<n + runOverheadBytes})
	c := circuit.GHZ(n, true)
	if _, _, err := s.Run(context.Background(), c, SubmitOptions{Shots: 100, Seed: 1}); err != nil {
		t.Fatalf("100-shot job refused: %v", err)
	}
	if _, err := s.Submit(c, SubmitOptions{Shots: 1<<n/4 + 1, Seed: 1}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("%d-shot job under a 30·2^n budget: error %v, want ErrTooLarge", 1<<n/4+1, err)
	}
	if got := s.estimateStateBytes(60, 0); got <= 0 {
		t.Fatalf("60-qubit estimate overflowed to %d", got)
	}
}

// TestPanickedJobLeaksNoSlab: a job whose execution panics under
// guardPanic took no slab and strands none — the free list reads the
// same before and after, and the job after it runs on a recycled slab.
func TestPanickedJobLeaksNoSlab(t *testing.T) {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	var armed atomic.Bool
	cfg := Config{WorkerPool: 1, MaxBatch: 1}
	cfg.ExecHook = func() {
		if armed.Load() {
			panic("injected")
		}
	}
	s := newTestServer(t, cfg)
	c := testCircuit(t, 10, 10, 7)
	if _, _, err := s.Run(context.Background(), c, SubmitOptions{Shots: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	warm := statevec.SlabStats()
	armed.Store(true)
	if _, _, err := s.Run(context.Background(), c, SubmitOptions{Shots: 10, Seed: 2}); !errors.Is(err, ErrPanic) {
		t.Fatalf("panicking job returned %v, want ErrPanic", err)
	}
	armed.Store(false)
	st := statevec.SlabStats()
	if st.Misses != warm.Misses || st.RetainedBytes != warm.RetainedBytes {
		t.Fatalf("a panicked job moved the free list: %+v, was %+v", st, warm)
	}
	if _, _, err := s.Run(context.Background(), c, SubmitOptions{Shots: 10, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if after := statevec.SlabStats(); after.Hits != st.Hits+1 || after.Misses != st.Misses {
		t.Fatalf("the job after the panic: %+v, was %+v; want one hit", after, st)
	}
}
