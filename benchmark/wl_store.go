package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"qgear/internal/backend"
	"qgear/internal/core"
	"qgear/internal/observable"
	"qgear/internal/qmath"
	"qgear/internal/randcirc"
	"qgear/internal/store"
)

// storeCycle drives internal/store directly through Open, SaveResult,
// LoadResult, SavePlan and LoadPlan, each round on a fresh directory:
// phase A saves StoreSaves results and every plan, phase B interleaves
// one save with four loads, phase C opens the directory again (a
// manifest replay) and loads everything in shuffled order. Writes beside reads beside boot,
// on the one layer that touches disk.
//
// The artifacts are made in set-up by running random circuits, so they
// do not compress to nothing: 70 % 12-qubit and 25 % 16-qubit
// probability + counts results, 5 % expectation and sweep results, and
// a few compiled plans.
//
// Oracle: every load is bit-identical to what was saved, and the
// reopened store did not fall back to a directory scan.
type storeCycle struct {
	e       env
	rng     *qmath.RNG
	sig     string
	results []*backend.Result
	plans   []*backend.Compiled
	planEnc [][]byte
	dir     string
	st      *store.Store // the next round's fresh store
	// The plans the last round loaded, for Check: re-encoding one
	// allocates, so it waits until the round's allocations are counted.
	loadedPlans []loadedPlan

	// For Layers: the last round's footprint, and the raw bytes the
	// traced rounds saved and loaded.
	bytesRaw      int64
	last          store.Stats
	trSavedBytes  int64
	trLoadedBytes int64
}

func newStoreCycle(seed uint64, e env) *storeCycle {
	return &storeCycle{
		e: e, rng: stream(seed, "store_cycle"),
		sig: core.Options{Target: backend.TargetNvidia}.StoreSignature(),
	}
}

func (s *storeCycle) Setup() error {
	sz := s.e.Sizes
	cfg := backend.Config{Target: backend.TargetNvidia, Workers: s.e.W, Shots: 1000}
	small, big := sz.StoreArtifacts*70/100, sz.StoreArtifacts*25/100
	ham := observable.TransverseFieldIsing(12, 1, 0.7)
	for i := 0; i < sz.StoreArtifacts; i++ {
		qubits := 12
		if i >= small && i < small+big {
			qubits = 16
		}
		c, err := randcirc.Generate(randcirc.Spec{Qubits: qubits, Blocks: 100, Seed: s.rng.Uint64(), Measure: i < small+big})
		if err != nil {
			return err
		}
		cfg.Seed = s.rng.Uint64()
		var res *backend.Result
		switch {
		case i < small+big:
			res, err = backend.Run(c, cfg)
		case i%2 == 0:
			res, err = backend.RunExpectation(c, ham, cfg)
		default:
			pts := make([][]float64, 8)
			for p := range pts {
				pts[p] = angles(s.rng, c.NumParams())
			}
			sweep := cfg
			sweep.Shots = 0
			res, err = backend.RunSweep(c, ham, pts, sweep)
		}
		if err != nil {
			return err
		}
		s.results = append(s.results, res)
	}
	for i := 0; i < sz.StorePlans; i++ {
		c, err := randcirc.Generate(randcirc.Spec{Qubits: 20, Blocks: 100, Seed: s.rng.Uint64()})
		if err != nil {
			return err
		}
		comp, err := backend.Compile(c, cfg)
		if err != nil {
			return err
		}
		var enc bytes.Buffer
		if err := comp.Encode(&enc); err != nil {
			return err
		}
		s.plans = append(s.plans, comp)
		s.planEnc = append(s.planEnc, enc.Bytes())
	}

	// Warm-up: a few saves and loads on a directory of their own.
	st, err := s.freshStore()
	if err != nil {
		return err
	}
	for i := 0; i < sz.StoreWarmupOps; i++ {
		r := i % len(s.results)
		key := fmt.Sprintf("warm-%d", i)
		if err := st.SaveResult(key, s.sig, s.results[r]); err != nil {
			return err
		}
		if _, err := s.loadResult(st, key, r); err != nil {
			return err
		}
	}
	return nil
}

// freshStore opens a store on a new empty directory under the scratch
// directory, removing the previous one.
func (s *storeCycle) freshStore() (*store.Store, error) {
	s.Close()
	dir, err := os.MkdirTemp(s.e.TmpDir, "store-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	return store.Open(dir)
}

// Prepare gives the next round its fresh directory.
func (s *storeCycle) Prepare() error {
	st, err := s.freshStore()
	s.st = st
	return err
}

func (s *storeCycle) Finish(*recorder) {}

func (s *storeCycle) Close() {
	if s.dir != "" {
		// Scratch data: a failed removal costs disk, not correctness.
		_ = os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// loadedPlan is one LoadPlan of a round: what came back and which of
// the plans was saved under that key.
type loadedPlan struct {
	key  string
	plan *backend.Compiled
	idx  int
}

// loadResult loads key and checks it against result r (the comparison
// allocates nothing); the returned duration covers the load alone.
func (s *storeCycle) loadResult(st *store.Store, key string, r int) (time.Duration, error) {
	start := time.Now()
	got, err := st.LoadResult(key, s.sig)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	return d, sameResult(got, s.results[r])
}

func (s *storeCycle) loadPlan(st *store.Store, key string, p int) (time.Duration, error) {
	start := time.Now()
	got, _, err := st.LoadPlan(key, s.sig)
	d := time.Since(start)
	if err == nil {
		s.loadedPlans = append(s.loadedPlans, loadedPlan{key, got, p})
	}
	return d, err
}

// Check re-encodes every plan the last round loaded and compares the
// bytes with what was saved.
func (s *storeCycle) Check(rec *recorder) {
	for _, l := range s.loadedPlans {
		var enc bytes.Buffer
		err := l.plan.Encode(&enc)
		if err == nil && !bytes.Equal(enc.Bytes(), s.planEnc[l.idx]) {
			err = fmt.Errorf("plan %s re-encodes differently from what was saved", l.key)
		}
		if err != nil {
			rec.lateFail(err)
		}
	}
	s.loadedPlans = s.loadedPlans[:0]
}

func sameResult(got, want *backend.Result) error {
	if got.NumQubits != want.NumQubits {
		return fmt.Errorf("loaded %d qubits, saved %d", got.NumQubits, want.NumQubits)
	}
	if err := sameBits(got.Probabilities, want.Probabilities); err != nil {
		return fmt.Errorf("probabilities: %w", err)
	}
	if err := sameCounts(got.Counts, want.Counts); err != nil {
		return fmt.Errorf("counts: %w", err)
	}
	if err := sameBits(got.SweepValues, want.SweepValues); err != nil {
		return fmt.Errorf("sweep values: %w", err)
	}
	if (got.ExpValue == nil) != (want.ExpValue == nil) {
		return errors.New("expectation value present on one side only")
	}
	if got.ExpValue != nil && math.Float64bits(*got.ExpValue) != math.Float64bits(*want.ExpValue) {
		return fmt.Errorf("expectation value bits %x, saved %x", math.Float64bits(*got.ExpValue), math.Float64bits(*want.ExpValue))
	}
	return nil
}

func (s *storeCycle) Round(rec *recorder) time.Duration { return s.cycle(rec, nil) }

func (s *storeCycle) TracedRound(rec *recorder, tr *tracer) time.Duration { return s.cycle(rec, tr) }

// saved is one artifact on disk: its key and which result or plan it is.
type saved struct {
	key  string
	idx  int
	plan bool
}

// cycle runs phases A, B and C on the prepared directory and returns the sum
// of the op durations (the clock does not run during the checks).
func (s *storeCycle) cycle(rec *recorder, tr *tracer) time.Duration {
	var wall time.Duration
	// step records one op; with a tracer, a span named after the store
	// call under a root span for the op.
	step := func(call string, fn func() (time.Duration, error)) bool {
		start := time.Now()
		d, err := fn()
		if tr != nil {
			op := tr.nextOp()
			root := tr.add("op", -1, op, start, start.Add(d))
			tr.add(call, root, op, start, start.Add(d))
		}
		rec.record(d, err)
		wall += d
		return err == nil
	}
	timed := func(fn func() error) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			start := time.Now()
			err := fn()
			return time.Since(start), err
		}
	}

	st := s.st
	var onDisk []saved
	s.bytesRaw = 0
	size := func(a saved) int64 {
		if a.plan {
			return s.plans[a.idx].SizeBytes()
		}
		return s.results[a.idx].SizeBytes()
	}
	save := func(a saved) {
		ok := false
		if a.plan {
			ok = step("store.save_plan", timed(func() error { return st.SavePlan(a.key, s.sig, s.plans[a.idx], 0) }))
		} else {
			ok = step("store.save_result", timed(func() error { return st.SaveResult(a.key, s.sig, s.results[a.idx]) }))
		}
		if !ok {
			return
		}
		onDisk = append(onDisk, a)
		s.bytesRaw += size(a)
		if tr != nil {
			s.trSavedBytes += size(a)
		}
	}
	load := func(a saved) {
		ok := false
		if a.plan {
			ok = step("store.load_plan", func() (time.Duration, error) { return s.loadPlan(st, a.key, a.idx) })
		} else {
			ok = step("store.load_result", func() (time.Duration, error) { return s.loadResult(st, a.key, a.idx) })
		}
		if ok && tr != nil {
			s.trLoadedBytes += size(a)
		}
	}

	// Phase A: StoreSaves results, cycling through the artifacts.
	n := s.e.Sizes.StoreSaves
	for i := 0; i < n; i++ {
		save(saved{key: fmt.Sprintf("a-result-%d", i), idx: i % len(s.results)})
	}
	for i := range s.plans {
		save(saved{key: fmt.Sprintf("a-plan-%d", i), idx: i, plan: true})
	}
	// Phase B: one save (under a fresh key) to four loads, twice as
	// many ops as phase A saved results. The saves walk a shuffled order
	// of the results and the loads a shuffled order of what phase A
	// saved, so the mix of small and large artifacts is nearly the same
	// whatever the seed draws.
	phaseA := onDisk[:len(onDisk):len(onDisk)]
	saveOrder, loadOrder := s.rng.Perm(len(s.results)), s.rng.Perm(len(phaseA))
	saves, loads := 0, 0
	for i := 0; i < 2*n; i++ {
		if i%5 == 0 {
			save(saved{key: fmt.Sprintf("b-result-%d", i), idx: saveOrder[saves%len(saveOrder)]})
			saves++
		} else if len(phaseA) > 0 {
			load(phaseA[loadOrder[loads%len(loadOrder)]])
			loads++
		}
	}
	// Phase C: open the directory again and load everything, shuffled.
	if !step("store.open", timed(func() error {
		var err error
		st, err = store.Open(s.dir)
		return err
	})) {
		return wall
	}
	if st.Stats().BootScanned {
		rec.lateFail(errors.New("the reopened store fell back to a directory scan"))
	}
	for _, i := range s.rng.Perm(len(onDisk)) {
		load(onDisk[i])
	}
	s.last = st.Stats()
	return wall
}

func (s *storeCycle) Layers(tr *tracer, ctx layerCtx, m map[string]float64) error {
	var saves, loads []float64
	for _, call := range []string{"store.save_result", "store.save_plan"} {
		saves = append(saves, tr.durations(call)...)
	}
	for _, call := range []string{"store.load_result", "store.load_plan"} {
		loads = append(loads, tr.durations(call)...)
	}
	m["store.save_p50_s"] = median(saves)
	m["store.load_p50_s"] = median(loads)
	if v, ok := tail(saves, 0.90); ok {
		m["store.save_p90_s"] = v
	}
	if v, ok := tail(loads, 0.90); ok {
		m["store.load_p90_s"] = v
	}
	m["store.open_s"] = median(tr.durations("store.open"))
	m["store.bytes_raw"] = float64(s.bytesRaw)
	m["store.bytes_on_disk"] = float64(s.last.Bytes)
	m["store.compress_ratio"] = ratio(float64(s.bytesRaw), float64(s.last.Bytes))
	m["store.save_mib_per_s"] = ratio(float64(s.trSavedBytes)/(1<<20), sum(saves))
	m["store.load_mib_per_s"] = ratio(float64(s.trLoadedBytes)/(1<<20), sum(loads))
	m["store.manifest_records"] = float64(s.last.ManifestRecords)
	if s.last.BootScanned {
		m["store.boot_scanned"] = 1
	}
	m["trace.dominant_layer_share"] = layerShare(tr, "store.")
	return nil
}
