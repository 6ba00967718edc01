package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// segments is how many times an untraced run sets its workload up from
// scratch; each set-up is followed by its share of the timed region, so
// the set-ups are spread over the whole run. setup_s is the fastest of
// them: the host slows to about half speed in bursts of one to six
// seconds, so back-to-back set-ups can all fall into one burst and a
// median of them lands on either speed, while the fastest of set-ups
// several seconds apart lands on the full speed in nearly every run.
const segments = 4

// env is what a workload is built from besides its seed.
type env struct {
	W      int    // worker count, min(nproc, 4)
	TmpDir string // scratch directory inside the checkout
	Sizes  sizes
}

// workload is one set of inputs the benchmark runs. An op is one
// user-visible request: input object in, checked result out. A round
// is the workload's fixed batch of ops (one op for the circuit
// workloads), so counters per round repeat exactly.
type workload interface {
	// Setup generates every input from the seed, computes the oracle
	// baselines, starts what the ops run against and runs the warm-up
	// ops. All of it is setup_s.
	Setup() error
	// Prepare makes the next round's inputs; it runs outside the timed
	// region and outside the allocation count.
	Prepare() error
	// Round runs one batch untraced, records each op's latency (or the
	// error of a call that failed) and returns the batch's timed wall.
	// It keeps the outputs for Check.
	Round(rec *recorder) time.Duration
	// TracedRound runs the same batch with each op decomposed into the
	// exported calls of the layers beneath it, a span around each.
	TracedRound(rec *recorder, tr *tracer) time.Duration
	// Check holds every output of the last round against its oracle (for
	// a traced round that is bit-identity with the untraced op's) and
	// counts an op that fails it as failed. It runs outside the clock
	// and outside the allocation count: the oracle's own garbage is not
	// the program's.
	Check(rec *recorder)
	// Finish runs the checks deferred to the end of a run.
	Finish(rec *recorder)
	// Layers adds the workload's per-layer metrics to m.
	Layers(tr *tracer, ctx layerCtx, m map[string]float64) error
	Close()
}

// layerCtx carries what Layers needs from the run around it.
type layerCtx struct {
	UntracedP50 float64 // this run's untraced op_p50_s
	Rounds      int     // traced rounds run
}

// recorder collects the outcome of every op of a run; safe for
// concurrent use.
type recorder struct {
	mu        sync.Mutex
	all       []float64 // ok-op latency in seconds
	attempted int
	failed    int
	firstErr  error
}

func newRecorder() *recorder { return &recorder{} }

// record counts one attempted op; a non-nil err (the call failed, was
// refused or timed out) counts it failed and keeps its latency out of
// the sample.
func (r *recorder) record(d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(err)
		return
	}
	r.all = append(r.all, d.Seconds())
}

// lateFail counts an already-recorded op as failed: its output failed
// the oracle.
func (r *recorder) lateFail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(err)
}

func (r *recorder) failLocked(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) ok() int { return r.attempted - r.failed }

// measured is the timed region of a run.
type measured struct {
	Wall       time.Duration
	AllocBytes uint64
	Allocs     uint64
	Rounds     int
}

// add sums two timed regions of one kind of round.
func (m *measured) add(o measured) {
	m.Wall += o.Wall
	m.AllocBytes += o.AllocBytes
	m.Allocs += o.Allocs
	m.Rounds += o.Rounds
}

// roundKind is one way of running a round, with the recorder of its ops.
type roundKind struct {
	rec *recorder
	run func(*recorder) time.Duration
}

// measure runs rounds until the time is up (always at least one pass,
// and a started round is finished), summing per kind of round its timed
// wall and the bytes allocated during it. With several kinds of round
// they alternate, so that slow drift of the host falls on all alike.
func measure(w workload, secs float64, kinds ...roundKind) ([]measured, error) {
	m := make([]measured, len(kinds))
	var ms runtime.MemStats
	runtime.GC()
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	for m[0].Rounds == 0 || time.Now().Before(deadline) {
		for i, k := range kinds {
			if err := w.Prepare(); err != nil {
				return m, err
			}
			runtime.ReadMemStats(&ms)
			bytes, objects := ms.TotalAlloc, ms.Mallocs
			m[i].Wall += k.run(k.rec)
			runtime.ReadMemStats(&ms)
			m[i].AllocBytes += ms.TotalAlloc - bytes
			m[i].Allocs += ms.Mallocs - objects
			m[i].Rounds++
			w.Check(k.rec)
		}
	}
	return m, nil
}

// outcome is one run's result line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// err is the first failure, for the log.
	err error
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome(recs ...*recorder) *outcome {
	o := &outcome{}
	for _, r := range recs {
		o.Attempted += r.attempted
		o.Failed += r.failed
		if o.err == nil {
			o.err = r.firstErr
		}
	}
	o.Correct = o.Failed == 0 && o.Attempted > 0
	return o
}

// failure is the error of a run whose ops failed or whose outputs
// failed an oracle; nil for a correct run.
func (o *outcome) failure() error {
	if o.Correct {
		return nil
	}
	return fmt.Errorf("%w: %d of %d ops failed, first: %v", errIncorrect, o.Failed, o.Attempted, o.err)
}

// metricValues renders vals as the named metrics of specs, each with
// its unit; a metric vals does not hold reads 0.
func metricValues(specs []metricSpec, vals map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		m[s.Name] = metricValue{Value: vals[s.Name], Unit: s.Unit}
	}
	return m
}

// opTimings are the wall-clock metrics of the ops in rec over the timed
// wall. A percentile the sample does not support stays 0.
func opTimings(rec *recorder, wall time.Duration) map[string]float64 {
	t := map[string]float64{
		"op_p50_s":  median(rec.all),
		"ops_per_s": ratio(float64(rec.ok()), wall.Seconds()),
	}
	if p90, ok := tail(rec.all, 0.90); ok {
		t["op_p90_s"] = p90
	}
	return t
}

// setUp builds the workload from its seed and sets it up, returning it
// and the seconds that took.
func setUp(name string, seed uint64, e env) (workload, float64, error) {
	start := time.Now()
	w, err := newWorkload(name, seed, e)
	if err != nil {
		return nil, 0, err
	}
	if err := w.Setup(); err != nil {
		w.Close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", name, err)
	}
	return w, time.Since(start).Seconds(), nil
}

// segment measures untraced rounds of a set-up workload for secs
// seconds, runs its end-of-run checks and closes it.
func segment(w workload, rec *recorder, secs float64) (measured, error) {
	defer w.Close()
	ms, err := measure(w, secs, roundKind{rec, w.Round})
	if err != nil {
		return measured{}, err
	}
	w.Finish(rec)
	return ms[0], nil
}

// runUntraced produces the end-to-end metrics of one workload from
// segments of set-up and measurement, every segment from the same seed.
func runUntraced(name string, seed uint64, secs float64, e env) (*outcome, error) {
	rec := newRecorder()
	var total measured
	var setups []float64
	for i := 0; i < segments; i++ {
		w, s, err := setUp(name, seed, e)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		m, err := segment(w, rec, secs/segments)
		if err != nil {
			return nil, err
		}
		total.add(m)
	}
	return endToEnd(rec, total, setups), nil
}

// endToEnd renders the end-to-end metrics of the ops in rec.
func endToEnd(rec *recorder, m measured, setups []float64) *outcome {
	out := newOutcome(rec)
	out.Metrics = metricValues(endToEndSpecs, map[string]float64{
		"setup_s":          sorted(setups)[0],
		"alloc_mib_per_op": ratio(float64(m.AllocBytes)/(1<<20), float64(rec.attempted)),
		"allocs_per_op":    ratio(float64(m.Allocs), float64(rec.attempted)),
	})
	return out
}

// runTraced produces the per-layer metrics of one workload: untraced
// rounds (the source of the ops' timings and the reference for the
// tracing overhead) alternate with decomposed rounds for most of the
// time, and the rest goes to the workload's own extra measurements in
// Layers.
func runTraced(name string, seed uint64, secs float64, e env, spansPath string) (*outcome, error) {
	w, _, err := setUp(name, seed, e)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	plain, traced := newRecorder(), newRecorder()
	tr := newTracer()
	ms, err := measure(w, secs*0.8,
		roundKind{plain, w.Round},
		roundKind{traced, func(rec *recorder) time.Duration { return w.TracedRound(rec, tr) }})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	mt := ms[1]
	w.Finish(plain)

	vals := opTimings(plain, ms[0].Wall)
	p50 := vals["op_p50_s"]
	if err := w.Layers(tr, layerCtx{UntracedP50: p50, Rounds: mt.Rounds}, vals); err != nil {
		return nil, fmt.Errorf("%s: layers: %w", name, err)
	}
	vals["op_samples"] = float64(len(plain.all))
	vals["fail_share"] = ratio(float64(plain.failed+traced.failed), float64(plain.attempted+traced.attempted))
	vals["trace.overhead_share"] = ratio(median(traced.all)-p50, p50)
	vals["host.peak_rss_mib"] = peakRSSMiB()

	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, fmt.Errorf("%s: writing spans: %w", name, err)
		}
	}
	out := newOutcome(plain, traced)
	out.Metrics = metricValues(perLayerSpecs, vals)
	return out, nil
}

// spanMedians sets metric "<span>_s" to the median duration of each
// named span.
func spanMedians(tr *tracer, m map[string]float64, names ...string) {
	for _, n := range names {
		m[n+"_s"] = median(tr.durations(n))
	}
}
