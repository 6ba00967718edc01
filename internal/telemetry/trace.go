package telemetry

import "time"

// The pipeline stage names a job trace can carry. Every span recorded
// anywhere in the pipeline uses one of these, and the service
// aggregates them into the qgear_stage_duration_seconds{stage=...}
// histogram family — the per-stage breakdown is the measurement
// substrate for kernel-tuning work (you cannot tune what you cannot
// measure).
const (
	// StageQueueWait is submit → worker dequeue.
	StageQueueWait = "queue_wait"
	// StagePlanCache is compiled-plan resolution overhead: cache
	// lookup, single-flight waits, and spill-lookaside checks — minus
	// any fresh compile or store load, which get their own spans.
	StagePlanCache = "plan_cache"
	// StageCompile is a fresh circuit→kernel transform + plan compile.
	StageCompile = "compile"
	// StageExecute is gate execution proper: the compiled plan, tiled or
	// per-gate (width 0) — one executor, so one meaning on every target.
	// On the distributed target it excludes exchange waits, which are
	// reported under StageExchange.
	StageExecute = "execute"
	// StageExchange is the root rank's pairwise buffer-exchange wait
	// inside a distributed execution.
	StageExchange = "exchange"
	// StageTranspile is the pennylane target's per-gate re-lowering
	// overhead (the §4 diagnosis), kept separate from execution.
	StageTranspile = "transpile"
	// StageReadout is probability readout from the final state
	// (including lazy permutation materialization).
	StageReadout = "readout"
	// StageSample is shot sampling from the probability vector.
	StageSample = "sample"
	// StageExpectation is the Pauli-term reduction of an
	// expectation-value job.
	StageExpectation = "expectation_reduce"
	// StageRebind is parameter rebinding during a sweep: patching a
	// compiled plan's value-derived matrices to a new sweep point
	// without re-planning. One aggregated span covers all points of a
	// sweep job.
	StageRebind = "rebind"
	// StageStoreLoad is a persistent-store result load.
	StageStoreLoad = "store_load"
	// StageSpill is a persistent-store artifact write. Spills happen
	// off the serving path, so the stage appears in the registry
	// histograms but never in a job trace.
	StageSpill = "spill"
)

// Stages lists every pipeline stage name, in pipeline order. Servers
// pre-register one stage-latency histogram per entry so the per-span
// hot path can index a plain map instead of taking the registry lock.
func Stages() []string {
	return []string{
		StageQueueWait, StagePlanCache, StageCompile, StageRebind,
		StageExecute, StageExchange, StageTranspile, StageReadout,
		StageSample, StageExpectation, StageStoreLoad, StageSpill,
	}
}

// Span is one timed pipeline stage of a job. Durations are integer
// nanoseconds so span sums are exact.
type Span struct {
	Stage      string `json:"stage"`
	DurationNS int64  `json:"ns"`
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return time.Duration(s.DurationNS) }

// Trace is the ordered stage breakdown of one job, attached to
// backend.Result and returned in the /v1/results payload. Stages are
// sequential and non-overlapping, so the span sum never exceeds the
// job's wall time. A Trace is built single-threaded while its job
// executes and read-only afterwards; results served from the cache
// share the original execution's trace (the Cached flag on the job
// marks that case).
type Trace struct {
	Spans []Span `json:"spans"`
}

// Add appends a span. Zero and negative durations are dropped — a
// stage that did not happen (cache hit, no shots) simply has no span.
func (t *Trace) Add(stage string, d time.Duration) {
	if d <= 0 {
		return
	}
	t.Spans = append(t.Spans, Span{Stage: stage, DurationNS: int64(d)})
}

// Append copies every span of other onto t (no-op for a nil other).
func (t *Trace) Append(other *Trace) {
	if other == nil {
		return
	}
	t.Spans = append(t.Spans, other.Spans...)
}

// Sum returns the total traced time — at most the job's wall time,
// since stages are sequential.
func (t *Trace) Sum() time.Duration {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.Spans {
		ns += s.DurationNS
	}
	return time.Duration(ns)
}
