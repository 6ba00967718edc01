// Package service is the simulation serving layer on top of the
// Q-GEAR pipeline: a bounded job queue feeding a worker pool that
// executes circuits through internal/core on a configured
// backend.Target, fronted by a content-addressed LRU result cache.
//
// Three mechanisms let it serve high submission rates without
// re-simulating work:
//
//   - content addressing: every job is keyed by core.CacheKey (circuit
//     fingerprint + output-affecting options); completed results are
//     cached and identical resubmissions are served instantly;
//   - single-flight: concurrent submissions of the same key attach to
//     the one in-flight execution instead of queueing duplicates;
//   - shared runs: a worker that finds a backlog takes up to MaxBatch
//     queued jobs (it never waits for one to form), and the simulate jobs
//     of one circuit among them share one execution; distinct circuits
//     run one after another.
//
// Shot sampling is performed per job from the shared run's probability
// vector with the job's own seed, so a shared run is bit-identical to
// running each job alone (see TestBatchMatchesSequential).
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qgear/internal/backend"
	"qgear/internal/cancel"
	"qgear/internal/circuit"
	"qgear/internal/core"
	"qgear/internal/faultfs"
	"qgear/internal/observable"
	"qgear/internal/store"
	"qgear/internal/telemetry"
)

// Version identifies the serving layer in /v1/healthz and the
// qgear_build_info metric.
const Version = "0.8.0"

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Execution options applied to every job (the server owns the
	// target; jobs own circuit, shots, and seed).
	Target     backend.Target // default nvidia (nvidia-mqpu when Devices > 1)
	Devices    int            // simulated device count, default 1
	Workers    int            // per-device goroutine parallelism, 0 = NumCPU
	PruneAngle float64        // forwarded to the kernel transform
	TileBits   int            // tiled-executor tile width (see core.Options.TileBits)

	// QueueSize bounds the job queue; Submit fails with ErrQueueFull
	// beyond it. Default 256.
	QueueSize int
	// WorkerPool is the number of executor goroutines. Default 2.
	WorkerPool int
	// CacheSize bounds the result cache's entry count; < 0 disables
	// caching. Default 1024. Resident memory is governed by
	// MaxCacheBytes — every entry is byte-accounted (a 2^n probability
	// vector is 8·2^n bytes) and evicted cost-per-byte-aware, so the
	// entry bound is a secondary limit. Retained finished jobs
	// (MaxRetainedJobs) share the cached result pointers, so they do
	// not duplicate that memory.
	CacheSize int
	// MaxCacheBytes bounds the result cache's resident bytes. Default
	// 1 GiB; < 0 removes the byte bound (entry bound only). Evicted
	// entries spill to the persistent store when StoreDir is set.
	MaxCacheBytes int64
	// PlanCacheSize bounds the compiled-plan cache's entry count,
	// keyed by (circuit fingerprint, tile width): repeat submissions
	// of a known circuit — even with different shots or seeds — skip
	// transformation and plan compilation entirely. Plans are shared
	// read-only across workers. Default 512; < 0 disables.
	PlanCacheSize int
	// MaxPlanCacheBytes bounds the plan cache's resident bytes
	// (TilePlan segment arrays are byte-accounted like results).
	// Default 256 MiB; < 0 removes the byte bound.
	MaxPlanCacheBytes int64
	// StoreDir enables the persistent result store: evicted and
	// shutdown-time results are written there (keyed by core.CacheKey,
	// one internal/artifact file each), and a restarting server
	// answers repeat submissions from it, bit-identically, without
	// re-simulating. Compiled plans are not persisted: compiling one
	// costs less than loading it, and plan files an older build left
	// in the directory are never read. Empty disables persistence.
	StoreDir string
	// MaxStoreBytes bounds the store's on-disk footprint: saves evict
	// the lowest-priority artifacts (Greedy-Dual-Size, same policy as
	// the in-memory caches) or are refused, so the directory can never
	// outgrow the budget. 0 = unbounded. Ignored without StoreDir.
	MaxStoreBytes int64
	// MaxBatch caps how many queued jobs one worker takes at once; the
	// simulate jobs of one circuit among them share one run. Default 8;
	// 1 disables sharing. Batches form from backlog only: a worker takes
	// what is already queued and never waits for more.
	MaxBatch int
	// MaxRetainedJobs bounds the finished-job table consulted by
	// polling clients; the oldest finished jobs are forgotten beyond
	// it. Default 4096.
	MaxRetainedJobs int
	// MaxSweepPoints bounds one sweep job's point count — the admission
	// control of the per-point artifact a sweep accumulates. Default
	// 65536; < 0 removes the bound.
	MaxSweepPoints int
	// MaxWaitMs bounds the long-poll budget a GET /v1/jobs/{id}?wait_ms=N
	// request may ask for; larger values are clamped, not rejected.
	// Default 30000.
	MaxWaitMs int

	// JobTimeout bounds every job's lifetime from submission: a job
	// still queued past it is dropped at dequeue without executing, and
	// a running job is cooperatively cancelled at its next poll point
	// (plan segment, expectation block batch). Per-job
	// SubmitOptions.TimeoutMs tightens this further; single-flight
	// joiners can only loosen the budget their leader already runs
	// under. 0 = no server-wide timeout.
	JobTimeout time.Duration
	// MaxStateBytes is the memory-admission budget: Submit rejects any
	// circuit whose simulation working set (statevector + readout, plus
	// exchange buffers on the mgpu target) would exceed it, with
	// ErrTooLarge and zero allocation. 0 selects half of the machine's
	// available RAM (4 GiB when that cannot be determined); < 0
	// disables admission control.
	MaxStateBytes int64
	// StoreFS overrides the filesystem the persistent store runs on —
	// the chaos harness's fault-injection seam. Nil selects the real
	// filesystem. Ignored without StoreDir.
	StoreFS faultfs.FS
	// ExecHook, when non-nil, fires at the start of every backend
	// execution. Chaos tests panic or stall here to drive the panic-
	// isolation and deadline machinery; production leaves it nil.
	ExecHook func()
}

func (c Config) withDefaults() Config {
	if c.Target == "" {
		if c.Devices > 1 {
			c.Target = backend.TargetNvidiaMQPU
		} else {
			c.Target = backend.TargetNvidia
		}
	}
	if c.Devices <= 0 {
		c.Devices = 1
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.WorkerPool <= 0 {
		c.WorkerPool = 2
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 512
	}
	if c.MaxCacheBytes == 0 {
		c.MaxCacheBytes = 1 << 30 // 1 GiB
	} else if c.MaxCacheBytes < 0 {
		c.MaxCacheBytes = 0 // unbounded
	}
	if c.MaxPlanCacheBytes == 0 {
		c.MaxPlanCacheBytes = 256 << 20 // 256 MiB
	} else if c.MaxPlanCacheBytes < 0 {
		c.MaxPlanCacheBytes = 0
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 4096
	}
	if c.MaxSweepPoints == 0 {
		c.MaxSweepPoints = 65536
	} else if c.MaxSweepPoints < 0 {
		c.MaxSweepPoints = 0 // unbounded
	}
	if c.MaxWaitMs <= 0 {
		c.MaxWaitMs = 30000
	}
	if c.MaxStateBytes == 0 {
		c.MaxStateBytes = defaultMaxStateBytes()
	} else if c.MaxStateBytes < 0 {
		c.MaxStateBytes = 0 // admission control disabled
	}
	return c
}

// JobState is the lifecycle phase of a submitted job.
type JobState string

// Job lifecycle states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// SubmitOptions are the per-job knobs (everything else is server
// configuration).
type SubmitOptions struct {
	// Shots samples measurement outcomes; 0 returns probabilities only.
	Shots int
	// Seed drives shot sampling (ignored, and normalized to zero in
	// the cache key, when Shots == 0).
	Seed uint64
	// Hamiltonian selects an expectation-value job: the server
	// evaluates the exact ⟨H⟩ on the circuit's final state instead of
	// probabilities or counts. Expectation jobs are exact, so Shots
	// must be 0. Results are cached and persisted under
	// (circuit fingerprint, hamiltonian hash, option signature).
	Hamiltonian *observable.Hamiltonian
	// TimeoutMs bounds this job's lifetime in milliseconds from
	// submission, on top of (never beyond) the server's JobTimeout:
	// the effective budget is the tighter of the two. 0 applies the
	// server default only.
	TimeoutMs int
	// SweepPoints selects a sweep job: the circuit is treated as a
	// parameterized skeleton (its own parameter values are irrelevant)
	// and evaluated at every point — each a flat vector with one value
	// per parameter slot, program order. With a Hamiltonian the
	// artifact is the exact per-point ⟨H⟩ vector (Shots must be 0);
	// without one Shots must be > 0 and the artifact is the per-point
	// sampled histogram, point i seeded with
	// backend.SweepPointSeed(Seed, i). Under a rebindable server
	// configuration the whole sweep costs one compile: every point is a
	// rebind of the structurally-cached plan.
	SweepPoints [][]float64
	// Gradient selects a parameter-shift gradient job: exact ∂⟨H⟩/∂θ at
	// the circuit's own parameter values, evaluated as a derived
	// 2k+1-point sweep. Requires Hamiltonian; SweepPoints must be
	// empty.
	Gradient bool
}

// JobInfo is a point-in-time snapshot of one job.
type JobInfo struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Cached is true when the job was served without a fresh
	// simulation: a result-cache hit or a single-flight join.
	Cached      bool      `json:"cached"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	// FinishedAt is nil while the job is queued or running (a pointer
	// because encoding/json's omitempty cannot elide a zero time.Time).
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// Service errors.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrClosed    = errors.New("service: server closed")
	ErrNotFound  = errors.New("service: no such job")
	ErrNotDone   = errors.New("service: job not finished")
	// ErrTooLarge rejects a submission at admission control: the
	// circuit's simulation working set exceeds MaxStateBytes. Mapped to
	// HTTP 422 — resubmitting the same circuit can never succeed.
	ErrTooLarge = errors.New("service: circuit exceeds memory budget")
	// ErrDeadlineExceeded classifies a job that ran out of its time
	// budget — dropped at dequeue or cooperatively cancelled mid-run.
	// Mapped to HTTP 504 on the results surface.
	ErrDeadlineExceeded = errors.New("service: job deadline exceeded")
	// ErrPanic classifies a job whose execution panicked. The panic is
	// recovered at the execution boundary: the job (and its
	// single-flight joiners) fail with this error, the worker survives,
	// and qgear_panics_recovered_total increments.
	ErrPanic = errors.New("service: execution panicked")
)

// job is the internal job record. The leader of each cache key is the
// only copy that enters the queue; identical concurrent submissions
// attach to it (single-flight) and share its outcome.
type job struct {
	id   string
	kind jobKind // resolved once in submit; indexes the kinds table
	key  string
	fp   string // circuit fingerprint (groups batch members sharing a state)
	circ *circuit.Circuit
	opts SubmitOptions

	state       JobState
	cached      bool
	result      *backend.Result
	err         error
	submittedAt time.Time
	finishedAt  time.Time
	done        chan struct{}
	// flag is the leader's cancellation flag, shared with the execution
	// engines; nil on jobs served without executing (cache hits) and on
	// single-flight joiners, which ride their leader's flag instead.
	flag *cancel.Flag
}

func (j *job) info() JobInfo {
	in := JobInfo{
		ID:          j.id,
		State:       j.state,
		Cached:      j.cached,
		SubmittedAt: j.submittedAt,
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		in.FinishedAt = &t
	}
	if j.err != nil {
		in.Error = j.err.Error()
	}
	return in
}

// Server is the simulation service. Create with New, submit with
// Submit, stop with Close (which drains in-flight work and spills
// resident results to the persistent store when one is configured).
type Server struct {
	cfg    Config
	start  time.Time
	store  *store.Store // nil without StoreDir
	cfgSig string       // normalized option signature stamped on store artifacts
	// rebindable records whether the execution configuration keeps
	// compiled structure value-independent (no pruning) —
	// the gate for structural plan-cache keying and the sweep
	// compile-once fast path. Fixed at New.
	rebindable bool
	// reg is the server's metric registry: every counter below is
	// exported through it (as a callback reading the same field, so
	// /metrics and /v1/stats can never disagree), job and stage
	// latencies are registry histograms, and Handler mounts its
	// Prometheus exposition at /metrics.
	reg *telemetry.Registry
	// busy counts workers currently executing a batch. Atomic (not
	// under mu) so the utilization gauge never contends with the
	// serving path.
	busy atomic.Int64

	queue  chan *job
	wg     sync.WaitGroup // the worker pool
	loadWG sync.WaitGroup // in-flight store loads

	// mu guards the fields from closed to latency below, the spill
	// backlog's byte count and lookaside (spill.go), and every job
	// record's state and outcome. It is held only to read or update
	// them: compilation, execution, sampling and store I/O never run
	// under it, so a slow job never stalls a submit, a poll or another
	// worker's completion.
	mu        sync.Mutex
	closed    bool
	nextID    uint64
	jobs      map[string]*job
	doneOrder []string // finished job ids, oldest first (retention)
	// inflight holds the jobs attached to each in-flight cache key, the
	// leader first. The leader's cancel flag is the flight's time
	// budget: joiners Extend it (deadlines only ever loosen — a second
	// submission of a running key must not tighten what the leader
	// already executes under).
	inflight    map[string][]*job
	cache       *resultCache
	plans       *planCache
	planFlights map[string]chan struct{} // plan keys being compiled right now
	spillBacklog

	// stats is the one set of counters: the serving path
	// counts straight into it, Stats() copies it and fills in the gauges
	// and derived ratios, and the metric registry reads the same fields.
	// Submitted and Executed — with their per-kind fields, picked by
	// kindSpec.counters — move only for admitted jobs (admitLocked,
	// runBatch), so a refused submission has nothing to roll back.
	stats   Stats
	latency map[string]*telemetry.Histogram

	// stageLatency holds the per-stage registry histograms, resolved
	// once at registerMetrics time and read-only afterwards, so the
	// per-span hot path (observeStages, the spiller) never takes the
	// registry lock or allocates a label map.
	stageLatency map[string]*telemetry.Histogram
	// storeLoad measures successful result loads from the persistent
	// store; its observed median is the measured-admission bar a
	// result's modeled recompute cost must clear to be worth
	// persisting at all.
	storeLoad *telemetry.Histogram
}

// New starts a server with cfg's worker pool running.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		start:       time.Now(),
		jobs:        make(map[string]*job),
		inflight:    make(map[string][]*job),
		cache:       store.NewCache[*backend.Result](cfg.CacheSize, cfg.MaxCacheBytes),
		plans:       store.NewCache[*backend.Compiled](cfg.PlanCacheSize, cfg.MaxPlanCacheBytes),
		planFlights: make(map[string]chan struct{}),
		queue:       make(chan *job, cfg.QueueSize),
		reg:         telemetry.NewRegistry(),
		latency:     make(map[string]*telemetry.Histogram),
	}
	opts := s.execOptions()
	if err := opts.Validate(); err != nil {
		// What backend.Compile would refuse for every circuit (an unknown
		// target, an mgpu geometry no plan exists for) is refused once,
		// here, rather than failing every job at runtime.
		return nil, fmt.Errorf("service: %w", err)
	}
	s.registerMetrics()
	s.cfgSig = opts.StoreSignature()
	s.rebindable = opts.Rebindable()
	if cfg.StoreDir != "" {
		ast, err := store.OpenOptions(cfg.StoreDir, store.Options{FS: cfg.StoreFS, MaxBytes: cfg.MaxStoreBytes})
		if err != nil {
			return nil, err
		}
		s.store = ast
		s.startSpiller()
	}
	for i := 0; i < cfg.WorkerPool; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// execOptions lowers the server configuration to pipeline options for
// a probabilities-only run; per-job shots are sampled afterwards.
func (s *Server) execOptions() core.Options {
	return core.Options{
		PruneAngle: s.cfg.PruneAngle,
		TileBits:   s.cfg.TileBits,
		Target:     s.cfg.Target,
		Devices:    s.cfg.Devices,
		Workers:    s.cfg.Workers,
	}
}

// stageHist returns the registry histogram for one pipeline stage.
// Every known stage is pre-resolved at registerMetrics time; the
// registry path only runs for a stage name outside telemetry.Stages
// (which would be a bug in the caller, but must not lose the sample).
func (s *Server) stageHist(stage string) *telemetry.Histogram {
	if h, ok := s.stageLatency[stage]; ok {
		return h
	}
	return s.reg.Histogram("qgear_stage_duration_seconds",
		"Pipeline stage latency, labeled by stage.",
		telemetry.Labels{"stage": stage})
}

// observeStages folds a trace fragment into the per-stage registry
// histograms. Call it once per execution event for spans shared by
// batch-mates (compile, execute) and once per job for per-job spans
// (queue_wait, sample), so aggregates count each measured interval
// exactly once.
func (s *Server) observeStages(tr *telemetry.Trace) {
	if tr == nil {
		return
	}
	for _, sp := range tr.Spans {
		s.stageHist(sp.Stage).Observe(sp.Duration())
	}
}

// key returns the content address of a kind k job under this server's
// execution configuration. The worker count is excluded (it changes
// wall-clock, not output) but the device count is kept: on the mqpu
// target the shot sampler splits the budget per device with per-device
// seeds, so Devices changes Counts.
func (s *Server) key(k jobKind, c *circuit.Circuit, opts SubmitOptions) string {
	kopts := s.execOptions() // derive, so key and execution never drift
	kopts.Workers = 0        // wall-clock only, not output
	return kinds[k].key(c, opts, kopts)
}

// Submit validates and enqueues a circuit, returning immediately with
// the job's snapshot. Identical submissions (same content address) are
// served from the result cache or attached to the in-flight execution
// without consuming queue capacity.
func (s *Server) Submit(c *circuit.Circuit, opts SubmitOptions) (JobInfo, error) {
	return s.submitInfo(c, opts, false)
}

// submitInfo is submit returning the admitted job's snapshot.
func (s *Server) submitInfo(c *circuit.Circuit, opts SubmitOptions, owned bool) (JobInfo, error) {
	j, err := s.submit(c, opts, owned)
	if err != nil {
		return JobInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.info(), nil
}

// validateSubmit is the pure request validation half of submit; every
// failure here counts as an "invalid" rejection.
func (s *Server) validateSubmit(k jobKind, c *circuit.Circuit, opts SubmitOptions) error {
	if c == nil {
		return errors.New("service: nil circuit")
	}
	if err := c.Validate(); err != nil {
		return fmt.Errorf("service: invalid circuit: %w", err)
	}
	if opts.Shots < 0 {
		return fmt.Errorf("service: negative shots %d", opts.Shots)
	}
	if opts.TimeoutMs < 0 {
		return fmt.Errorf("service: negative timeout %dms", opts.TimeoutMs)
	}
	return kinds[k].validate(s, c, opts)
}

// deadlineFor resolves a job's absolute expiry from the server-wide
// JobTimeout and the per-job TimeoutMs — the tighter of the two wins; a
// zero return means unbounded.
func (s *Server) deadlineFor(submitted time.Time, opts SubmitOptions) time.Time {
	d := s.cfg.JobTimeout
	if opts.TimeoutMs > 0 {
		if per := time.Duration(opts.TimeoutMs) * time.Millisecond; d == 0 || per < d {
			d = per
		}
	}
	if d <= 0 {
		return time.Time{}
	}
	return submitted.Add(d)
}

// submit is Submit returning the job record itself, for callers (Run)
// that must outlive the finished-job retention window. owned declares
// that nothing but this call references c, opts.Hamiltonian and
// opts.SweepPoints — the HTTP handler's freshly decoded inputs — so the
// job takes them as they are; every other caller gets a deep copy.
func (s *Server) submit(c *circuit.Circuit, opts SubmitOptions, owned bool) (*job, error) {
	kind := resolveKind(opts)
	if err := s.validateSubmit(kind, c, opts); err != nil {
		s.mu.Lock()
		s.stats.RejectedInvalid++
		s.mu.Unlock()
		return nil, err
	}
	// Memory admission: reject circuits whose working set cannot fit
	// the budget before anything is allocated for them — no deep copy,
	// no queue slot, no statevector.
	if s.cfg.MaxStateBytes > 0 {
		if need := s.estimateStateBytes(c.NumQubits, opts.Shots); need > s.cfg.MaxStateBytes {
			s.mu.Lock()
			s.stats.RejectedTooLarge++
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %d-qubit simulation needs ~%d bytes, budget is %d",
				ErrTooLarge, c.NumQubits, need, s.cfg.MaxStateBytes)
		}
	}
	// Deep-copy everything the worker reads long after Submit returns:
	// the server owns its jobs' inputs, so a caller mutating theirs
	// afterwards cannot race the worker or poison the cache under the
	// pre-mutation fingerprint.
	if !owned {
		if opts.Hamiltonian != nil {
			opts.Hamiltonian = opts.Hamiltonian.Clone()
		}
		if opts.SweepPoints != nil {
			pts := make([][]float64, len(opts.SweepPoints))
			for i, pt := range opts.SweepPoints {
				pts[i] = append([]float64(nil), pt...)
			}
			opts.SweepPoints = pts
		}
		c = c.Copy()
	}
	key := s.key(kind, c, opts)
	fp := c.Fingerprint()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.nextID++
	j := &job{
		id:          fmt.Sprintf("j-%08d", s.nextID),
		kind:        kind,
		key:         key,
		fp:          fp,
		circ:        c,
		opts:        opts,
		state:       StateQueued,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}

	// Content-addressed fast path: cache hit.
	if res, ok := s.cache.Get(key); ok {
		s.admitLocked(j)
		s.stats.CacheHits++
		j.cached = true
		s.finishLocked(j, res, nil, "cache")
		s.retainLocked(j)
		return j, nil
	}
	// Single-flight: attach to the identical in-flight job. The
	// joiner's deadline can only loosen the leader's budget — an
	// unbounded joiner removes it entirely — so attaching never
	// tightens an execution already under way.
	if f, ok := s.inflight[key]; ok {
		s.admitLocked(j)
		s.stats.SingleFlightHits++
		j.cached = true
		j.state = f[0].state // queued or already running
		f[0].flag.Extend(s.deadlineFor(j.submittedAt, opts))
		s.inflight[key] = append(f, j)
		return j, nil
	}
	// Spill lookaside: an entry evicted moments ago may still be in
	// flight to disk — serve it from the spill window instead of
	// re-simulating (or racing the spiller on the file).
	if res := s.spilledLocked(key); res != nil {
		s.admitLocked(j)
		s.stats.CacheHits++
		j.cached = true
		s.finishLocked(j, res, nil, "cache")
		s.retainLocked(j)
		return j, nil
	}
	// From here on this job leads: it may actually execute, so it
	// carries the flight's cancellation flag.
	j.flag = cancel.WithDeadline(s.deadlineFor(j.submittedAt, opts))
	// Persistent store: a previously computed key is answered from
	// disk — no simulation, no queue capacity. This job leads a flight
	// while the load runs, so identical concurrent submissions attach
	// via the single-flight path above instead of reading the file
	// again.
	if s.store != nil && s.store.HasResult(key) {
		s.admitLocked(j)
		s.inflight[key] = []*job{j}
		s.loadWG.Add(1)
		go s.serveFromStore(key)
		return j, nil
	}
	if s.store != nil {
		s.stats.StoreMisses++
	}
	// Leader: consume queue capacity.
	select {
	case s.queue <- j:
	default:
		s.nextID-- // job never existed
		s.stats.RejectedQueueFull++
		return nil, ErrQueueFull
	}
	s.admitLocked(j)
	s.inflight[key] = []*job{j}
	return j, nil
}

// admitLocked records an accepted submission — the only place the
// submitted counters move. Callers hold s.mu.
func (s *Server) admitLocked(j *job) {
	s.stats.Submitted++
	if f := kinds[j.kind].counters; f != nil {
		jobs, _ := f(&s.stats)
		*jobs++
	}
	s.jobs[j.id] = j
}

// finishLocked records a terminal state for j. Callers hold s.mu.
func (s *Server) finishLocked(j *job, res *backend.Result, err error, latencyKey string) {
	j.result = res
	j.err = err
	j.finishedAt = time.Now()
	if err != nil {
		j.state = StateFailed
		s.stats.Failed++
	} else {
		j.state = StateDone
		s.stats.Completed++
	}
	h := s.latency[latencyKey]
	if h == nil {
		// One instrument serves both surfaces: the map backs the
		// /v1/stats Latency snapshot, the registry the
		// qgear_job_duration_seconds Prometheus family.
		h = s.reg.Histogram("qgear_job_duration_seconds",
			"End-to-end job latency (submit to done), labeled by serving path.",
			telemetry.Labels{"path": latencyKey})
		s.latency[latencyKey] = h
	}
	h.Observe(j.finishedAt.Sub(j.submittedAt))
	close(j.done)
}

// retainLocked enforces the finished-job retention bound.
func (s *Server) retainLocked(j *job) {
	s.doneOrder = append(s.doneOrder, j.id)
	for len(s.doneOrder) > s.cfg.MaxRetainedJobs {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// completeKeyLocked finishes every job attached to key's flight,
// admitting the result to the byte-accounted cache and routing any
// evicted entries to the spiller.
func (s *Server) completeKeyLocked(key string, res *backend.Result, err error, latencyKey string) {
	f, ok := s.inflight[key]
	if !ok {
		return
	}
	delete(s.inflight, key)
	if err == nil && res != nil {
		for _, ev := range s.cache.Add(key, res, res.SizeBytes(), resultCost(res)) {
			s.stats.CacheEvictedBytes += ev.Bytes
			s.enqueueSpillLocked(spillItem{key: ev.Key, result: ev.Val, bytes: ev.Bytes})
		}
	}
	for _, j := range f {
		s.finishLocked(j, res, err, latencyKey)
		s.retainLocked(j)
	}
}

// serveFromStore completes one flight from the persistent store. A
// file that fails its checksum or integrity checks is quarantined and
// the flight leader falls back to a real simulation through the queue.
func (s *Server) serveFromStore(key string) {
	defer s.loadWG.Done()
	t0 := time.Now()
	res, err := s.store.LoadResult(key, s.cfgSig)
	loadDur := time.Since(t0)
	if err != nil {
		s.storeLoadFailed(err, key)
		// Capture the leader under the mutex: concurrent identical
		// submissions keep appending to the flight through the
		// single-flight path, so it must not be read unlocked.
		var leader *job
		s.mu.Lock()
		if f := s.inflight[key]; len(f) > 0 {
			leader = f[0]
		}
		s.mu.Unlock()
		if leader != nil {
			// Blocking send is safe: Close waits for in-flight loads before
			// closing the queue, and workers keep draining until then.
			s.queue <- leader
		}
		return
	}
	s.storeLoad.Observe(loadDur)
	// The store does not persist traces; a loaded result's trace is this
	// serving event's own cost — one store_load span.
	tr := &telemetry.Trace{}
	tr.Add(telemetry.StageStoreLoad, loadDur)
	res.Trace = tr
	s.observeStages(tr)
	s.mu.Lock()
	s.stats.StoreHits++
	for _, j := range s.inflight[key] {
		j.cached = true
	}
	s.completeKeyLocked(key, res, nil, "store")
	s.mu.Unlock()
}

// storeLoadFailed counts a failed result load. A file that fails its
// checksum or integrity checks (store.ErrIntegrity) is dropped and
// counted as a quarantine; a transient I/O failure leaves the result
// for the next attempt. Callers do not hold s.mu.
func (s *Server) storeLoadFailed(err error, key string) {
	quarantine := errors.Is(err, store.ErrIntegrity)
	if quarantine {
		s.store.DropResult(key)
	}
	s.mu.Lock()
	s.stats.StoreErrors++
	if quarantine {
		s.stats.StoreQuarantines++
	}
	s.mu.Unlock()
}

// worker drains the queue a backlog at a time.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := <-s.queue
		if !ok {
			return
		}
		s.busy.Add(1)
		batch := s.collectBatch(j)
		s.runBatchSafe(batch)
		s.busy.Add(-1)
	}
}

// collectBatch adds to the dequeued job whatever is already queued, up
// to MaxBatch, and never waits: a batch forms exactly when it pays —
// every worker was busy and a backlog built up — and an idle server
// dispatches a lone job at once. Every queued job is compatible by
// construction: the server owns all output-affecting options except
// shots and seed, which are applied per job after the shared
// probabilities are computed.
func (s *Server) collectBatch(first *job) []*job {
	batch := []*job{first}
	for len(batch) < s.cfg.MaxBatch {
		select {
		case j, ok := <-s.queue:
			if !ok {
				return batch
			}
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// markRunning flips every batch member (and its attached joiners) to
// running.
func (s *Server) markRunning(batch []*job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range batch {
		for _, m := range s.inflight[j.key] {
			m.state = StateRunning
		}
	}
}

// guardPanic runs fn, converting any panic into an ErrPanic-classed
// error instead of letting it unwind the worker. Every execution
// boundary in runBatch goes through it, so one panicking job fails
// alone: its batch-mates, the worker goroutine, and the server all
// survive, and every waiter's done channel still closes.
func (s *Server) guardPanic(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.stats.PanicsRecovered++
			s.mu.Unlock()
			err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	fn()
	return nil
}

// batchFlag picks the cancellation flag a shared run executes under: the
// flag of the member with the loosest deadline, an unbounded member
// winning outright, since the run owes each of them its result. The
// members are the jobs of one circuit, so no job's budget depends on
// another circuit's jobs dequeued beside it. The flag is a member's own,
// so a single-flight joiner's Extend still reaches the running execution.
func batchFlag(jobs []*job) *cancel.Flag {
	f := jobs[0].flag
	for _, j := range jobs[1:] {
		cur := f.Deadline()
		if cur.IsZero() {
			break
		}
		if d := j.flag.Deadline(); d.IsZero() || d.After(cur) {
			f = j.flag
		}
	}
	return f
}

// runBatchSafe is the worker's last-resort net around runBatch: the
// guarded execution boundaries inside should make it unreachable, but
// if serving-layer code itself panics, every member of the batch still
// reaches a terminal state (done channels close, flights clear) and
// the worker survives to drain the next batch.
func (s *Server) runBatchSafe(batch []*job) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("%w: %v", ErrPanic, r)
			s.mu.Lock()
			s.stats.PanicsRecovered++
			for _, j := range batch {
				// Idempotent per key: members runBatch already completed
				// before panicking have no flight left and are skipped.
				s.completeKeyLocked(j.key, nil, err, "panic")
			}
			s.mu.Unlock()
		}
	}()
	s.runBatch(batch)
}

// outcome is one job's terminal result as runBatch computes it, before
// the batch commits under s.mu.
type outcome struct {
	j   *job
	res *backend.Result
	err error
	// skipped marks a job that never executed (expired in queue): it
	// completes like any failure but stays out of the executed counters.
	skipped bool
}

// batchTally accumulates one batch's outcomes and counter deltas off
// the lock, so a big batch never stalls submissions, polls, or other
// workers' completions; runBatch commits it in one critical section.
type batchTally struct {
	outs     []outcome
	sweepPts uint64
	// Distributed-communication totals, counted once per execution (jobs
	// sharing one run would overcount them per job).
	mgpuExch  uint64
	mgpuBytes int64
}

// runShared is the run the simulate jobs of one circuit share:
// probabilities only, each job drawing its own shots afterwards.
func runShared(_ *job, comp *backend.Compiled, o core.Options) (*backend.Result, error) {
	return backend.RunCompiled(comp, o)
}

// runBatch executes one dequeued batch, every job through execute. A
// solo-kind job (a run function in the kind table) executes alone: its
// key is unique within the batch by single-flight, and one cached
// compile serves any number of observables or sweep points on its
// circuit. The simulate jobs of one circuit (by fingerprint) share one
// run, then each draws its own shots from its probability vector with
// its own seed, reproducing exactly what a standalone backend.Run would
// return. Distinct circuits run one after another, so a worker holds one
// state at a time.
func (s *Server) runBatch(batch []*job) {
	// Queue wait ends for every member when the worker picks the batch
	// up; each job's queue_wait span is measured against its own
	// submission time.
	dequeued := time.Now()
	s.markRunning(batch)

	var t batchTally
	var order []string
	var byFP map[string][]*job
	for _, j := range batch {
		if cerr := j.flag.Err(); cerr != nil {
			// The budget ran out while the job sat in the queue: fail it
			// without paying for compilation or execution.
			err := fmt.Errorf("%w (expired in queue): %v", ErrDeadlineExceeded, cerr)
			t.outs = append(t.outs, outcome{j: j, err: err, skipped: true})
			continue
		}
		if run := kinds[j.kind].run; run != nil {
			res, err := s.execute(&t, j, j.flag, run)
			if err == nil {
				res = s.traced(j, res, dequeued, 0)
			}
			t.outs = append(t.outs, outcome{j: j, res: res, err: err})
			continue
		}
		if byFP == nil {
			byFP = make(map[string][]*job)
		}
		if byFP[j.fp] == nil {
			order = append(order, j.fp)
		}
		byFP[j.fp] = append(byFP[j.fp], j)
	}
	for _, fp := range order {
		jobs := byFP[fp]
		res, err := s.execute(&t, jobs[0], batchFlag(jobs), runShared)
		for _, j := range jobs {
			if err != nil {
				t.outs = append(t.outs, outcome{j: j, err: err})
				continue
			}
			t.outs = append(t.outs, s.sample(j, res, dequeued))
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Batches++
	s.stats.BatchedJobs += uint64(len(t.outs))
	s.stats.MgpuExchanges += t.mgpuExch
	s.stats.MgpuBytesSent += t.mgpuBytes
	s.stats.SweepPointsRun += t.sweepPts
	for _, o := range t.outs {
		deadline := errors.Is(o.err, ErrDeadlineExceeded)
		if o.skipped {
			s.stats.CancelledQueue++
		} else {
			s.stats.Executed++
			if deadline {
				s.stats.CancelledRunning++
			}
			if f := kinds[o.j.kind].counters; f != nil {
				_, executed := f(&s.stats)
				*executed++
			}
		}
		key := kinds[o.j.kind].stem
		if key == "" {
			key = string(s.cfg.Target)
		}
		if deadline {
			key = "deadline"
		}
		s.completeKeyLocked(o.j.key, o.res, o.err, key)
	}
}

// execute is the one execution step of every job kind: resolve j's
// circuit through the plan cache (or, for a kind whose plan this server
// could not rebind, run its unbound form from the source circuit), run
// it under flag, recover a panic as ErrPanic and lift whatever the
// cancel package tripped to ErrDeadlineExceeded (HTTP 504). The
// result's trace is the plan-resolution spans followed by the run's
// own, observed here once per execution however many jobs share it;
// traced adds each job's own.
func (s *Server) execute(t *batchTally, j *job, flag *cancel.Flag, run runFunc) (*backend.Result, error) {
	var ctr *telemetry.Trace
	var res *backend.Result
	var err error
	if gerr := s.guardPanic(func() {
		// The cancel flag and the fault-injection hook never shape a
		// completed run's output, so keys and signatures omit them.
		o := s.execOptions()
		o.Cancel, o.ExecHook = flag, s.cfg.ExecHook
		if unbound := kinds[j.kind].unbound; unbound != nil && !s.rebindable {
			res, err = unbound(j, o)
			return
		}
		var comp *backend.Compiled
		if comp, ctr, err = s.compiled(j.circ, j.fp); err == nil {
			res, err = run(j, comp, o)
		}
	}); gerr != nil {
		err = gerr
	}
	if err != nil {
		if errors.Is(err, cancel.ErrCancelled) {
			err = fmt.Errorf("%w: %v", ErrDeadlineExceeded, err)
		}
		return nil, err
	}
	tr := &telemetry.Trace{}
	tr.Append(ctr)
	tr.Append(res.Trace)
	res.Trace = tr
	s.observeStages(tr)
	t.sweepPts += uint64(res.SweepPoints)
	t.mgpuExch += uint64(res.Exchanges)
	t.mgpuBytes += res.BytesSent
	return res, nil
}

// sample finishes one job of a shared run: a shallow copy of the run's
// result (the probability vector stays shared, read-only) holding the
// job's own shots, drawn by backend.SampleShots — the target's own
// sampling path, the mqpu per-device split included — so its counts
// match a standalone backend.Run bit for bit.
func (s *Server) sample(j *job, shared *backend.Result, dequeued time.Time) outcome {
	res := *shared
	var err error
	var d time.Duration
	if j.opts.Shots > 0 {
		t0 := time.Now()
		if gerr := s.guardPanic(func() {
			o := s.execOptions()
			o.Shots, o.Seed = j.opts.Shots, j.opts.Seed
			res.Counts, err = backend.SampleShots(res.Probabilities, o)
		}); gerr != nil {
			err = gerr
		}
		d = time.Since(t0)
	}
	if err != nil {
		return outcome{j: j, err: err}
	}
	return outcome{j: j, res: s.traced(j, &res, dequeued, d)}
}

// traced gives a job's result its own trace — its queue wait, the spans
// of the execution it ran in, then its own sample span — and observes
// the job's own spans; execute observed the execution's.
func (s *Server) traced(j *job, res *backend.Result, dequeued time.Time, sample time.Duration) *backend.Result {
	wait := dequeued.Sub(j.submittedAt)
	tr := &telemetry.Trace{Spans: make([]telemetry.Span, 0, len(res.Trace.Spans)+2)}
	tr.Add(telemetry.StageQueueWait, wait)
	tr.Append(res.Trace)
	tr.Add(telemetry.StageSample, sample)
	res.Trace = tr
	if wait > 0 {
		s.stageHist(telemetry.StageQueueWait).Observe(wait)
	}
	if sample > 0 {
		s.stageHist(telemetry.StageSample).Observe(sample)
	}
	return res
}

// Job returns the snapshot of a job by id.
func (s *Server) Job(id string) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	return j.info(), nil
}

// Result returns the completed result of a job. ErrNotDone is returned
// while the job is queued or running; a failed job returns its error.
func (s *Server) Result(id string) (*backend.Result, error) {
	_, res, err := s.Lookup(id)
	return res, err
}

// Lookup returns a job's snapshot and, when finished, its result, in
// one consistent read: the snapshot's state always matches whether a
// result is present. ErrNotDone accompanies the snapshot while the job
// is queued or running; a failed job returns its simulation error.
func (s *Server) Lookup(id string) (JobInfo, *backend.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, nil, ErrNotFound
	}
	switch j.state {
	case StateDone:
		return j.info(), j.result, nil
	case StateFailed:
		return j.info(), nil, j.err
	default:
		return j.info(), nil, ErrNotDone
	}
}

// Wait blocks until the job finishes (or ctx is done) and returns its
// final snapshot.
func (s *Server) Wait(ctx context.Context, id string) (JobInfo, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobInfo{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.info(), nil
}

// WaitFor blocks until the job finishes or d elapses, returning the
// job's current snapshot either way — the long-poll primitive behind
// GET /v1/jobs/{id}?wait_ms=N. A non-positive d degenerates to a plain
// poll.
func (s *Server) WaitFor(id string, d time.Duration) (JobInfo, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	select {
	case <-j.done: // finished already: no timer to make
	default:
		if d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-j.done:
			case <-t.C:
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.info(), nil
}

// Run is the synchronous convenience path: submit and wait, returning
// the result directly — the embeddable equivalent of one API call. It
// holds the job record itself, so the result survives even if the
// finished-job retention window evicts the id before the caller reads
// it.
func (s *Server) Run(ctx context.Context, c *circuit.Circuit, opts SubmitOptions) (*backend.Result, JobInfo, error) {
	j, err := s.submit(c, opts, false)
	if err != nil {
		return nil, JobInfo{}, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		s.mu.Lock()
		in := j.info()
		s.mu.Unlock()
		return nil, in, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.result, j.info(), j.err
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.QueueDepth = len(s.queue)
	st.QueueCapacity = s.cfg.QueueSize
	st.Workers = s.cfg.WorkerPool
	st.WorkersBusy = int(s.busy.Load())
	st.CacheLen = s.cache.Len()
	st.CacheCapacity = s.cfg.CacheSize
	st.CacheBytes = s.cache.Bytes()
	st.CacheMaxBytes = s.cfg.MaxCacheBytes
	st.CacheEvictions = s.cache.Evictions()
	st.PlanCacheLen = s.plans.Len()
	st.PlanCacheBytes = s.plans.Bytes()
	st.PlanCacheMaxBytes = s.cfg.MaxPlanCacheBytes
	st.PlanCacheEvictions = s.plans.Evictions()
	st.Latency = make(map[string]HistogramSnapshot, len(s.latency))
	st.UptimeSeconds = time.Since(s.start).Seconds()
	if s.store != nil {
		ss := s.store.Stats()
		st.StoreDir = ss.Dir
		st.StoreResultEntries = ss.ResultEntries
		st.StoreBytes = ss.Bytes
		st.StoreMaxBytes = ss.MaxBytes
		st.StoreGCEvictions = ss.GCEvictions
		st.StoreGCEvictedBytes = ss.GCEvictedBytes
		st.StoreGCRejected = ss.GCRejected
		st.StoreManifestRecords = ss.ManifestRecords
		st.StoreManifestCompactions = ss.ManifestCompactions
		st.StoreBootScanned = ss.BootScanned
	}
	if st.Submitted > 0 {
		st.HitRate = float64(st.CacheHits+st.SingleFlightHits+st.StoreHits) / float64(st.Submitted)
	}
	if st.Batches > 0 {
		st.MeanBatchLen = float64(st.BatchedJobs) / float64(st.Batches)
	}
	for k, h := range s.latency {
		st.Latency[k] = snapshotHistogram(h)
	}
	return st
}

// Close stops accepting submissions, drains every queued and in-flight
// job to completion, stops the worker pool, and — when a persistent
// store is configured — spills every resident result to disk so the
// next process answers from this one's working set. Safe to call
// twice.
func (s *Server) Close() error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		s.loadWG.Wait() // store loads finish (and their fallbacks enqueue) first
		close(s.queue)
	}
	s.wg.Wait()
	s.drainSpills(first)
	return nil
}
