package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/core"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/qmath"
	"qgear/internal/randcirc"
	"qgear/internal/sampling"
	"qgear/internal/service"
	"qgear/internal/telemetry"
)

// The serve_mix kinds. A block of 20 ops of one client holds them in
// fixed numbers (55 / 15 / 10 / 15 / 5 %), in seed-shuffled order.
const (
	kindSimulate    = "simulate"
	kindRepeat      = "repeat"
	kindExpectation = "expectation"
	kindSweep       = "sweep"
	kindGradient    = "gradient"
)

var serveBlock = func() []string {
	var b []string
	for _, k := range []struct {
		kind string
		n    int
	}{{kindSimulate, 11}, {kindRepeat, 3}, {kindExpectation, 2}, {kindSweep, 3}, {kindGradient, 1}} {
		for i := 0; i < k.n; i++ {
			b = append(b, k.kind)
		}
	}
	return b
}()

// serveSampleEvery picks the share of ops re-computed through backend
// calls at the end of a run: one in a hundred.
const serveSampleEvery = 100

// serveMix drives an in-process service.Server behind httptest on
// loopback, closed-loop, with W clients. An op is POST /v1/jobs, then
// GET /v1/jobs/{id}?wait_ms, then GET /v1/results/{id}. The circuits
// are small, so execution is a small part of an op and JSON, HTTP,
// queueing, batching, the two caches and the job-kind switches are the
// cost. It uses the same statevec and kernel layer as qft_exec, but
// differently: thousands of cache-resident states where dispatch and
// allocation dominate, beside one bandwidth-bound state.
//
// A round is ServeOpsPerClient ops of every client. Fresh circuits
// never repeat across rounds; a repeat re-sends a simulate request the
// same client completed in the previous round, at least ServeRepeatGap
// of its ops back, so it is a result-cache hit whatever the
// interleaving. Sweeps and gradients share one ansatz shape, so after
// the first they are plan-cache hits served by rebinding.
//
// Oracle: every HTTP status as documented; every job done; a repeat's
// result payload byte-identical to the original's; a seeded 1 % of ops
// re-computed through backend.Run* and compared bit for bit; and the
// final /metrics job totals equal /v1/stats.
type serveMix struct {
	e      env
	seed   uint64
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client

	ansatz  *circuit.Circuit
	ham     *observable.Hamiltonian
	hamWire *service.WireHamiltonian
	exec    backend.Config // what the server executes with

	clients []*serveClient
	sampled []*serveOp

	// Accumulated over traced rounds, for Layers.
	trMu        sync.Mutex
	trLat       map[string][]float64
	trStage     map[string]float64 // summed server-reported stage seconds
	trStageJobs map[string][]float64
	trReqBytes  int64
	trRespBytes int64
	trOps       int
	trStats     serveCounters // /v1/stats deltas summed over the traced rounds
}

// serveCounters are the /v1/stats counters the per-layer metrics use.
type serveCounters struct {
	submitted, cacheHits, planHits, planMisses, planRebinds float64
	executed, batches, batchedJobs, shed, singleFlight      float64
}

func (c *serveCounters) addDelta(before, after service.Stats) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	c.submitted += d(after.Submitted, before.Submitted)
	c.cacheHits += d(after.CacheHits, before.CacheHits)
	c.planHits += d(after.PlanCacheHits, before.PlanCacheHits)
	c.planMisses += d(after.PlanCacheMisses, before.PlanCacheMisses)
	c.planRebinds += d(after.PlanRebinds, before.PlanRebinds)
	c.executed += d(after.Executed, before.Executed)
	c.batches += d(after.Batches, before.Batches)
	c.batchedJobs += d(after.BatchedJobs, before.BatchedJobs)
	c.shed += d(after.RejectedQueueFull, before.RejectedQueueFull)
	c.singleFlight += d(after.SingleFlightHits, before.SingleFlightHits)
}

// serveClient is one closed-loop client with its own random stream.
type serveClient struct {
	rng  *qmath.RNG
	prev []*serveOp // the previous round's ops, repeat candidates
	next []*serveOp // the prepared round
}

// serveOp is one request and, once done and checked, its result payload.
type serveOp struct {
	kind    string
	body    []byte
	orig    *serveOp      // repeat: the op whose request this re-sends
	got     resultPayload // the answer as fetched
	fetched bool          // got awaits Check
	payload []byte        // canonical result payload

	// Kept only on sampled ops, for the re-computation.
	circ   *circuit.Circuit
	points [][]float64
	shots  int
	seed   uint64
}

// resultPayload is the part of a /v1/results body that is the job's
// answer (ids, timings and traces differ between identical jobs).
type resultPayload struct {
	Top         []service.TopProb `json:"top,omitempty"`
	Counts      map[string]int    `json:"counts,omitempty"`
	ExpValue    *float64          `json:"expval,omitempty"`
	SweepValues []float64         `json:"sweep_values,omitempty"`
	Gradient    []float64         `json:"gradient,omitempty"`
}

func newServeMix(seed uint64, e env) *serveMix {
	rng := stream(seed, "serve_mix")
	n := e.Sizes.ServeQubits
	// A fixed-shape two-layer RY + CX-chain ansatz: 2n parameters.
	a := circuit.New(n, 0)
	a.Name = "ansatz"
	for q := 0; q < n; q++ {
		a.RY(0, q)
	}
	for q := 0; q+1 < n; q++ {
		a.CX(q, q+1)
	}
	for q := 0; q < n; q++ {
		a.RY(0, q)
	}
	ham := observable.TransverseFieldIsing(n, 0.5+rng.Float64(), 0.5+rng.Float64())
	s := &serveMix{
		e: e, seed: seed, ansatz: a, ham: ham, hamWire: service.FromHamiltonian(ham),
		exec:        backend.Config{Target: backend.TargetNvidia, Workers: 1},
		trLat:       make(map[string][]float64),
		trStage:     make(map[string]float64),
		trStageJobs: make(map[string][]float64),
	}
	for c := 0; c < e.W; c++ {
		s.clients = append(s.clients, &serveClient{rng: rng.Split()})
	}
	return s
}

func (s *serveMix) Setup() error {
	srv, err := service.New(service.Config{
		Target:        backend.TargetNvidia,
		Workers:       1,
		WorkerPool:    s.e.W,
		MaxStateBytes: 1 << 30,
		// Room for every result of a run: an evicted original would turn
		// a repeat into an execution and the counters would not repeat.
		CacheSize: 1 << 16,
	})
	if err != nil {
		return err
	}
	s.srv = srv
	s.ts = httptest.NewServer(srv.Handler())
	s.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: s.e.W},
	}
	// The warm-up round: it fills the caches and gives every client a
	// previous round to repeat from.
	if err := s.Prepare(); err != nil {
		return err
	}
	warm := newRecorder()
	s.runRound(warm, nil)
	s.Check(warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up round: %d of %d ops failed: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	return nil
}

func (s *serveMix) Close() {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.srv != nil {
		// The queue is empty (every op was waited for), so Close has
		// nothing to drain; its error reports only store flushes, and
		// there is no store.
		_ = s.srv.Close()
	}
}

// Prepare generates the next round's requests for every client.
func (s *serveMix) Prepare() error {
	for _, c := range s.clients {
		ops, err := s.generate(c)
		if err != nil {
			return err
		}
		c.next = ops
	}
	return nil
}

func (s *serveMix) generate(c *serveClient) ([]*serveOp, error) {
	sz := s.e.Sizes
	var kinds []string
	for len(kinds) < sz.ServeOpsPerClient {
		for _, i := range c.rng.Perm(len(serveBlock)) {
			kinds = append(kinds, serveBlock[i])
		}
	}
	kinds = kinds[:sz.ServeOpsPerClient]

	// Repeat candidates: simulate ops of the previous round old enough
	// that even this round's first op is ServeRepeatGap ops later.
	var candidates []*serveOp
	for i, op := range c.prev {
		if op.kind == kindSimulate && len(c.prev)-i >= sz.ServeRepeatGap {
			candidates = append(candidates, op)
		}
	}

	ops := make([]*serveOp, 0, len(kinds))
	for _, kind := range kinds {
		if kind == kindRepeat && len(candidates) == 0 {
			kind = kindSimulate // the warm-up round has nothing to repeat yet
		}
		op := &serveOp{kind: kind}
		req := service.SubmitRequest{Kind: kind}
		switch kind {
		case kindRepeat:
			op.orig = candidates[c.rng.Intn(len(candidates))]
			op.body = op.orig.body
			ops = append(ops, op)
			continue
		case kindSimulate, kindExpectation:
			circ, err := randcirc.Generate(randcirc.Spec{
				Qubits: sz.ServeQubits, Blocks: sz.ServeBlocks,
				Seed: c.rng.Uint64(), Measure: kind == kindSimulate,
			})
			if err != nil {
				return nil, err
			}
			op.circ = circ
			if kind == kindSimulate {
				op.shots, op.seed = sz.ServeShots, c.rng.Uint64()
				req.Shots, req.Seed = op.shots, op.seed
			} else {
				req.Hamiltonian = s.hamWire
			}
		case kindSweep:
			op.circ = s.ansatz
			op.points = make([][]float64, sz.ServeSweepPoints)
			for i := range op.points {
				op.points[i] = angles(c.rng, s.ansatz.NumParams())
			}
			req.Points, req.Hamiltonian = op.points, s.hamWire
		case kindGradient:
			circ, err := s.ansatz.BindParams(angles(c.rng, s.ansatz.NumParams()))
			if err != nil {
				return nil, err
			}
			op.circ = circ
			req.Hamiltonian = s.hamWire
		}
		req.Circuit = service.FromCircuit(op.circ)
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		op.body = body
		if c.rng.Intn(serveSampleEvery) == 0 {
			s.sampled = append(s.sampled, op)
		} else {
			op.circ, op.points = nil, nil
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func angles(rng *qmath.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Angle()
	}
	return v
}

func (s *serveMix) Round(rec *recorder) time.Duration { return s.runRound(rec, nil) }

// TracedRound also reads /v1/stats on both sides of the round (outside
// its clock), so the counters cover exactly the traced rounds.
func (s *serveMix) TracedRound(rec *recorder, tr *tracer) time.Duration {
	before, err := s.stats()
	if err != nil {
		rec.record(0, err)
		return 0
	}
	wall := s.runRound(rec, tr)
	after, err := s.stats()
	if err != nil {
		rec.record(0, err)
		return wall
	}
	s.trStats.addDelta(before, after)
	return wall
}

// runRound has every client work through its prepared ops, one at a
// time, and returns the wall time until the last client is done.
func (s *serveMix) runRound(rec *recorder, tr *tracer) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			for _, op := range c.next {
				d, err := s.do(op, tr)
				rec.record(d, err)
			}
			c.prev, c.next = c.next, nil
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// call is one HTTP exchange: status checked, body read.
func (s *serveMix) call(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: HTTP %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return data, nil
}

// do runs one op and keeps its answer for Check; with a tracer it
// records a span per HTTP call and attaches the stage spans the server
// returned.
func (s *serveMix) do(op *serveOp, tr *tracer) (time.Duration, error) {
	start := time.Now()
	opID, root := 0, -1
	span := func(name string, fn func()) { fn() }
	if tr != nil {
		opID = tr.nextOp()
		root = tr.begin("op", -1, opID)
		span = func(name string, fn func()) { tr.timed(name, root, opID, fn) }
	}

	var (
		info       service.JobInfo
		res        service.ResultResponse
		data       []byte
		err        error
		respBytes  int
		submitDone time.Time
	)
	span("service.submit_rtt", func() {
		if data, err = s.call(http.MethodPost, "/v1/jobs", op.body, http.StatusAccepted); err == nil {
			respBytes += len(data)
			err = json.Unmarshal(data, &info)
		}
		submitDone = time.Now()
	})
	if err == nil {
		span("service.wait_rtt", func() {
			if data, err = s.call(http.MethodGet, "/v1/jobs/"+info.ID+"?wait_ms=30000", nil, http.StatusOK); err == nil {
				respBytes += len(data)
				err = json.Unmarshal(data, &info)
			}
		})
	}
	if err == nil && info.State != service.StateDone {
		err = fmt.Errorf("job %s is %s after the wait: %s", info.ID, info.State, info.Error)
	}
	if err == nil {
		span("service.result_fetch", func() {
			if data, err = s.call(http.MethodGet, "/v1/results/"+info.ID, nil, http.StatusOK); err == nil {
				respBytes += len(data)
				err = json.Unmarshal(data, &res)
			}
		})
	}
	if tr != nil {
		tr.finish(root)
	}
	d := time.Since(start)
	if err != nil {
		return d, err
	}

	if res.State != service.StateDone {
		return d, fmt.Errorf("result %s is %s", info.ID, res.State)
	}
	op.got = resultPayload{
		Top: res.Top, Counts: res.Counts, ExpValue: res.ExpValue,
		SweepValues: res.SweepValues, Gradient: res.Gradient,
	}
	op.fetched = true
	if tr != nil {
		s.account(op, d, len(op.body), respBytes, &res, tr, root, opID, submitDone)
	}
	return d, nil
}

// Check renders the answer of every op of the last round in canonical
// form and holds a repeat's against its original's, byte for byte.
func (s *serveMix) Check(rec *recorder) {
	for _, c := range s.clients {
		for _, op := range c.prev {
			if !op.fetched {
				continue // the op failed and is counted
			}
			var err error
			op.payload, err = json.Marshal(&op.got)
			op.got, op.fetched = resultPayload{}, false
			if err == nil && op.orig != nil && !bytes.Equal(op.payload, op.orig.payload) {
				err = fmt.Errorf("a repeat's result differs from its original's:\n got %s\nwant %s", op.payload, op.orig.payload)
			}
			if err != nil {
				rec.lateFail(err)
			}
		}
	}
}

// account adds one traced op to the per-layer accumulators.
func (s *serveMix) account(op *serveOp, d time.Duration, reqBytes, respBytes int, res *service.ResultResponse, tr *tracer, root, opID int, at time.Time) {
	s.trMu.Lock()
	defer s.trMu.Unlock()
	s.trOps++
	s.trLat[op.kind] = append(s.trLat[op.kind], d.Seconds())
	s.trReqBytes += int64(reqBytes)
	s.trRespBytes += int64(respBytes)
	if res.Cached || res.Trace == nil {
		return // a cached result carries the original execution's trace
	}
	for _, sp := range res.Trace.Spans {
		tr.addReported("service.stage_"+sp.Stage, root, opID, at, sp.Duration())
		at = at.Add(sp.Duration())
		s.trStage[sp.Stage] += sp.Duration().Seconds()
		if op.kind == kindSimulate || op.kind == kindExpectation {
			s.trStageJobs[sp.Stage] = append(s.trStageJobs[sp.Stage], sp.Duration().Seconds())
		}
	}
}

// Finish re-computes the sampled ops through the backend and checks
// /metrics against /v1/stats.
func (s *serveMix) Finish(rec *recorder) {
	for _, op := range s.sampled {
		if op.payload == nil {
			continue // prepared but never run: the time was up
		}
		want, err := s.recompute(op)
		if err == nil && !bytes.Equal(want, op.payload) {
			err = fmt.Errorf("%s result differs from the direct backend call:\n got %s\nwant %s", op.kind, op.payload, want)
		}
		if err != nil {
			rec.lateFail(err)
		}
	}
	if err := s.metricsAgree(); err != nil {
		rec.lateFail(err)
	}
}

func (s *serveMix) recompute(op *serveOp) ([]byte, error) {
	var want resultPayload
	n := s.e.Sizes.ServeQubits
	switch op.kind {
	case kindSimulate:
		cfg := s.exec
		cfg.Shots, cfg.Seed = op.shots, op.seed
		res, err := backend.Run(op.circ, cfg)
		if err != nil {
			return nil, err
		}
		want.Top = topProbs(res.Probabilities, 16, n)
		want.Counts = make(map[string]int, len(res.Counts))
		for idx, c := range res.Counts {
			want.Counts[sampling.Bitstring(idx, n)] = c
		}
	case kindExpectation:
		res, err := backend.RunExpectation(op.circ, s.ham, s.exec)
		if err != nil {
			return nil, err
		}
		want.ExpValue = res.ExpValue
	case kindSweep:
		res, err := backend.RunSweep(op.circ, s.ham, op.points, s.exec)
		if err != nil {
			return nil, err
		}
		want.SweepValues = firstN(res.SweepValues, 16)
	case kindGradient:
		res, err := backend.RunGradient(op.circ, s.ham, op.circ.ParamValues(), s.exec)
		if err != nil {
			return nil, err
		}
		want.ExpValue = res.ExpValue
		want.Gradient = firstN(res.Gradient, 16)
	}
	return json.Marshal(want)
}

// firstN is the server's default truncation of per-point artifacts.
func firstN(v []float64, n int) []float64 {
	if len(v) > n {
		return v[:n]
	}
	return v
}

// topProbs lists the k most probable basis states, ties to the lower
// index, as /v1/results does by default.
func topProbs(probs []float64, k, qubits int) []service.TopProb {
	idx := make([]int, len(probs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if probs[idx[a]] != probs[idx[b]] {
			return probs[idx[a]] > probs[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	out := make([]service.TopProb, len(idx))
	for i, ix := range idx {
		out[i] = service.TopProb{Index: uint64(ix), Bitstring: sampling.Bitstring(uint64(ix), qubits), Probability: probs[ix]}
	}
	return out
}

func (s *serveMix) stats() (service.Stats, error) {
	var st service.Stats
	data, err := s.call(http.MethodGet, "/v1/stats", nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// metricsAgree checks that the Prometheus exposition and /v1/stats,
// two views of one set of counters, report the same job totals once
// every job has been waited for.
func (s *serveMix) metricsAgree() error {
	data, err := s.call(http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return err
	}
	series := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
				series[name] = v
			}
		}
	}
	st, err := s.stats()
	if err != nil {
		return err
	}
	for name, want := range map[string]uint64{
		"qgear_jobs_submitted_total": st.Submitted,
		"qgear_jobs_completed_total": st.Completed,
		"qgear_jobs_failed_total":    st.Failed,
	} {
		got, ok := series[name]
		if !ok {
			return fmt.Errorf("/metrics has no %s", name)
		}
		if got != float64(want) {
			return fmt.Errorf("/metrics %s = %v, /v1/stats says %d", name, got, want)
		}
	}
	return nil
}

func (s *serveMix) Layers(tr *tracer, ctx layerCtx, m map[string]float64) error {
	if s.trOps == 0 {
		return errors.New("no traced round ran")
	}
	rounds := float64(ctx.Rounds)
	ops := float64(s.trOps)

	spanMedians(tr, m, "service.submit_rtt", "service.wait_rtt", "service.result_fetch")
	m["service.request_bytes"] = float64(s.trReqBytes) / ops
	m["service.response_bytes"] = float64(s.trRespBytes) / ops

	var all []float64
	for _, kind := range []string{kindSimulate, kindExpectation, kindSweep, kindGradient} {
		m["service."+kind+"_p50_s"] = median(s.trLat[kind])
	}
	for _, lat := range s.trLat {
		all = append(all, lat...)
	}
	if p99, ok := tail(all, 0.99); ok {
		m["service.op_p99_s"] = p99
	}

	// Means over all traced ops, so the stages add up to the part of
	// the mean op the server accounted for.
	for _, stage := range []string{
		telemetry.StageQueueWait, telemetry.StagePlanCache, telemetry.StageCompile, telemetry.StageRebind,
		telemetry.StageExecute, telemetry.StageReadout, telemetry.StageSample, telemetry.StageExpectation,
	} {
		m["service.stage_"+stage+"_s"] = s.trStage[stage] / ops
	}
	work := s.trStage[telemetry.StageExecute] + s.trStage[telemetry.StageReadout] +
		s.trStage[telemetry.StageSample] + s.trStage[telemetry.StageExpectation]
	m["service.overhead_share"] = 1 - ratio(work, sum(all))
	m["trace.dominant_layer_share"] = m["service.overhead_share"]

	// The same statevec, sampling and observable layers as the circuit
	// workloads, used differently: per fresh simulate or expectation
	// job, as the server reports them.
	m["statevec.execute_s"] = median(s.trStageJobs[telemetry.StageExecute])
	m["statevec.readout_s"] = median(s.trStageJobs[telemetry.StageReadout])
	m["sampling.sample_s"] = median(s.trStageJobs[telemetry.StageSample])
	m["sampling.shots_per_s"] = ratio(float64(s.e.Sizes.ServeShots), m["sampling.sample_s"])
	m["observable.expectation_s"] = median(s.trStageJobs[telemetry.StageExpectation])
	m["observable.terms"] = float64(len(s.ham.Terms))

	c := s.trStats
	m["service.result_cache_hit_share"] = ratio(c.cacheHits, c.submitted)
	m["service.plan_cache_hit_share"] = ratio(c.planHits, c.planHits+c.planMisses)
	m["service.plan_rebinds"] = c.planRebinds / rounds
	m["service.executed"] = c.executed / rounds
	m["service.mean_batch_size"] = ratio(c.batchedJobs, c.batches)
	m["service.shed_429"] = c.shed
	m["service.singleflight_hits"] = c.singleFlight

	return s.submitPathLayers(m)
}

// submitPathLayers times, on fresh circuits, the calls every submission
// of a new circuit pays before it executes: fingerprint, cache key,
// transform, plan and the whole compile.
func (s *serveMix) submitPathLayers(m map[string]float64) error {
	rng := stream(s.seed, "serve_mix.layers")
	opts := core.Options{Target: s.exec.Target, Workers: s.exec.Workers, Shots: s.e.Sizes.ServeShots}
	var fp, key, transform, plan, compile []float64
	since := func(t time.Time) float64 { return time.Since(t).Seconds() }
	for i := 0; i < 32; i++ {
		c, err := randcirc.Generate(randcirc.Spec{Qubits: s.e.Sizes.ServeQubits, Blocks: s.e.Sizes.ServeBlocks, Seed: rng.Uint64(), Measure: true})
		if err != nil {
			return err
		}
		t := time.Now()
		_ = c.Fingerprint()
		fp = append(fp, since(t))
		t = time.Now()
		_ = core.CacheKey(c, opts)
		key = append(key, since(t))
		t = time.Now()
		k, _, err := kernel.FromCircuit(c, kernel.Options{})
		transform = append(transform, since(t))
		if err != nil {
			return err
		}
		t = time.Now()
		// States this small do not tile: the attempt is what is timed.
		if _, err := kernel.Plan(k, kernel.PlanConfig{TileBits: kernel.AutoTileBits()}); err != nil && !errors.Is(err, kernel.ErrNoTiling) {
			return err
		}
		plan = append(plan, since(t))
		t = time.Now()
		if _, err := backend.Compile(c, s.exec); err != nil {
			return err
		}
		compile = append(compile, since(t))
	}
	m["circuit.fingerprint_s"] = median(fp)
	m["core.cache_key_s"] = median(key)
	m["kernel.transform_s"] = median(transform)
	m["kernel.plan_s"] = median(plan)
	m["backend.compile_s"] = median(compile)
	return nil
}
