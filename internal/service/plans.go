package service

import (
	"fmt"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/telemetry"
)

// planKey addresses the compiled-plan cache. Everything else that
// shapes a plan (target, devices, prune) is server-constant,
// so a circuit identity plus the configured tile width identifies the
// artifact. Under a rebindable configuration —
// where compiled structure is provably value-independent — a
// parameterized circuit keys by its *structural* fingerprint: every
// submission sharing a shape, whatever its angles, resolves to one
// cached skeleton that compiled() rebinds to the job's own values. A
// 10k-point sweep (or 10k individually-submitted points) therefore
// costs exactly one compile. Value-dependent configurations (pruning)
// keep exact-fingerprint keying.
func (s *Server) planKey(c *circuit.Circuit, fp string) string {
	if s.rebindable && c.NumParams() > 0 {
		return fmt.Sprintf("%s|b%d", c.StructuralFingerprint(), s.cfg.TileBits)
	}
	return fmt.Sprintf("%s|b%d", fp, s.cfg.TileBits)
}

// compiled returns the circuit's execution IR, serving repeat
// fingerprints from the plan cache so resubmissions — including ones
// with different shots or seeds, which miss the result cache — skip
// transformation and plan compilation entirely. Compiled plans are
// immutable and safe to execute concurrently. Concurrent misses for
// one key single-flight: workers that lose the race wait for the
// winner's plan instead of compiling the same circuit again.
//
// The returned trace fragment breaks the call's own wall time into a
// fresh compile span, a persistent-store load span, a rebind span
// (structural-key hits only), and a plan_cache span covering
// everything else (lookup, single-flight waits, spill lookaside) — so
// a cache hit shows pure plan_cache time while a cold miss shows
// mostly compile.
//
// Under structural keying (see planKey) the cached artifact is a
// *skeleton*: its structure matches every circuit sharing the shape,
// but its value-derived matrices carry whatever parameter values
// first populated the key. Every serving path that did not compile
// from this job's own circuit — cache hit, spill lookaside, store
// load — therefore rebinds the skeleton to c's parameter values
// before returning; only a fresh compile is already bound.
func (s *Server) compiled(c *circuit.Circuit, fp string) (*backend.Compiled, *telemetry.Trace, error) {
	t0 := time.Now()
	structural := s.rebindable && c.NumParams() > 0
	key := s.planKey(c, fp)
	s.mu.Lock()
	for {
		if comp, ok := s.plans.Get(key); ok {
			s.stats.PlanCacheHits++
			s.mu.Unlock()
			return s.rebound(comp, c, structural, t0, 0, 0)
		}
		if comp := s.spilledLocked(key).plan; comp != nil {
			// Spill lookaside: an evicted plan still bound for disk is
			// an ordinary cache hit (it never touched the store) —
			// serve it and re-admit.
			s.stats.PlanCacheHits++
			s.admitPlanLocked(key, comp, planCost(comp))
			s.mu.Unlock()
			return s.rebound(comp, c, structural, t0, 0, 0)
		}
		ch, compiling := s.planFlights[key]
		if !compiling {
			break
		}
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
		// Re-check: the winner cached the plan (or failed, in which
		// case this worker becomes the next compiler).
	}
	s.stats.PlanCacheMisses++
	ch := make(chan struct{})
	s.planFlights[key] = ch
	s.mu.Unlock()

	// Warm start: a plan compiled by an earlier process may be on disk.
	// Checksum or signature failures quarantine the file and fall
	// through to a fresh compile.
	var comp *backend.Compiled
	var err error
	var cost float64
	var loadDur, compileDur time.Duration
	fromStore := false
	if s.store != nil && s.store.HasPlan(key) {
		tl := time.Now()
		comp, cost, err = s.store.LoadPlan(key, s.cfgSig)
		loadDur = time.Since(tl)
		if err == nil {
			fromStore = true
		} else {
			s.storeLoadFailed(err, s.store.DropPlan, key)
			comp = nil
		}
	}
	if comp == nil {
		tc := time.Now()
		comp, err = backend.Compile(c, s.execOptions())
		compileDur = time.Since(tc)
	}

	s.mu.Lock()
	if err == nil {
		if fromStore {
			s.stats.StorePlanHits++
		}
		// Admit at the cost the sidecar recorded when warm-started (the
		// same units planCost produces), else the fresh model value.
		if !fromStore || cost <= 0 {
			cost = planCost(comp)
		}
		s.admitPlanLocked(key, comp, cost)
	}
	delete(s.planFlights, key)
	close(ch)
	s.mu.Unlock()
	if err == nil && fromStore {
		// A warm-started skeleton was compiled by another process from
		// values this job never chose — rebind like any other hit.
		return s.rebound(comp, c, structural, t0, loadDur, compileDur)
	}
	return comp, planTrace(t0, loadDur, compileDur, 0), err
}

// admitPlanLocked puts a plan in the plan cache and routes whatever it
// evicts to the spill backlog. Callers hold s.mu.
func (s *Server) admitPlanLocked(key string, comp *backend.Compiled, cost float64) {
	for _, ev := range s.plans.Add(key, comp, comp.SizeBytes(), cost) {
		s.stats.PlanCacheEvictedBytes += ev.Bytes
		s.enqueueSpillLocked(spillItem{key: ev.Key, plan: ev.Val, cost: ev.Cost, bytes: ev.Bytes})
	}
}

// rebound finishes a structural-cache hit: the cached skeleton's
// value-derived matrices are patched (copy-on-write — the cached
// artifact stays immutable and shared) to this circuit's own parameter
// values. Exact-keyed artifacts pass through untouched.
func (s *Server) rebound(comp *backend.Compiled, c *circuit.Circuit, structural bool, t0 time.Time, loadDur, compileDur time.Duration) (*backend.Compiled, *telemetry.Trace, error) {
	if !structural {
		return comp, planTrace(t0, loadDur, compileDur, 0), nil
	}
	tb := time.Now()
	bound, err := comp.BindParams(c.ParamValues())
	rebindDur := time.Since(tb)
	if err != nil {
		return nil, nil, fmt.Errorf("service: rebinding cached plan: %w", err)
	}
	s.mu.Lock()
	s.stats.PlanRebinds++
	s.mu.Unlock()
	return bound, planTrace(t0, loadDur, compileDur, rebindDur), nil
}

// planTrace assembles compiled()'s trace fragment: store-load,
// compile, and rebind get their own spans, and whatever remains of the
// call's wall time is plan-cache overhead.
func planTrace(t0 time.Time, loadDur, compileDur, rebindDur time.Duration) *telemetry.Trace {
	tr := &telemetry.Trace{}
	tr.Add(telemetry.StagePlanCache, time.Since(t0)-loadDur-compileDur-rebindDur)
	tr.Add(telemetry.StageStoreLoad, loadDur)
	tr.Add(telemetry.StageCompile, compileDur)
	tr.Add(telemetry.StageRebind, rebindDur)
	return tr
}

// planCost models a compiled plan's recompute cost: transformation and
// planning are linear passes over the instruction stream.
func planCost(comp *backend.Compiled) float64 {
	return float64(1 + len(comp.Kernel.Instrs))
}
