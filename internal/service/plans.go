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
// winner's plan instead of compiling the same circuit again. A miss
// compiles afresh: plans live in memory only, since compiling one
// costs less than loading it from disk.
//
// The returned trace fragment breaks the call's own wall time into a
// fresh compile span, a rebind span (structural-key hits only), and a
// plan_cache span covering everything else (lookup, single-flight
// waits) — so a cache hit shows pure plan_cache time while a cold miss
// shows mostly compile.
//
// Under structural keying (see planKey) the cached artifact is a
// *skeleton*: its structure matches every circuit sharing the shape,
// but its value-derived matrices carry whatever parameter values
// first populated the key. A cache hit therefore rebinds the skeleton
// to c's parameter values before returning; a fresh compile is already
// bound.
func (s *Server) compiled(c *circuit.Circuit, fp string) (*backend.Compiled, *telemetry.Trace, error) {
	t0 := time.Now()
	structural := s.rebindable && c.NumParams() > 0
	key := s.planKey(c, fp)
	s.mu.Lock()
	for {
		if comp, ok := s.plans.Get(key); ok {
			s.stats.PlanCacheHits++
			s.mu.Unlock()
			return s.rebound(comp, c, structural, t0)
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

	tc := time.Now()
	comp, err := backend.Compile(c, s.execOptions())
	compileDur := time.Since(tc)

	s.mu.Lock()
	if err == nil {
		// An evicted plan is dropped: the next miss compiles it again.
		for _, ev := range s.plans.Add(key, comp, comp.SizeBytes(), planCost(comp)) {
			s.stats.PlanCacheEvictedBytes += ev.Bytes
		}
	}
	delete(s.planFlights, key)
	close(ch)
	s.mu.Unlock()
	return comp, planTrace(t0, compileDur, 0), err
}

// rebound finishes a structural-cache hit: the cached skeleton's
// value-derived matrices are patched (copy-on-write — the cached
// artifact stays immutable and shared) to this circuit's own parameter
// values. Exact-keyed artifacts pass through untouched.
func (s *Server) rebound(comp *backend.Compiled, c *circuit.Circuit, structural bool, t0 time.Time) (*backend.Compiled, *telemetry.Trace, error) {
	if !structural {
		return comp, planTrace(t0, 0, 0), nil
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
	return bound, planTrace(t0, 0, rebindDur), nil
}

// planTrace assembles compiled()'s trace fragment: compile and rebind
// get their own spans, and whatever remains of the call's wall time is
// plan-cache overhead.
func planTrace(t0 time.Time, compileDur, rebindDur time.Duration) *telemetry.Trace {
	tr := &telemetry.Trace{}
	tr.Add(telemetry.StagePlanCache, time.Since(t0)-compileDur-rebindDur)
	tr.Add(telemetry.StageCompile, compileDur)
	tr.Add(telemetry.StageRebind, rebindDur)
	return tr
}

// planCost models a compiled plan's recompute cost: transformation and
// planning are linear passes over the instruction stream.
func planCost(comp *backend.Compiled) float64 {
	return float64(1 + len(comp.Kernel.Instrs))
}
