package service

import (
	"sync"
	"time"

	"qgear/internal/backend"
	"qgear/internal/telemetry"
)

// spillBacklog is the eviction-spill backlog: results bound for the
// persistent store wait here for the spiller, which saves them off the
// serving path. It is embedded in Server and only the functions of this
// file touch it. spill is made once, in startSpiller, and stays nil
// without a store, so nothing enters the backlog; spillBytes and
// pendingSpills are guarded by Server.mu.
type spillBacklog struct {
	spill      chan spillItem
	spillWG    sync.WaitGroup // the spiller goroutine
	spillBytes int64          // bytes pinned by the backlog
	// pendingSpills is the spill lookaside window: results evicted
	// from the cache stay answerable here until the spiller has them
	// durably on disk, so an eviction immediately followed by a repeat
	// submission never re-simulates.
	pendingSpills map[string]*backend.Result
}

// spillItem is one result bound for the persistent store. bytes is the
// entry's accounted size while it waits in the backlog (0 for
// shutdown-time items, which bypass the budget).
type spillItem struct {
	key    string
	result *backend.Result
	bytes  int64
}

// spillQueueDepth bounds the eviction-spill backlog's entry count; the
// backlog is additionally byte-bounded (spillBudget) because the
// entries it pins live entirely outside the cache's byte budget. When
// either bound is hit, eviction spills are dropped (and counted)
// rather than stalling the serving path — the shutdown spill still
// persists whatever is resident.
const spillQueueDepth = 256

// spillBudget sizes the backlog's byte bound from the result cache's
// budget: a quarter of it, floored so small test configurations can
// still spill at all, and defaulted when the cache is unbounded.
func spillBudget(maxCacheBytes int64) int64 {
	b := maxCacheBytes / 4
	if b < 16<<20 {
		b = 16 << 20 // 16 MiB floor (also the unbounded-cache default)
	}
	return b
}

// startSpiller opens the backlog and starts its spiller; New calls it
// once the store is open.
func (s *Server) startSpiller() {
	s.spill = make(chan spillItem, spillQueueDepth)
	s.pendingSpills = make(map[string]*backend.Result)
	s.spillWG.Add(1)
	go s.spiller()
}

// spiller drains eviction- and shutdown-time results to the persistent
// store off the serving path. Saves are idempotent, so spilling a
// result that was loaded from disk is a no-op.
func (s *Server) spiller() {
	defer s.spillWG.Done()
	for it := range s.spill {
		t0 := time.Now()
		err := s.store.SaveResult(it.key, s.cfgSig, it.result)
		// Spills run off the serving path, so the stage appears in the
		// registry histograms but never in a job trace.
		s.stageHist(telemetry.StageSpill).Observe(time.Since(t0))
		s.mu.Lock()
		if err != nil {
			s.stats.StoreErrors++
		} else {
			s.stats.StoreSpills++
		}
		s.spillBytes -= it.bytes
		if s.pendingSpills[it.key] == it.result {
			delete(s.pendingSpills, it.key)
		}
		s.mu.Unlock()
	}
}

// spilledLocked returns the result key still waits with in the
// backlog, if any (nil otherwise). Callers hold s.mu.
func (s *Server) spilledLocked(key string) *backend.Result {
	return s.pendingSpills[key]
}

// minAdmissionSamples is how many store loads must have been measured
// before the measured-admission rule activates; below it every result
// is persisted (cold stores should fill, not starve).
const minAdmissionSamples = 32

// admitResultSpill applies measured admission: once enough store
// loads have been observed, a result whose modeled recompute cost
// (its recorded simulation time) is below the observed median load
// latency is cheaper to re-simulate than to read back, so persisting
// it would only burn disk budget and GC pressure. Shutdown-time
// spills bypass this (drainSpills writes the spill channel directly):
// post-restart the cache is empty and even cheap results are wins.
func (s *Server) admitResultSpill(res *backend.Result) bool {
	d := s.storeLoad.Snapshot()
	if d.N < minAdmissionSamples || res.Duration <= 0 {
		return true
	}
	// Median from the bucket histogram: the upper bound of the first
	// bucket holding the middle observation.
	var cum uint64
	median := telemetry.BucketBoundSeconds(telemetry.HistogramBuckets)
	for i, c := range d.Counts {
		cum += c
		if cum*2 >= d.N {
			median = telemetry.BucketBoundSeconds(i)
			break
		}
	}
	return res.Duration.Seconds() >= median
}

// enqueueSpillLocked hands a result to the spiller without ever
// blocking the serving path. Callers hold s.mu.
func (s *Server) enqueueSpillLocked(it spillItem) {
	if s.spill == nil {
		return
	}
	if !s.admitResultSpill(it.result) {
		s.stats.StoreAdmissionSkips++
		return
	}
	if s.spillBytes > 0 && s.spillBytes+it.bytes > spillBudget(s.cfg.MaxCacheBytes) {
		// The backlog already pins its byte budget of unaccounted
		// memory; shedding keeps -max-cache-bytes an honest bound on
		// the process, at the cost of re-simulating this key if it is
		// asked for after a restart. An empty backlog always admits one
		// entry, so even over-budget results eventually persist.
		s.stats.StoreSpillDrops++
		return
	}
	select {
	case s.spill <- it:
		s.spillBytes += it.bytes
		s.pendingSpills[it.key] = it.result
	default:
		s.stats.StoreSpillDrops++
	}
}

// drainSpills is Close's last step with a store: the first Close
// (first set) hands every resident result to the spiller —
// blocking, since shutdown durability beats latency — and closes the
// backlog; every Close then waits for the spiller to finish.
func (s *Server) drainSpills(first bool) {
	if s.spill == nil {
		return
	}
	if first {
		s.mu.Lock()
		items := make([]spillItem, 0, s.cache.Len())
		for _, e := range s.cache.Entries() {
			items = append(items, spillItem{key: e.Key, result: e.Val})
		}
		s.mu.Unlock()
		for _, it := range items {
			s.spill <- it
		}
		close(s.spill)
	}
	s.spillWG.Wait()
}
