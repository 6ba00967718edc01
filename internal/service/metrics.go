package service

import (
	"time"

	"qgear/internal/statevec"
	"qgear/internal/store"
	"qgear/internal/telemetry"
)

// registerMetrics publishes every server counter through the telemetry
// registry. All scalar families are callback instruments reading the
// same fields that back /v1/stats — the two surfaces are one set of
// counters viewed two ways, so they can never disagree. Callbacks
// take s.mu at scrape time; that is safe against the serving path
// because the exposition renderer never holds the registry lock while
// invoking them (see telemetry.Registry.WritePrometheus).
func (s *Server) registerMetrics() {
	r := s.reg
	// locked adapts a counter read into a scrape callback.
	locked := func(read func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return read()
		}
	}

	// Job flow.
	r.CounterFunc("qgear_jobs_submitted_total", "Jobs accepted by Submit.", nil,
		locked(func() float64 { return float64(s.stats.Submitted) }))
	r.CounterFunc("qgear_jobs_completed_total", "Jobs finished successfully.", nil,
		locked(func() float64 { return float64(s.stats.Completed) }))
	r.CounterFunc("qgear_jobs_failed_total", "Jobs finished with an error.", nil,
		locked(func() float64 { return float64(s.stats.Failed) }))
	r.CounterFunc("qgear_jobs_executed_total", "Jobs that reached a fresh execution (not served by cache, single-flight, or store).", nil,
		locked(func() float64 { return float64(s.stats.Executed) }))
	for k := range kinds {
		spec := &kinds[k]
		if spec.jobsHelp != "" {
			r.CounterFunc("qgear_"+spec.stem+"_jobs_total", spec.jobsHelp, nil,
				locked(func() float64 { jobs, _ := spec.counters(&s.stats); return float64(*jobs) }))
		}
		if spec.executedHelp != "" {
			r.CounterFunc("qgear_"+spec.stem+"_executed_total", spec.executedHelp, nil,
				locked(func() float64 { _, executed := spec.counters(&s.stats); return float64(*executed) }))
		}
	}
	r.CounterFunc("qgear_sweep_points_total", "Sweep points freshly executed (rebind + run).", nil,
		locked(func() float64 { return float64(s.stats.SweepPointsRun) }))
	r.CounterFunc("qgear_plan_rebinds_total", "Structural plan-cache hits served by rebinding a cached skeleton.", nil,
		locked(func() float64 { return float64(s.stats.PlanRebinds) }))
	r.CounterFunc("qgear_singleflight_hits_total", "Submissions attached to an identical in-flight job.", nil,
		locked(func() float64 { return float64(s.stats.SingleFlightHits) }))
	r.CounterFunc("qgear_batches_total", "Coalesced batches executed.", nil,
		locked(func() float64 { return float64(s.stats.Batches) }))
	r.CounterFunc("qgear_batched_jobs_total", "Jobs executed through coalesced batches.", nil,
		locked(func() float64 { return float64(s.stats.BatchedJobs) }))

	// Resilience: panic isolation, admission rejections, cancellation.
	r.CounterFunc("qgear_panics_recovered_total", "Execution panics recovered at the worker boundary (job failed, worker survived).", nil,
		locked(func() float64 { return float64(s.stats.PanicsRecovered) }))
	r.CounterFunc("qgear_jobs_rejected_total", "Submissions rejected, labeled by reason.", telemetry.Labels{"reason": "queue_full"},
		locked(func() float64 { return float64(s.stats.RejectedQueueFull) }))
	r.CounterFunc("qgear_jobs_rejected_total", "Submissions rejected, labeled by reason.", telemetry.Labels{"reason": "too_large"},
		locked(func() float64 { return float64(s.stats.RejectedTooLarge) }))
	r.CounterFunc("qgear_jobs_rejected_total", "Submissions rejected, labeled by reason.", telemetry.Labels{"reason": "invalid"},
		locked(func() float64 { return float64(s.stats.RejectedInvalid) }))
	r.CounterFunc("qgear_jobs_cancelled_total", "Jobs failed on their deadline, labeled by where the budget ran out.", telemetry.Labels{"stage": "queue"},
		locked(func() float64 { return float64(s.stats.CancelledQueue) }))
	r.CounterFunc("qgear_jobs_cancelled_total", "Jobs failed on their deadline, labeled by where the budget ran out.", telemetry.Labels{"stage": "running"},
		locked(func() float64 { return float64(s.stats.CancelledRunning) }))

	// Caches, labeled by which cache.
	result := telemetry.Labels{"cache": "result"}
	plan := telemetry.Labels{"cache": "plan"}
	r.CounterFunc("qgear_cache_hits_total", "Cache hits, labeled by cache (result includes spill-lookaside hits).", result,
		locked(func() float64 { return float64(s.stats.CacheHits) }))
	r.CounterFunc("qgear_cache_hits_total", "Cache hits, labeled by cache (result includes spill-lookaside hits).", plan,
		locked(func() float64 { return float64(s.stats.PlanCacheHits) }))
	r.CounterFunc("qgear_cache_misses_total", "Plan-cache misses (compilations that could not be served from memory).", plan,
		locked(func() float64 { return float64(s.stats.PlanCacheMisses) }))
	r.CounterFunc("qgear_cache_evictions_total", "Entries evicted, labeled by cache.", result,
		locked(func() float64 { return float64(s.cache.Evictions()) }))
	r.CounterFunc("qgear_cache_evictions_total", "Entries evicted, labeled by cache.", plan,
		locked(func() float64 { return float64(s.plans.Evictions()) }))
	r.CounterFunc("qgear_cache_evicted_bytes_total", "Accounted bytes of evicted entries, labeled by cache.", result,
		locked(func() float64 { return float64(s.stats.CacheEvictedBytes) }))
	r.CounterFunc("qgear_cache_evicted_bytes_total", "Accounted bytes of evicted entries, labeled by cache.", plan,
		locked(func() float64 { return float64(s.stats.PlanCacheEvictedBytes) }))
	r.GaugeFunc("qgear_cache_entries", "Resident entries, labeled by cache.", result,
		locked(func() float64 { return float64(s.cache.Len()) }))
	r.GaugeFunc("qgear_cache_entries", "Resident entries, labeled by cache.", plan,
		locked(func() float64 { return float64(s.plans.Len()) }))
	r.GaugeFunc("qgear_cache_bytes", "Resident accounted bytes, labeled by cache.", result,
		locked(func() float64 { return float64(s.cache.Bytes()) }))
	r.GaugeFunc("qgear_cache_bytes", "Resident accounted bytes, labeled by cache.", plan,
		locked(func() float64 { return float64(s.plans.Bytes()) }))
	r.GaugeFunc("qgear_cache_max_bytes", "Configured byte bound (0 = unbounded), labeled by cache.", result,
		func() float64 { return float64(s.cfg.MaxCacheBytes) })
	r.GaugeFunc("qgear_cache_max_bytes", "Configured byte bound (0 = unbounded), labeled by cache.", plan,
		func() float64 { return float64(s.cfg.MaxPlanCacheBytes) })

	// Persistent store. onDisk adapts a read of the store's own stats
	// (zero without a store) into a scrape callback.
	onDisk := func(read func(store.Stats) float64) func() float64 {
		return func() float64 {
			if s.store == nil {
				return 0
			}
			return read(s.store.Stats())
		}
	}
	r.CounterFunc("qgear_store_hits_total", "Persistent-store hits, labeled by artifact kind.", telemetry.Labels{"kind": "result"},
		locked(func() float64 { return float64(s.stats.StoreHits) }))
	r.CounterFunc("qgear_store_hits_total", "Persistent-store hits, labeled by artifact kind.", telemetry.Labels{"kind": "plan"},
		locked(func() float64 { return float64(s.stats.StorePlanHits) }))
	r.CounterFunc("qgear_store_misses_total", "Result-cache misses the store could not answer either.", nil,
		locked(func() float64 { return float64(s.stats.StoreMisses) }))
	r.CounterFunc("qgear_store_spills_total", "Artifacts written to the persistent store.", nil,
		locked(func() float64 { return float64(s.stats.StoreSpills) }))
	r.CounterFunc("qgear_store_spill_drops_total", "Eviction spills shed under backlog pressure.", nil,
		locked(func() float64 { return float64(s.stats.StoreSpillDrops) }))
	r.CounterFunc("qgear_store_errors_total", "Store loads or writes that failed (I/O or integrity).", nil,
		locked(func() float64 { return float64(s.stats.StoreErrors) }))
	r.CounterFunc("qgear_store_quarantines_total", "Provably corrupt store files dropped.", nil,
		locked(func() float64 { return float64(s.stats.StoreQuarantines) }))
	r.GaugeFunc("qgear_store_bytes", "Bytes resident in the persistent store.", nil,
		onDisk(func(ss store.Stats) float64 { return float64(ss.Bytes) }))
	r.GaugeFunc("qgear_store_entries", "Persistent-store entries, labeled by artifact kind.", telemetry.Labels{"kind": "result"},
		onDisk(func(ss store.Stats) float64 { return float64(ss.ResultEntries) }))
	r.GaugeFunc("qgear_store_entries", "Persistent-store entries, labeled by artifact kind.", telemetry.Labels{"kind": "plan"},
		onDisk(func(ss store.Stats) float64 { return float64(ss.PlanEntries) }))
	r.GaugeFunc("qgear_store_max_bytes", "Configured on-disk store budget (0 = unbounded).", nil,
		func() float64 { return float64(s.cfg.MaxStoreBytes) })
	r.CounterFunc("qgear_store_gc_total", "Artifacts evicted from disk by the store byte-budget GC.", nil,
		onDisk(func(ss store.Stats) float64 { return float64(ss.GCEvictions) }))
	r.CounterFunc("qgear_store_gc_bytes_total", "Bytes reclaimed from disk by the store byte-budget GC.", nil,
		onDisk(func(ss store.Stats) float64 { return float64(ss.GCEvictedBytes) }))
	r.CounterFunc("qgear_store_gc_rejected_total", "Saves refused because the artifact could not fit under the store budget.", nil,
		onDisk(func(ss store.Stats) float64 { return float64(ss.GCRejected) }))
	r.CounterFunc("qgear_store_admission_skips_total", "Results not persisted because recomputing them is cheaper than a median store load.", nil,
		locked(func() float64 { return float64(s.stats.StoreAdmissionSkips) }))
	// Store-load latency: the measured half of the admission rule.
	s.storeLoad = r.Histogram("qgear_store_load_seconds",
		"Latency of successful result loads from the persistent store.", nil)

	// Distributed-execution communication (nvidia-mgpu).
	r.CounterFunc("qgear_mgpu_exchanges_total", "Pairwise buffer exchanges across completed distributed executions.", nil,
		locked(func() float64 { return float64(s.stats.MgpuExchanges) }))
	r.CounterFunc("qgear_mgpu_bytes_sent_total", "Bytes moved by distributed buffer exchanges.", nil,
		locked(func() float64 { return float64(s.stats.MgpuBytesSent) }))

	// The slab free list (states, mgpu exchange buffers): process-wide,
	// so not in /v1/stats.
	r.CounterFunc("qgear_state_pool_hits_total", "Slab takes (states, exchange buffers) served from a recycled slab.", nil,
		func() float64 { return float64(statevec.SlabStats().Hits) })
	r.CounterFunc("qgear_state_pool_misses_total", "Slab takes (states, exchange buffers) that had to allocate.", nil,
		func() float64 { return float64(statevec.SlabStats().Misses) })
	r.GaugeFunc("qgear_state_pool_retained_bytes", "Bytes of released slabs (states, exchange buffers) held for reuse (dropped after two idle GC cycles).", nil,
		func() float64 { return float64(statevec.SlabStats().RetainedBytes) })

	// Queue and worker pool.
	r.GaugeFunc("qgear_queue_depth", "Jobs waiting in the bounded queue.", nil,
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("qgear_queue_capacity", "Configured queue bound.", nil,
		func() float64 { return float64(s.cfg.QueueSize) })
	r.GaugeFunc("qgear_workers", "Configured worker-pool size.", nil,
		func() float64 { return float64(s.cfg.WorkerPool) })
	r.GaugeFunc("qgear_workers_busy", "Workers currently executing a batch.", nil,
		func() float64 { return float64(s.busy.Load()) })
	r.GaugeFunc("qgear_uptime_seconds", "Seconds since the server started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("qgear_build_info", "Serving-layer version as a label; value is always 1.", telemetry.Labels{"version": Version},
		func() float64 { return 1 })

	// Stage-latency histograms, resolved once so the per-span hot path
	// (observeStages runs for every span of every job) indexes a
	// read-only map instead of building a label map and taking the
	// registry lock. Pre-registering also makes every stage series
	// visible on /metrics from the first scrape.
	s.stageLatency = make(map[string]*telemetry.Histogram)
	for _, stage := range telemetry.Stages() {
		s.stageLatency[stage] = r.Histogram("qgear_stage_duration_seconds",
			"Pipeline stage latency, labeled by stage.",
			telemetry.Labels{"stage": stage})
	}

	r.RegisterRuntime()
}
