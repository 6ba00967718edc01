package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"qgear/internal/telemetry"
)

// BoundsUS is a latency histogram's bucket upper bounds in
// microseconds. The final bound is +Inf — the overflow bucket counts
// everything past the largest finite bound. JSON has no Inf literal,
// so the infinite bound marshals as the string "+Inf"; unmarshalling
// accepts that string and plain numbers.
type BoundsUS []float64

// MarshalJSON renders finite bounds as numbers and the +Inf overflow
// bound as the string "+Inf".
func (b BoundsUS) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, v := range b {
		if i > 0 {
			buf.WriteByte(',')
		}
		if math.IsInf(v, 1) {
			buf.WriteString(`"+Inf"`)
		} else {
			buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	buf.WriteByte(']')
	return buf.Bytes(), nil
}

// UnmarshalJSON accepts numbers and the "+Inf" string.
func (b *BoundsUS) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(BoundsUS, len(raw))
	for i, r := range raw {
		var s string
		if err := json.Unmarshal(r, &s); err == nil {
			if s == "+Inf" || s == "Inf" {
				out[i] = math.Inf(1)
				continue
			}
			v, perr := strconv.ParseFloat(s, 64)
			if perr != nil {
				return fmt.Errorf("service: bad histogram bound %q", s)
			}
			out[i] = v
			continue
		}
		if err := json.Unmarshal(r, &out[i]); err != nil {
			return err
		}
	}
	*b = out
	return nil
}

// HistogramSnapshot is the JSON-friendly view of one latency histogram:
// bucket i counts observations with latency ≤ UpperBoundsUS[i]
// (non-cumulative counts with Prometheus-style le bounds; the final
// bound is +Inf). The same instruments back the Prometheus exposition,
// so the two surfaces can never disagree.
type HistogramSnapshot struct {
	UpperBoundsUS BoundsUS `json:"upper_bounds_us"`
	Counts        []uint64 `json:"counts"`
	Count         uint64   `json:"count"`
	MeanUS        float64  `json:"mean_us"`
}

func snapshotHistogram(h *telemetry.Histogram) HistogramSnapshot {
	d := h.Snapshot()
	return HistogramSnapshot{
		UpperBoundsUS: BoundsUS(telemetry.BucketUpperBoundsUS()),
		Counts:        append([]uint64(nil), d.Counts[:]...),
		Count:         d.N,
		MeanUS:        d.Mean(),
	}
}

// Stats is a point-in-time snapshot of the server's counters. Counter
// fields are cumulative since server start, so clients can compute
// windowed rates (e.g. the hit rate of one load wave) by differencing
// two snapshots.
type Stats struct {
	// Queue and pool state.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Workers       int `json:"workers"`
	// WorkersBusy is how many pool workers are executing a batch right
	// now (the utilization numerator for Workers).
	WorkersBusy int `json:"workers_busy"`

	// Job counters.
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`

	// Resilience counters: execution panics recovered at the worker
	// boundary, submissions rejected at admission (by reason — the
	// labels of qgear_jobs_rejected_total), and jobs failed on their
	// deadline (by where the budget ran out — the labels of
	// qgear_jobs_cancelled_total).
	PanicsRecovered   uint64 `json:"panics_recovered"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedTooLarge  uint64 `json:"rejected_too_large"`
	RejectedInvalid   uint64 `json:"rejected_invalid"`
	CancelledQueue    uint64 `json:"cancelled_queue"`
	CancelledRunning  uint64 `json:"cancelled_running"`

	// Content-address counters. A submission is served without
	// re-simulation when it hits the result cache, joins an identical
	// in-flight job (single-flight), or loads from the persistent
	// store; HitRate counts all three.
	CacheHits        uint64  `json:"cache_hits"`
	SingleFlightHits uint64  `json:"single_flight_hits"`
	Executed         uint64  `json:"executed"`
	HitRate          float64 `json:"hit_rate"`

	// Expectation-value jobs (kind "expectation"): submissions carrying
	// a Hamiltonian, and how many of them reached a fresh evaluation
	// (the remainder were cache/single-flight/store hits). Their
	// end-to-end latency is tracked under the "expectation" key of
	// Latency.
	ExpectationJobs     uint64 `json:"expectation_jobs"`
	ExpectationExecuted uint64 `json:"expectation_executed"`

	// Sweep jobs (kind "sweep"): one parameterized circuit evaluated at
	// many points under one job. SweepPointsRun counts points freshly
	// executed (the qgear_sweep_points_total metric); gradient jobs are
	// the derived parameter-shift variant (kind "gradient").
	// PlanRebinds counts structural plan-cache hits that were served by
	// rebinding a cached skeleton to the submission's own parameter
	// values instead of compiling — together with PlanCacheMisses it
	// proves the compile-once property (a 1k-point sweep shows 1 miss).
	SweepJobs        uint64 `json:"sweep_jobs"`
	SweepExecuted    uint64 `json:"sweep_executed"`
	SweepPointsRun   uint64 `json:"sweep_points_run"`
	GradientJobs     uint64 `json:"gradient_jobs"`
	GradientExecuted uint64 `json:"gradient_executed"`
	PlanRebinds      uint64 `json:"plan_rebinds"`

	// Cache occupancy. Entries are byte-accounted: CacheBytes is the
	// resident size charged against CacheMaxBytes (0 = unbounded), and
	// evictions are cost-per-byte-aware, not pure recency.
	// CacheEvictedBytes is the cumulative accounted size of evicted
	// entries (the churn the byte bound forced).
	CacheLen          int    `json:"cache_len"`
	CacheCapacity     int    `json:"cache_capacity"`
	CacheBytes        int64  `json:"cache_bytes"`
	CacheMaxBytes     int64  `json:"cache_max_bytes"`
	CacheEvictions    uint64 `json:"cache_evictions"`
	CacheEvictedBytes int64  `json:"cache_evicted_bytes"`

	// Compiled-plan cache: executions that reused a cached TilePlan
	// (skipping circuit→kernel transformation and plan compilation)
	// versus ones that had to compile.
	PlanCacheHits         uint64 `json:"plan_cache_hits"`
	PlanCacheMisses       uint64 `json:"plan_cache_misses"`
	PlanCacheLen          int    `json:"plan_cache_len"`
	PlanCacheBytes        int64  `json:"plan_cache_bytes"`
	PlanCacheMaxBytes     int64  `json:"plan_cache_max_bytes"`
	PlanCacheEvictions    uint64 `json:"plan_cache_evictions"`
	PlanCacheEvictedBytes int64  `json:"plan_cache_evicted_bytes"`

	// Persistent result store (zero-valued unless StoreDir is
	// configured; it holds results only, never compiled plans).
	// StoreHits are submissions answered from disk without simulating;
	// StoreMisses are result-cache misses the store could not answer
	// either. StoreSpills counts results written (evictions and
	// shutdown), StoreSpillDrops eviction-spills shed under backlog,
	// StoreErrors files rejected by integrity checks or failed writes,
	// and StoreQuarantines the subset of errors where a provably
	// corrupt file was dropped from the store.
	StoreDir           string `json:"store_dir,omitempty"`
	StoreHits          uint64 `json:"store_hits"`
	StoreMisses        uint64 `json:"store_misses"`
	StoreSpills        uint64 `json:"store_spills"`
	StoreSpillDrops    uint64 `json:"store_spill_drops"`
	StoreErrors        uint64 `json:"store_errors"`
	StoreQuarantines   uint64 `json:"store_quarantines"`
	StoreResultEntries int    `json:"store_result_entries"`
	StoreBytes         int64  `json:"store_bytes"`
	// On-disk GC (zero-valued unless MaxStoreBytes is set):
	// StoreGCEvictions/StoreGCEvictedBytes count artifacts deleted by
	// the budget enforcer, StoreGCRejected saves refused for lack of
	// room, and StoreAdmissionSkips results not persisted because
	// their modeled recompute cost was below the measured median
	// store-load latency. StoreManifestRecords/StoreManifestCompactions
	// describe the boot manifest journal; StoreBootScanned reports
	// whether the last Open fell back to a full directory scan.
	StoreMaxBytes            int64  `json:"store_max_bytes"`
	StoreGCEvictions         uint64 `json:"store_gc_evictions"`
	StoreGCEvictedBytes      int64  `json:"store_gc_evicted_bytes"`
	StoreGCRejected          uint64 `json:"store_gc_rejected"`
	StoreAdmissionSkips      uint64 `json:"store_admission_skips"`
	StoreManifestRecords     uint64 `json:"store_manifest_records"`
	StoreManifestCompactions uint64 `json:"store_manifest_compactions"`
	StoreBootScanned         bool   `json:"store_boot_scanned"`

	// Batch coalescing.
	Batches      uint64  `json:"batches"`
	BatchedJobs  uint64  `json:"batched_jobs"`
	MeanBatchLen float64 `json:"mean_batch_len"`

	// Distributed-execution communication, summed over completed mgpu
	// executions (zero on other targets).
	MgpuExchanges uint64 `json:"mgpu_exchanges"`
	MgpuBytesSent int64  `json:"mgpu_bytes_sent"`

	// Per-target end-to-end job latency (submit -> done), keyed by
	// execution target, plus the synthetic "cache", "store", and
	// "expectation" paths. The same instruments feed the
	// qgear_job_duration_seconds Prometheus family.
	Latency map[string]HistogramSnapshot `json:"latency"`

	UptimeSeconds float64 `json:"uptime_seconds"`
}
