package main

// The benchmark's names. BENCHMARK.json at the repository root lists
// the same workloads and metrics (a test holds the two equal);
// every later performance or simplicity change is judged on them, so a
// name is never reused for a different measurement.

// metricSpec is one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
}

// workloadSpec names a workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"qft_exec", "backend.Run of a QFT on a basis state: statevec execute and readout are most of the op, nothing from service, store, mgpu or observable"},
	{"tfim_expect", "backend.RunExpectation of TFIM on a QFT state: the Pauli evaluator is most of the op, so a kernel-only change should barely move it"},
	{"qcrank_mgpu", "backend.Run of a QCrank image encoding on two mgpu ranks with decode: the only workload where mgpu/mpi run and where sampling is a visible share"},
	{"serve_mix", "closed-loop HTTP clients against an in-process server over 12-qubit jobs of all four kinds: JSON, HTTP, queue, batching and caches are the cost"},
	{"store_cycle", "save, mixed save/load and reopen+load phases on a fresh store directory: the only workload that touches disk"},
}

// endToEndSpecs are the metrics with a bound: what a user of the system
// sees and what repeats closely enough between runs of one commit to
// hold it. They come only from untraced runs.
//
// The wall-clock timings of the ops are not among them. The reference
// host slows to about half speed in bursts and shares its L3 with other
// tenants; op_p50_s and ops_per_s of one commit differ by 15 to 70 %
// between back-to-back runs under every estimator tried (README.md,
// "Why the timings are not gated"), which no bound of at most 0.25
// holds. By the rule that a metric which cannot hold its bound moves to
// the per-layer list, they are the first of perLayerSpecs. setup_s is a
// wall-clock time too; the benchmark contract wants it here, so it
// takes the largest bound and the fastest of several set-ups, and
// --compare, which sees one pair of runs, only advises on it.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mib_per_op", "MiB", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.10},
}

// exactCounters repeat exactly between two runs of one commit on one
// host; -compare reports a mismatch as non-determinism in the
// benchmark, not as a regression.
var exactCounters = []string{
	"kernel.plan_runs", "kernel.plan_global_gates", "kernel.plan_bit_swaps",
	"kernel.plan_exchange_segments", "kernel.plan_exchange_gates", "kernel.plan_fused_ops",
	"mgpu.exchanges", "mgpu.bytes_sent", "observable.visited_indices",
	"service.executed", "service.plan_rebinds", "store.manifest_records",
}

// perLayerSpecs come from the traced run. A layer that does not run on
// a workload reports 0 there.
var perLayerSpecs = []metricSpec{
	// The timings of the ops, from the traced run's untraced rounds, with
	// the sample count that says whether op_p90_s is supported (it is 0
	// when fewer than ten samples lie beyond it), and the share of ops
	// that failed.
	{Name: "op_p50_s", Unit: "s", Better: "lower"},
	{Name: "op_p90_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_samples", Unit: "count", Better: "higher"},
	{Name: "fail_share", Unit: "ratio", Better: "lower"},

	{Name: "kernel.transform_s", Unit: "s", Better: "lower"},
	{Name: "kernel.plan_s", Unit: "s", Better: "lower"},
	{Name: "backend.compile_s", Unit: "s", Better: "lower"},
	{Name: "kernel.plan_runs", Unit: "count", Better: "lower"},
	{Name: "kernel.plan_global_gates", Unit: "count", Better: "lower"},
	{Name: "kernel.plan_bit_swaps", Unit: "count", Better: "lower"},
	{Name: "kernel.plan_exchange_segments", Unit: "count", Better: "lower"},
	{Name: "kernel.plan_exchange_gates", Unit: "count", Better: "lower"},
	{Name: "kernel.plan_fused_ops", Unit: "count", Better: "higher"},
	{Name: "statevec.passes_computed", Unit: "count", Better: "lower"},
	{Name: "statevec.bytes_swept_computed", Unit: "B", Better: "lower"},
	{Name: "statevec.alloc_s", Unit: "s", Better: "lower"},
	{Name: "statevec.execute_s", Unit: "s", Better: "lower"},
	{Name: "statevec.readout_s", Unit: "s", Better: "lower"},
	{Name: "statevec.execute_gbps_computed", Unit: "GB/s", Better: "higher"},
	{Name: "host.triad_gbps_state_sized", Unit: "GB/s", Better: "higher"},
	{Name: "statevec.execute_roofline_share", Unit: "ratio", Better: "higher"},
	{Name: "statevec.scaling_speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "statevec.scaling_speedup_w3", Unit: "ratio", Better: "higher"},
	{Name: "statevec.scaling_speedup_w4", Unit: "ratio", Better: "higher"},
	{Name: "backend.aer_baseline_s", Unit: "s", Better: "lower"},
	{Name: "backend.speedup_vs_aer", Unit: "ratio", Better: "higher"},

	{Name: "observable.expectation_s", Unit: "s", Better: "lower"},
	{Name: "observable.visited_indices", Unit: "count", Better: "lower"},
	{Name: "observable.ns_per_visited_index", Unit: "ns", Better: "lower"},
	{Name: "observable.terms", Unit: "count", Better: "lower"},

	{Name: "mgpu.simulate_s", Unit: "s", Better: "lower"},
	{Name: "mgpu.exchange_wait_s", Unit: "s", Better: "lower"},
	{Name: "mgpu.exchanges", Unit: "count", Better: "lower"},
	{Name: "mgpu.bytes_sent", Unit: "B", Better: "lower"},
	{Name: "mgpu.avoided_exchanges", Unit: "count", Better: "higher"},
	{Name: "mgpu.vs_single_device_ratio", Unit: "ratio", Better: "lower"},

	{Name: "sampling.sample_s", Unit: "s", Better: "lower"},
	{Name: "sampling.shots_per_s", Unit: "1/s", Better: "higher"},
	{Name: "qcrank.decode_s", Unit: "s", Better: "lower"},
	{Name: "qcrank.reco_correlation", Unit: "ratio", Better: "higher"},
	{Name: "qcrank.reco_max_abs_err_probs", Unit: "abs", Better: "lower"},

	{Name: "service.submit_rtt_s", Unit: "s", Better: "lower"},
	{Name: "service.wait_rtt_s", Unit: "s", Better: "lower"},
	{Name: "service.result_fetch_s", Unit: "s", Better: "lower"},
	{Name: "service.request_bytes", Unit: "B", Better: "lower"},
	{Name: "service.response_bytes", Unit: "B", Better: "lower"},
	{Name: "service.stage_queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "service.stage_plan_cache_s", Unit: "s", Better: "lower"},
	{Name: "service.stage_compile_s", Unit: "s", Better: "lower"},
	{Name: "service.stage_rebind_s", Unit: "s", Better: "lower"},
	{Name: "service.stage_execute_s", Unit: "s", Better: "lower"},
	{Name: "service.stage_readout_s", Unit: "s", Better: "lower"},
	{Name: "service.stage_sample_s", Unit: "s", Better: "lower"},
	{Name: "service.stage_expectation_reduce_s", Unit: "s", Better: "lower"},
	{Name: "service.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "service.simulate_p50_s", Unit: "s", Better: "lower"},
	{Name: "service.expectation_p50_s", Unit: "s", Better: "lower"},
	{Name: "service.sweep_p50_s", Unit: "s", Better: "lower"},
	{Name: "service.gradient_p50_s", Unit: "s", Better: "lower"},
	{Name: "service.op_p99_s", Unit: "s", Better: "lower"},
	{Name: "service.result_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "service.plan_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "service.plan_rebinds", Unit: "count", Better: "higher"},
	{Name: "service.executed", Unit: "count", Better: "lower"},
	{Name: "service.mean_batch_size", Unit: "count", Better: "higher"},
	{Name: "service.shed_429", Unit: "count", Better: "lower"},
	{Name: "service.singleflight_hits", Unit: "count", Better: "higher"},

	{Name: "store.save_p50_s", Unit: "s", Better: "lower"},
	{Name: "store.save_p90_s", Unit: "s", Better: "lower"},
	{Name: "store.load_p50_s", Unit: "s", Better: "lower"},
	{Name: "store.load_p90_s", Unit: "s", Better: "lower"},
	{Name: "store.open_s", Unit: "s", Better: "lower"},
	{Name: "store.bytes_raw", Unit: "B", Better: "lower"},
	{Name: "store.bytes_on_disk", Unit: "B", Better: "lower"},
	{Name: "store.compress_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.save_mib_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "store.load_mib_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "store.manifest_records", Unit: "count", Better: "lower"},
	{Name: "store.boot_scanned", Unit: "count", Better: "lower"},

	{Name: "circuit.fingerprint_s", Unit: "s", Better: "lower"},
	{Name: "core.cache_key_s", Unit: "s", Better: "lower"},

	{Name: "host.peak_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.dominant_layer_share", Unit: "ratio", Better: "higher"},
}
