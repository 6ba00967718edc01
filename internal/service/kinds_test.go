package service

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qgear/internal/observable"
)

// The kind table's contract, checked by ranging over the table itself:
// a fifth entry is covered the moment it is added (and fails here until
// it has a conformance request).

// statsDoc fetches /v1/stats as a generic document, so the test reads
// the wire field names rather than the Go struct's.
func statsDoc(t *testing.T, base string) (counters map[string]float64, latency map[string]float64) {
	t.Helper()
	var raw map[string]json.RawMessage
	getJSON(t, base+"/v1/stats", &raw)
	counters = make(map[string]float64, len(raw))
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			counters[k] = f
		}
	}
	var lat map[string]HistogramSnapshot
	if err := json.Unmarshal(raw["latency"], &lat); err != nil {
		t.Fatal(err)
	}
	latency = make(map[string]float64, len(lat))
	for k, h := range lat {
		latency[k] = float64(h.Count)
	}
	return counters, latency
}

// TestKindConformance drives every entry of the kinds table through the
// HTTP surface: submit with the explicit kind, fetch the result,
// resubmit identically for a cache hit, and check that exactly the
// documented counters, latency keys and metric families moved.
func TestKindConformance(t *testing.T) {
	s, ts := newHTTPServer(t, Config{})
	target := string(s.Config().Target)
	c := sweepAnsatz(4)
	wire, ham := FromCircuit(c), FromHamiltonian(observable.TransverseFieldIsing(4, 1, 0.7))
	requests := map[string]SubmitRequest{
		"simulate":    {Circuit: wire, Shots: 32, Seed: 3},
		"expectation": {Circuit: wire, Hamiltonian: ham},
		"sweep":       {Circuit: wire, Hamiltonian: ham, Points: angleGrid(c.NumParams(), 3)},
		"gradient":    {Circuit: wire, Hamiltonian: ham},
	}
	for k := range kinds {
		spec := kinds[k]
		t.Run(spec.name, func(t *testing.T) {
			req, ok := requests[spec.name]
			if !ok {
				t.Fatalf("kind %q has no conformance request; add one above", spec.name)
			}
			req.Kind = spec.name
			before, latBefore := statsDoc(t, ts.URL)

			info, code := postJob(t, ts.URL, req)
			if code != 202 {
				t.Fatalf("submit: HTTP %d", code)
			}
			if done := pollDone(t, ts.URL, info.ID); done.State != StateDone || done.Cached {
				t.Fatalf("first submission: %+v", done)
			}
			var res ResultResponse
			getJSON(t, ts.URL+"/v1/results/"+info.ID, &res)
			if res.State != StateDone || res.Target != target || res.NumQubits != 4 {
				t.Fatalf("result: %+v", res)
			}
			again, code := postJob(t, ts.URL, req)
			if code != 202 || again.State != StateDone || !again.Cached {
				t.Fatalf("identical resubmission not a cache hit: HTTP %d, %+v", code, again)
			}

			after, latAfter := statsDoc(t, ts.URL)
			moved := func(m, m0 map[string]float64, key string, want float64) {
				t.Helper()
				if _, ok := m[key]; !ok {
					t.Errorf("%q missing", key)
				} else if got := m[key] - m0[key]; got != want {
					t.Errorf("%q moved by %v, want %v", key, got, want)
				}
			}
			moved(after, before, "submitted", 2)
			moved(after, before, "executed", 1)
			moved(after, before, "cache_hits", 1)
			latKey := target
			if spec.stem != "" {
				latKey = spec.stem
				moved(after, before, spec.stem+"_jobs", 2)
				moved(after, before, spec.stem+"_executed", 1)
			}
			moved(latAfter, latBefore, latKey, 1)
			moved(latAfter, latBefore, "cache", 1)
			// No other kind's counters or latency key moved.
			for o := range kinds {
				if other := kinds[o].stem; other != "" && other != spec.stem {
					moved(after, before, other+"_jobs", 0)
					moved(after, before, other+"_executed", 0)
					if _, seen := latBefore[other]; seen {
						moved(latAfter, latBefore, other, 0)
					}
				}
			}
			// The exported families read the same counters.
			metrics := fetchText(t, ts.URL+"/metrics")
			for _, fam := range []struct{ suffix, help string }{
				{"_jobs", spec.jobsHelp},
				{"_executed", spec.executedHelp},
			} {
				family := "qgear_" + spec.stem + fam.suffix + "_total"
				v, exported := metricValue(metrics, family)
				if exported != (fam.help != "") {
					t.Errorf("%s exported = %v, table says %v", family, exported, fam.help != "")
				} else if exported && v != after[spec.stem+fam.suffix] {
					t.Errorf("%s = %v, /v1/stats %s = %v", family, v, spec.stem+fam.suffix, after[spec.stem+fam.suffix])
				}
			}
		})
	}
}

// TestStatsSurfaceGolden pins the observable names captured before the
// kind table existed: the /v1/stats key set, the latency-map keys after
// one job of every kind plus a cache hit, and every qgear_* metric
// family with its HELP text. Dashboards and clients key on these.
func TestStatsSurfaceGolden(t *testing.T) {
	s, ts := newHTTPServer(t, Config{})
	c := sweepAnsatz(4)
	h := observable.TransverseFieldIsing(4, 1, 0.7)
	for _, o := range []SubmitOptions{
		{Shots: 8, Seed: 1},
		{Hamiltonian: h},
		{Hamiltonian: h, SweepPoints: angleGrid(c.NumParams(), 3)},
		{Hamiltonian: h, Gradient: true},
		{Shots: 8, Seed: 1}, // cache hit
	} {
		if _, _, err := s.Run(context.Background(), c, o); err != nil {
			t.Fatal(err)
		}
	}
	var doc map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/stats", &doc)
	if got := sortedKeys(doc); !reflect.DeepEqual(got, goldenStatsKeys) {
		t.Errorf("/v1/stats keys changed:\n got  %q\n want %q", got, goldenStatsKeys)
	}
	var lat map[string]json.RawMessage
	if err := json.Unmarshal(doc["latency"], &lat); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedKeys(lat), []string{"cache", "expectation", "gradient", "nvidia", "sweep"}; !reflect.DeepEqual(got, want) {
		t.Errorf("latency keys = %q, want %q", got, want)
	}
	var help []string
	for _, line := range strings.Split(fetchText(t, ts.URL+"/metrics"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP qgear_"); ok {
			help = append(help, "qgear_"+rest)
		}
	}
	if !reflect.DeepEqual(help, goldenMetricHelp) {
		t.Errorf("/metrics families or HELP text changed:\n got  %s\n want %s",
			fmt.Sprintf("%q", help), fmt.Sprintf("%q", goldenMetricHelp))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var goldenStatsKeys = []string{
	"batched_jobs",
	"batches",
	"cache_bytes",
	"cache_capacity",
	"cache_evicted_bytes",
	"cache_evictions",
	"cache_hits",
	"cache_len",
	"cache_max_bytes",
	"cancelled_queue",
	"cancelled_running",
	"completed",
	"executed",
	"expectation_executed",
	"expectation_jobs",
	"failed",
	"gradient_executed",
	"gradient_jobs",
	"hit_rate",
	"latency",
	"mean_batch_len",
	"mgpu_bytes_sent",
	"mgpu_exchanges",
	"panics_recovered",
	"plan_cache_bytes",
	"plan_cache_evicted_bytes",
	"plan_cache_evictions",
	"plan_cache_hits",
	"plan_cache_len",
	"plan_cache_max_bytes",
	"plan_cache_misses",
	"plan_rebinds",
	"queue_capacity",
	"queue_depth",
	"rejected_invalid",
	"rejected_queue_full",
	"rejected_too_large",
	"single_flight_hits",
	"store_admission_skips",
	"store_boot_scanned",
	"store_bytes",
	"store_errors",
	"store_gc_evicted_bytes",
	"store_gc_evictions",
	"store_gc_rejected",
	"store_hits",
	"store_manifest_compactions",
	"store_manifest_records",
	"store_max_bytes",
	"store_misses",
	"store_plan_entries",
	"store_plan_hits",
	"store_quarantines",
	"store_result_entries",
	"store_spill_drops",
	"store_spills",
	"submitted",
	"sweep_executed",
	"sweep_jobs",
	"sweep_points_run",
	"uptime_seconds",
	"workers",
	"workers_busy",
}

var goldenMetricHelp = []string{
	"qgear_batched_jobs_total Jobs executed through coalesced batches.",
	"qgear_batches_total Coalesced batches executed.",
	"qgear_build_info Serving-layer version as a label; value is always 1.",
	"qgear_cache_bytes Resident accounted bytes, labeled by cache.",
	"qgear_cache_entries Resident entries, labeled by cache.",
	"qgear_cache_evicted_bytes_total Accounted bytes of evicted entries, labeled by cache.",
	"qgear_cache_evictions_total Entries evicted, labeled by cache.",
	"qgear_cache_hits_total Cache hits, labeled by cache (result includes spill-lookaside hits).",
	"qgear_cache_max_bytes Configured byte bound (0 = unbounded), labeled by cache.",
	"qgear_cache_misses_total Plan-cache misses (compilations that could not be served from memory).",
	"qgear_expectation_executed_total Expectation-value jobs freshly evaluated.",
	"qgear_expectation_jobs_total Expectation-value jobs submitted.",
	"qgear_gradient_jobs_total Parameter-shift gradient jobs submitted.",
	"qgear_job_duration_seconds End-to-end job latency (submit to done), labeled by serving path.",
	"qgear_jobs_cancelled_total Jobs failed on their deadline, labeled by where the budget ran out.",
	"qgear_jobs_completed_total Jobs finished successfully.",
	"qgear_jobs_executed_total Jobs that reached a fresh execution (not served by cache, single-flight, or store).",
	"qgear_jobs_failed_total Jobs finished with an error.",
	"qgear_jobs_rejected_total Submissions rejected, labeled by reason.",
	"qgear_jobs_submitted_total Jobs accepted by Submit.",
	"qgear_mgpu_bytes_sent_total Bytes moved by distributed buffer exchanges.",
	"qgear_mgpu_exchanges_total Pairwise buffer exchanges across completed distributed executions.",
	"qgear_panics_recovered_total Execution panics recovered at the worker boundary (job failed, worker survived).",
	"qgear_plan_rebinds_total Structural plan-cache hits served by rebinding a cached skeleton.",
	"qgear_queue_capacity Configured queue bound.",
	"qgear_queue_depth Jobs waiting in the bounded queue.",
	"qgear_singleflight_hits_total Submissions attached to an identical in-flight job.",
	"qgear_stage_duration_seconds Pipeline stage latency, labeled by stage.",
	"qgear_state_pool_hits_total Statevectors served from a recycled slab.",
	"qgear_state_pool_misses_total Statevectors that had to allocate their slab.",
	"qgear_state_pool_retained_bytes Bytes of released statevector slabs held for reuse (dropped after two idle GC cycles).",
	"qgear_store_admission_skips_total Results not persisted because recomputing them is cheaper than a median store load.",
	"qgear_store_bytes Bytes resident in the persistent store.",
	"qgear_store_entries Persistent-store entries, labeled by artifact kind.",
	"qgear_store_errors_total Store loads or writes that failed (I/O or integrity).",
	"qgear_store_gc_bytes_total Bytes reclaimed from disk by the store byte-budget GC.",
	"qgear_store_gc_rejected_total Saves refused because the artifact could not fit under the store budget.",
	"qgear_store_gc_total Artifacts evicted from disk by the store byte-budget GC.",
	"qgear_store_hits_total Persistent-store hits, labeled by artifact kind.",
	"qgear_store_load_seconds Latency of successful result loads from the persistent store.",
	"qgear_store_max_bytes Configured on-disk store budget (0 = unbounded).",
	"qgear_store_misses_total Result-cache misses the store could not answer either.",
	"qgear_store_quarantines_total Provably corrupt store files dropped.",
	"qgear_store_spill_drops_total Eviction spills shed under backlog pressure.",
	"qgear_store_spills_total Artifacts written to the persistent store.",
	"qgear_sweep_executed_total Sweep jobs freshly executed.",
	"qgear_sweep_jobs_total Sweep jobs submitted.",
	"qgear_sweep_points_total Sweep points freshly executed (rebind + run).",
	"qgear_uptime_seconds Seconds since the server started.",
	"qgear_workers Configured worker-pool size.",
	"qgear_workers_busy Workers currently executing a batch.",
}
