package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
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
// HTTP surface: submit with the explicit kind, fetch the result and hold
// it to the kind's own checks (⟨H⟩ bit-equal to backend.RunExpectation;
// a sweep's truncated, widened and full views; a gradient's length),
// resubmit identically for a cache hit that carries the first answer
// bit for bit, check that exactly the documented counters, latency keys
// and metric families moved, and submit a variant differing in one
// input the kind's content address must cover, which must not hit.
func TestKindConformance(t *testing.T) {
	s, ts := newHTTPServer(t, Config{})
	target := string(s.Config().Target)
	c := sweepAnsatz(4)
	h := observable.TransverseFieldIsing(4, 1, 0.7)
	wire, ham := FromCircuit(c), FromHamiltonian(h)
	const points = 40
	requests := map[string]SubmitRequest{
		"simulate":    {Circuit: wire, Shots: 32, Seed: 3},
		"expectation": {Circuit: wire, Hamiltonian: ham},
		"sweep":       {Circuit: wire, Hamiltonian: ham, Points: angleGrid(c.NumParams(), points)},
		"gradient":    {Circuit: wire, Hamiltonian: ham},
	}
	// variants change one input the kind's content address must cover —
	// shots, observable, points — so each is a fresh job, not a hit.
	tfim2 := FromHamiltonian(observable.TransverseFieldIsing(4, 1, 0.2))
	variants := map[string]SubmitRequest{
		"simulate":    {Circuit: wire, Shots: 33, Seed: 3},
		"expectation": {Circuit: wire, Hamiltonian: tfim2},
		"sweep":       {Circuit: wire, Hamiltonian: ham, Points: angleGrid(c.NumParams(), points+1)[1:]},
		"gradient":    {Circuit: wire, Hamiltonian: tfim2},
	}
	// checks holds what a kind's result document must say beyond the
	// common columns: read at base, the job's default view is res.
	checks := map[string]func(t *testing.T, base, id string, res ResultResponse){
		"expectation": func(t *testing.T, _, _ string, res ResultResponse) {
			if res.ExpValue == nil || res.ExpTerms != len(h.Terms) || len(res.Top) != 0 || len(res.Counts) != 0 {
				t.Fatalf("expectation document: %+v", res)
			}
			ref, err := backend.RunExpectation(c, h, s.execOptions())
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(*res.ExpValue) != math.Float64bits(*ref.ExpValue) {
				t.Errorf("HTTP ⟨H⟩ %.17g, backend.RunExpectation %.17g", *res.ExpValue, *ref.ExpValue)
			}
		},
		"sweep": func(t *testing.T, base, id string, res ResultResponse) {
			// The default view truncates to 16 values; ?top=N widens it
			// and ?full=1 lifts it; each view is a prefix of the full one.
			var full, topped ResultResponse
			getJSON(t, base+"/v1/results/"+id+"?full=1", &full)
			getJSON(t, base+"/v1/results/"+id+"?top=25", &topped)
			for _, v := range []struct {
				doc       ResultResponse
				n         int
				truncated bool
			}{{res, 16, true}, {topped, 25, true}, {full, points, false}} {
				if v.doc.SweepPoints != points || len(v.doc.SweepValues) != v.n || v.doc.Truncated != v.truncated {
					t.Errorf("view of %d points, truncated=%v: sweep_points %d, %d values", v.n, v.truncated, v.doc.SweepPoints, len(v.doc.SweepValues))
				}
				for i := 0; i < min(v.n, len(v.doc.SweepValues)); i++ {
					if math.Float64bits(v.doc.SweepValues[i]) != math.Float64bits(full.SweepValues[i]) {
						t.Fatalf("the %d-value view diverges from the full one at %d", v.n, i)
					}
				}
			}
			if res.Rebinds != points {
				t.Errorf("rebinds = %d, want %d", res.Rebinds, points)
			}
		},
		"gradient": func(t *testing.T, _, _ string, res ResultResponse) {
			ref, err := backend.RunGradient(c, h, c.ParamValues(), s.execOptions())
			if err != nil {
				t.Fatal(err)
			}
			if res.ExpValue == nil || !sameAnswer(&backend.Result{ExpValue: res.ExpValue, Gradient: res.Gradient}, ref) {
				t.Errorf("HTTP gradient %v at ⟨H⟩ %v, backend.RunGradient %v at %.17g", res.Gradient, res.ExpValue, ref.Gradient, *ref.ExpValue)
			}
		},
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
			if check := checks[spec.name]; check != nil {
				check(t, ts.URL, info.ID, res)
			}
			again, code := postJob(t, ts.URL, req)
			if code != 202 || again.State != StateDone || !again.Cached {
				t.Fatalf("identical resubmission not a cache hit: HTTP %d, %+v", code, again)
			}
			first, hit := resultDoc(t, ts.URL, info.ID), resultDoc(t, ts.URL, again.ID)
			delete(first, "cached")
			delete(hit, "cached")
			if !reflect.DeepEqual(first, hit) {
				t.Errorf("the cache hit's document differs from the first answer's")
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
			if spec.name == "sweep" { // the cache hit ran no point
				moved(after, before, "sweep_points_run", points)
			}
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

			variant, ok := variants[spec.name]
			if !ok {
				t.Fatalf("kind %q has no variant request; add one above", spec.name)
			}
			variant.Kind = spec.name
			info, code = postJob(t, ts.URL, variant)
			if code != 202 {
				t.Fatalf("variant submit: HTTP %d", code)
			}
			if done := pollDone(t, ts.URL, info.ID); done.State != StateDone || done.Cached {
				t.Errorf("a job differing in one input was served as the first one's: %+v", done)
			}
		})
	}
}

// kindJob is one submission, as Server.Run takes it.
type kindJob struct {
	c    *circuit.Circuit
	opts SubmitOptions
}

// request is j's POST /v1/jobs envelope as a job of the named kind.
func (j kindJob) request(kind string) SubmitRequest {
	req := SubmitRequest{Kind: kind, Circuit: FromCircuit(j.c), Shots: j.opts.Shots, Seed: j.opts.Seed, Points: j.opts.SweepPoints}
	if j.opts.Hamiltonian != nil {
		req.Hamiltonian = FromHamiltonian(j.opts.Hamiltonian)
	}
	return req
}

// kindJobs is each kind's row of the server-property tables below —
// warm restart, quarantine, single flight: the jobs every property runs
// for that kind. Adding a kind means adding its row.
func kindJobs(t *testing.T) map[string][]kindJob {
	t.Helper()
	ansatz := sweepAnsatz(4)
	tfim, h8 := expTestHamiltonian(4), expTestHamiltonian(8)
	pts := anglesGridOrDie(ansatz, 5)
	circs := storeTestCircuits(5, 8)
	jobs := map[string][]kindJob{
		"simulate": {
			{circs[0], SubmitOptions{Shots: 100, Seed: 9}},
			{testCircuit(t, 12, 30, 1), SubmitOptions{Shots: 100, Seed: 3}},
		},
		"expectation": {
			{circs[0], SubmitOptions{Hamiltonian: h8}},
			{expTestCircuit(1, 12), SubmitOptions{Hamiltonian: expTestHamiltonian(12)}},
		},
		"sweep": {
			{ansatz, SubmitOptions{Hamiltonian: tfim, SweepPoints: pts}},
			{ansatz, SubmitOptions{SweepPoints: pts, Shots: 128, Seed: 7}},
		},
		"gradient": {{ansatz, SubmitOptions{Hamiltonian: tfim, Gradient: true}}},
	}
	for i, c := range circs {
		jobs["simulate"] = append(jobs["simulate"], kindJob{c, SubmitOptions{Shots: 300, Seed: uint64(i)}})
		if i < 4 {
			jobs["expectation"] = append(jobs["expectation"], kindJob{expTestCircuit(i, 8), SubmitOptions{Hamiltonian: h8}})
		}
	}
	for k := range kinds {
		if len(jobs[kinds[k].name]) == 0 {
			t.Fatalf("kind %q has no row in kindJobs; add one", kinds[k].name)
		}
	}
	return jobs
}

// sameAnswer reports whether two results say the same thing bit for
// bit: probabilities, counts, ⟨H⟩, sweep values and histograms, and
// gradient.
func sameAnswer(a, b *backend.Result) bool {
	ev := func(r *backend.Result) []float64 {
		if r.ExpValue == nil {
			return nil
		}
		return []float64{*r.ExpValue}
	}
	return sameBits(a.Probabilities, b.Probabilities) && sameBits(ev(a), ev(b)) && sameBits(a.SweepValues, b.SweepValues) &&
		sameBits(a.Gradient, b.Gradient) && reflect.DeepEqual(a.Counts, b.Counts) && reflect.DeepEqual(a.SweepCounts, b.SweepCounts)
}

// resultDoc is job id's ?full=1 document as raw fields, without those
// that two runs of one answer need not share: the id, the duration and
// the trace. Float fields stay text, so equal documents have equal bits.
func resultDoc(t *testing.T, base, id string) map[string]json.RawMessage {
	t.Helper()
	var doc map[string]json.RawMessage
	getJSON(t, base+"/v1/results/"+id+"?full=1", &doc)
	delete(doc, "id")
	delete(doc, "duration_ms")
	delete(doc, "trace")
	return doc
}

// fetchResult submits req over HTTP, waits for it, and returns its
// resultDoc.
func fetchResult(t *testing.T, base string, req SubmitRequest) map[string]json.RawMessage {
	t.Helper()
	info, code := postJob(t, base, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit %s: HTTP %d", req.Kind, code)
	}
	pollDone(t, base, info.ID)
	return resultDoc(t, base, info.ID)
}

// TestWarmRestartServesFromStore: a server is filled with every kind's
// jobs and closed (spilling to disk); a second server on the same
// directory answers each repeat, as a client sees it (POST, poll, fetch
// ?full=1), from the store: marked cached, no execution, no sweep point
// run. Each answer is held to what a fresh server without a store
// computes for the same job, not to what the first server said: the
// same document, byte for byte, id, duration and trace aside.
func TestWarmRestartServesFromStore(t *testing.T) {
	cfg := Config{StoreDir: t.TempDir(), WorkerPool: 1, MaxBatch: 1, TileBits: 4}
	ctx := context.Background()
	jobs := kindJobs(t)
	s1, err := New(pinHost(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range jobs {
		for _, j := range list {
			if _, _, err := s1.Run(ctx, j.c, j.opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts := newHTTPServer(t, cfg)
	fresh := cfg
	fresh.StoreDir = ""
	_, ref := newHTTPServer(t, fresh)
	var n uint64
	for k := range kinds {
		name := kinds[k].name
		n += uint64(len(jobs[name]))
		t.Run(name, func(t *testing.T) {
			for i, j := range jobs[name] {
				got, want := fetchResult(t, ts.URL, j.request(name)), fetchResult(t, ref.URL, j.request(name))
				if string(got["cached"]) != "true" || string(want["cached"]) != "false" {
					t.Errorf("job %d: cached %s after restart, %s on a fresh server", i, got["cached"], want["cached"])
				}
				delete(got, "cached")
				delete(want, "cached")
				if !reflect.DeepEqual(got, want) {
					t.Errorf("job %d: restarted answer differs from a fresh server's", i)
				}
			}
		})
	}
	if st := s2.Stats(); st.StoreHits != n || st.Executed != 0 || st.SweepPointsRun != 0 || st.HitRate != 1 {
		t.Errorf("after restart: %d store hits of %d jobs, %d executed, %d sweep points run, hit rate %v; want all hits, nothing run",
			st.StoreHits, n, st.Executed, st.SweepPointsRun, st.HitRate)
	}
}

// TestCorruptStoreFallsBack: with bytes flipped in every result file of
// a filled store, a restarted server rejects each one, counts the error,
// drops the file and falls back to a fresh execution whose answer is
// the first server's, bit for bit — for every kind.
func TestCorruptStoreFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StoreDir: dir, WorkerPool: 1, MaxBatch: 1, TileBits: 4}
	ctx := context.Background()
	jobs := kindJobs(t)
	s1, err := New(pinHost(cfg))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]*backend.Result{}
	for name, list := range jobs {
		for _, j := range list {
			res, _, err := s1.Run(ctx, j.c, j.opts)
			if err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], res)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "results", "*", "*.qgr"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spill files found: %v", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := len(raw) / 2; i < min(len(raw)/2+8, len(raw)); i++ {
			raw[i] ^= 0xff
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newTestServer(t, cfg)
	var n uint64
	for k := range kinds {
		name := kinds[k].name
		n += uint64(len(jobs[name]))
		t.Run(name, func(t *testing.T) {
			for i, j := range jobs[name] {
				res, info, err := s2.Run(ctx, j.c, j.opts)
				if err != nil {
					t.Fatalf("job %d: a corrupt store must fall back to execution, got %v", i, err)
				}
				if info.State != StateDone || info.Cached {
					t.Errorf("job %d: %+v, want a fresh execution", i, info)
				}
				if !sameAnswer(res, want[name][i]) {
					t.Errorf("job %d: the fallback's answer differs from the first server's", i)
				}
			}
		})
	}
	if st := s2.Stats(); st.StoreErrors == 0 || st.StoreHits != 0 || st.Executed != n {
		t.Errorf("%d store errors, %d store hits, %d executed; want errors counted, no hit, %d fallback executions", st.StoreErrors, st.StoreHits, st.Executed, n)
	}
	if got, _ := filepath.Glob(filepath.Join(dir, "results", "*", "*.qgr")); len(got) >= len(files) {
		t.Errorf("corrupt files not dropped: %d files, had %d", len(got), len(files))
	}
}

// TestSingleFlight races concurrent submissions of one content address
// for every job of every kind. The leader's execution is held until
// every submission has returned, so all the others meet it in flight:
// exactly one execution runs (and the kind's own executed counter reads
// 1), everyone else joins it or hits the cache, and all read one answer.
func TestSingleFlight(t *testing.T) {
	const n = 32
	jobs := kindJobs(t)
	for k := range kinds {
		spec := &kinds[k]
		t.Run(spec.name, func(t *testing.T) {
			for ji, j := range jobs[spec.name] {
				s, _, release, _ := newHeldServer(t, Config{WorkerPool: 2})
				var wg sync.WaitGroup
				ids := make([]string, n)
				errs := make([]error, n)
				for i := range ids {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						info, err := s.Submit(j.c, j.opts)
						ids[i], errs[i] = info.ID, err
					}(i)
				}
				wg.Wait()
				release()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				for i, id := range ids {
					if errs[i] != nil {
						t.Fatalf("job %d submit %d: %v", ji, i, errs[i])
					}
					if info, err := s.Wait(ctx, id); err != nil || info.State != StateDone {
						t.Fatalf("job %d %s: %+v, %v", ji, id, info, err)
					}
				}
				st := s.Stats()
				if st.Executed != 1 || st.CacheHits+st.SingleFlightHits != n-1 {
					t.Errorf("job %d: %d executions, %d hits + %d joins for %d identical submissions", ji, st.Executed, st.CacheHits, st.SingleFlightHits, n)
				}
				if spec.counters != nil {
					if _, executed := spec.counters(&st); *executed != 1 {
						t.Errorf("job %d: %s_executed = %d, want 1", ji, spec.stem, *executed)
					}
				}
				first, err := s.Result(ids[0])
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range ids[1:] {
					if r, err := s.Result(id); err != nil || !sameAnswer(r, first) {
						t.Fatalf("job %d: %s's answer differs from the leader's (%v)", ji, id, err)
					}
				}
			}
		})
	}
}

// TestInvalidSubmissions: what no kind accepts — a nil or malformed
// circuit, an unknown kind, a misconfigured server, an unknown job id —
// then each kind's own refusals, at Submit and on the wire (HTTP 400).
func TestInvalidSubmissions(t *testing.T) {
	s, ts := newHTTPServer(t, Config{MaxSweepPoints: 4})
	if _, err := s.Submit(nil, SubmitOptions{}); err == nil {
		t.Fatal("nil circuit accepted")
	}
	broken := &circuit.Circuit{NumQubits: 2, Ops: []circuit.Op{{Gate: 200}}}
	if _, err := s.Submit(broken, SubmitOptions{}); err == nil {
		t.Fatal("invalid circuit accepted")
	}
	if _, code := postJob(t, ts.URL, SubmitRequest{Kind: "bogus", Circuit: FromCircuit(circuit.GHZ(4, false))}); code != http.StatusBadRequest {
		t.Fatalf("unknown kind: HTTP %d", code)
	}
	if _, err := New(Config{Target: "warp-drive"}); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, err := New(Config{Target: backend.TargetNvidiaMGPU, Devices: 3}); err == nil {
		t.Fatal("mgpu with non-power-of-two devices accepted")
	}
	if _, err := New(Config{Target: backend.TargetNvidiaMGPU, Devices: 2, TileBits: -1}); err == nil {
		t.Fatal("mgpu with per-gate sweeps accepted: its engine executes plans only")
	}
	if _, err := s.Job("j-nope"); err != ErrNotFound {
		t.Fatalf("unknown job: %v", err)
	}

	c, h := expTestCircuit(0, 4), expTestHamiltonian(4)
	ansatz, h3 := sweepAnsatz(3), expTestHamiltonian(3)
	nan := &observable.Hamiltonian{NumQubits: 4}
	nan.Add(observable.NewTerm(math.NaN(), map[int]observable.Pauli{0: observable.Z}))
	badPauli := &WireHamiltonian{Qubits: 4, Terms: []WireTerm{{Coef: 1, Paulis: []WirePauli{{Q: 0, P: "Q"}}}}}
	// Two finite terms whose ⟨H⟩ on |0⟩ is 2e308, which has no JSON form.
	overflow := []WireTerm{{Coef: 1e308}, {Coef: 1e308, Paulis: []WirePauli{{Q: 0, P: "Z"}}}}
	refusals := map[string]struct {
		jobs []kindJob       // Submit refuses each
		wire []SubmitRequest // POST /v1/jobs answers each with a 400
	}{
		"simulate": {
			jobs: []kindJob{{circuit.GHZ(4, false), SubmitOptions{Shots: -1}}},
			wire: []SubmitRequest{{Circuit: FromCircuit(c), Hamiltonian: FromHamiltonian(h)}},
		},
		"expectation": {
			jobs: []kindJob{
				{c, SubmitOptions{Hamiltonian: h, Shots: 100}},
				{c, SubmitOptions{Hamiltonian: expTestHamiltonian(9)}},
				{c, SubmitOptions{Hamiltonian: nan}},
			},
			wire: []SubmitRequest{{Circuit: FromCircuit(c)}, {Circuit: FromCircuit(c), Hamiltonian: badPauli}},
		},
		"sweep": {jobs: []kindJob{
			{ansatz, SubmitOptions{Hamiltonian: h3, SweepPoints: [][]float64{make([]float64, ansatz.NumParams()+2)}}},
			{ansatz, SubmitOptions{Hamiltonian: h3, SweepPoints: anglesGridOrDie(ansatz, 5)}}, // over MaxSweepPoints
			{ansatz, SubmitOptions{SweepPoints: anglesGridOrDie(ansatz, 2)}},                  // sampling without shots
		}},
		"gradient": {
			jobs: []kindJob{
				{ansatz, SubmitOptions{Gradient: true}},
				{circuit.GHZ(3, false), SubmitOptions{Hamiltonian: h3, Gradient: true}},
			},
			wire: []SubmitRequest{{Circuit: FromCircuit(ansatz), Hamiltonian: &WireHamiltonian{Qubits: 3, Terms: overflow}}},
		},
	}
	for k := range kinds {
		name := kinds[k].name
		r, ok := refusals[name]
		if !ok {
			t.Fatalf("kind %q has no refusals row; add one", name)
		}
		for i, j := range r.jobs {
			if _, err := s.Submit(j.c, j.opts); err == nil {
				t.Errorf("%s: refusal %d accepted: %+v", name, i, j.opts)
			}
		}
		for i, req := range r.wire {
			req.Kind = name
			if _, code := postJob(t, ts.URL, req); code != http.StatusBadRequest {
				t.Errorf("%s: wire refusal %d answered HTTP %d", name, i, code)
			}
		}
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
	"qgear_state_pool_hits_total Slab takes (states, exchange buffers) served from a recycled slab.",
	"qgear_state_pool_misses_total Slab takes (states, exchange buffers) that had to allocate.",
	"qgear_state_pool_retained_bytes Bytes of released slabs (states, exchange buffers) held for reuse (dropped after two idle GC cycles).",
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
