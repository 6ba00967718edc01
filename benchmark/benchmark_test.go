package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func miniEnv(t *testing.T) env {
	t.Helper()
	return env{W: workers(), TmpDir: t.TempDir(), Sizes: miniSizes}
}

// inputs renders everything a workload generates from its seed before
// anything runs: circuit fingerprints, Hamiltonian coefficients and, for
// serve_mix, the request bodies of its first round.
func inputs(t *testing.T, name string, seed uint64) []byte {
	t.Helper()
	w, err := newWorkload(name, seed, miniEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var b bytes.Buffer
	switch w := w.(type) {
	case *qftExec:
		b.WriteString(w.circ.Fingerprint())
		fmt.Fprint(&b, w.cfg.Seed)
	case *tfimExpect:
		b.WriteString(w.circ.Fingerprint())
		b.WriteString(w.ham.String())
	case *qcrankMGPU:
		b.WriteString(w.circ.Fingerprint())
	case *serveMix:
		if err := w.Prepare(); err != nil {
			t.Fatal(err)
		}
		for _, c := range w.clients {
			for _, op := range c.next {
				b.Write(op.body)
			}
		}
	case *storeCycle:
		if err := w.Setup(); err != nil {
			t.Fatal(err)
		}
		for _, r := range w.results {
			for _, p := range r.Probabilities {
				var buf [8]byte
				bits := math.Float64bits(p)
				for i := range buf {
					buf[i] = byte(bits >> (8 * i))
				}
				b.Write(buf[:])
			}
		}
	}
	return b.Bytes()
}

func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloadSpecs {
		a, again, other := inputs(t, w.Name, 7), inputs(t, w.Name, 7), inputs(t, w.Name, 8)
		if len(a) == 0 {
			t.Errorf("%s: no inputs rendered", w.Name)
		}
		if !bytes.Equal(a, again) {
			t.Errorf("%s: the same seed gave different inputs", w.Name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: different seeds gave the same inputs", w.Name)
		}
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := quantile(v, 1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if v[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	if _, ok := tail(sample(99), 0.90); ok {
		t.Error("p90 of 99 samples reported: only 9.9 lie beyond it")
	}
	if v, ok := tail(sample(100), 0.90); !ok || math.Abs(v-89.1) > 1e-9 {
		t.Errorf("p90 of 100 samples = %v, %v; want 89.1, true", v, ok)
	}
	if _, ok := tail(sample(999), 0.99); ok {
		t.Error("p99 of 999 samples reported")
	}
	if _, ok := tail(sample(20), 0.50); !ok {
		t.Error("median of 20 samples not reported")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the binary's default is %d", f.RunSeconds, defaultSeconds)
	}
	if n := len(workloadSpecs); n < 2 || n > 8 || len(f.Workloads) != n {
		t.Fatalf("%d workloads in the binary, %d in BENCHMARK.json; 2 to 8 allowed", n, len(f.Workloads))
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 || len(f.EndToEnd) != n {
		t.Fatalf("%d end-to-end metrics in the binary, %d in BENCHMARK.json; 1 to 16 allowed", n, len(f.EndToEnd))
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 || len(f.PerLayer) != n {
		t.Fatalf("%d per-layer metrics in the binary, %d in BENCHMARK.json; 1 to 128 allowed", n, len(f.PerLayer))
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not letters, digits, _ . - (at most 64)", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloadSpecs {
		name(w.Name)
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the binary %q (or their reasons differ)", i, f.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: its why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for i, s := range endToEndSpecs {
		name(s.Name)
		g := f.EndToEnd[i]
		if g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better || g.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the binary %+v", i, g, s)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, s := range perLayerSpecs {
		name(s.Name)
		g := f.PerLayer[i]
		if g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the binary %+v", i, g, s)
		}
	}
	for _, c := range exactCounters {
		if !seen[c] {
			t.Errorf("exact counter %q is not a metric", c)
		}
	}
}

// TestMiniatureWorkloads runs a miniature of each workload through the
// untraced and the traced path, all oracles on.
func TestMiniatureWorkloads(t *testing.T) {
	for _, w := range workloadSpecs {
		e := miniEnv(t)
		res, err := runUntraced(w.Name, 3, 0.05, e)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := res.failure(); err != nil {
			t.Errorf("%s untraced: %v", w.Name, err)
		}
		for _, s := range endToEndSpecs {
			if v, ok := res.Metrics[s.Name]; !ok || v.Value <= 0 || v.Unit != s.Unit {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w.Name, s.Name, v, s.Unit)
			}
		}
		res, err = runTraced(w.Name, 3, 0.05, e, "")
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := res.failure(); err != nil {
			t.Errorf("%s traced: %v", w.Name, err)
		}
		if len(res.Metrics) != len(perLayerSpecs) {
			t.Errorf("%s: %d per-layer metrics emitted, want %d", w.Name, len(res.Metrics), len(perLayerSpecs))
		}
		if v := res.Metrics["trace.dominant_layer_share"].Value; v <= 0 || v > 1 {
			t.Errorf("%s: dominant layer share %v outside (0, 1]", w.Name, v)
		}
	}
}

// TestCorruptedResultFails corrupts one oracle baseline and expects the
// run to count failed ops and to report an error (a non-zero exit).
func TestCorruptedResultFails(t *testing.T) {
	w, setup, err := setUp("qft_exec", 3, miniEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	q := w.(*qftExec)
	q.ref[len(q.ref)/2] = math.Nextafter(q.ref[len(q.ref)/2], 1)
	rec := newRecorder()
	m, err := segment(w, rec, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	res := endToEnd(rec, m, []float64{setup})
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("correct=%t failed=%d attempted=%d; want every op failed", res.Correct, res.Failed, res.Attempted)
	}
	if err := res.failure(); !errors.Is(err, errIncorrect) {
		t.Errorf("failure() = %v, want errIncorrect", err)
	}
}

func summaryWith(nproc int, alloc, setup, p50, executed float64) *summary {
	s := &summary{Host: hostInfo{NProc: nproc, W: nproc}, Workloads: make(map[string]*workloadSummary)}
	for _, w := range workloadSpecs {
		ws := &workloadSummary{
			EndToEnd: &outcome{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}},
			PerLayer: &outcome{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}},
		}
		for _, m := range endToEndSpecs {
			ws.EndToEnd.Metrics[m.Name] = metricValue{Value: 1, Unit: m.Unit}
		}
		ws.EndToEnd.Metrics["alloc_mib_per_op"] = metricValue{Value: alloc, Unit: "MiB"}
		ws.EndToEnd.Metrics["setup_s"] = metricValue{Value: setup, Unit: "s"}
		for _, m := range perLayerSpecs {
			ws.PerLayer.Metrics[m.Name] = metricValue{Value: 1, Unit: m.Unit}
		}
		ws.PerLayer.Metrics["op_p50_s"] = metricValue{Value: p50, Unit: "s"}
		ws.PerLayer.Metrics["service.executed"] = metricValue{Value: executed, Unit: "count"}
		s.Workloads[w.Name] = ws
	}
	return s
}

func TestCompare(t *testing.T) {
	var bound float64
	for _, m := range endToEndSpecs {
		if m.Name == "alloc_mib_per_op" {
			bound = m.Bound
		}
	}
	base := summaryWith(2, 1, 1, 1, 170)
	var out bytes.Buffer
	if err := compareSummaries(base, summaryWith(2, 1+bound/2, 1, 1, 170), &out); err != nil {
		t.Errorf("half a bound more: %v", err)
	}
	if !strings.Contains(out.String(), verdictWithin) || strings.Contains(out.String(), verdictWorse) {
		t.Errorf("half a bound more should read %q everywhere:\n%s", verdictWithin, out.String())
	}
	out.Reset()
	if err := compareSummaries(base, summaryWith(2, 1+2*bound, 1, 1, 170), &out); err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("two bounds more: err = %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareSummaries(base, summaryWith(2, 1-2*bound, 1, 1, 170), &out); err != nil || !strings.Contains(out.String(), verdictBetter) {
		t.Errorf("two bounds less: err = %v\n%s", err, out.String())
	}
	for what, slower := range map[string]*summary{
		"set-up":    summaryWith(2, 1, 3, 1, 170),
		"op timing": summaryWith(2, 1, 1, 3, 170),
	} {
		out.Reset()
		if err := compareSummaries(base, slower, &out); err != nil || !strings.Contains(out.String(), verdictWorse+" (advisory)") {
			t.Errorf("a slower %s is shown as worse but advisory, and does not fail: err = %v\n%s", what, err, out.String())
		}
	}
	out.Reset()
	err := compareSummaries(base, summaryWith(2, 1, 1, 1, 171), &out)
	if err == nil || !strings.Contains(out.String(), "non-determinism") || strings.Contains(out.String(), verdictWorse) {
		t.Errorf("an exact counter that differs is non-determinism, not a regression: err = %v\n%s", err, out.String())
	}
	if err := compareSummaries(base, summaryWith(4, 1, 1, 1, 170), &out); err == nil {
		t.Error("summaries from hosts with different core counts were compared")
	}
}
