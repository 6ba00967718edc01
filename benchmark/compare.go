package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Verdicts of one metric on one workload.
const (
	verdictWorse  = "worse"
	verdictWithin = "within"
	verdictBetter = "better"
)

func readSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func compareFiles(aPath, bPath string, w io.Writer) error {
	a, err := readSummary(aPath)
	if err != nil {
		return err
	}
	b, err := readSummary(bPath)
	if err != nil {
		return err
	}
	return compareSummaries(a, b, w)
}

// worsening is how much worse b is than a, as a share of a: positive is
// worse, whichever direction is better for the metric.
func worsening(s metricSpec, a, b float64) float64 {
	change := ratio(b-a, a)
	if s.Better == "higher" {
		return -change
	}
	return change
}

func verdict(s metricSpec, a, b float64) string {
	switch w := worsening(s, a, b); {
	case w > s.Bound:
		return verdictWorse
	case w < -s.Bound:
		return verdictBetter
	}
	return verdictWithin
}

// advisoryTimings are the per-layer timings of the ops, which --compare
// shows against advisoryBound without failing on them.
var advisoryTimings = []string{"op_p50_s", "op_p90_s", "ops_per_s"}

const advisoryBound = 0.10

// wallClock reports whether an end-to-end metric is a wall-clock time.
// One pair of runs on a shared host cannot carry a verdict on one: two
// runs of one commit differ by more than any bound (README.md), so
// --compare shows the verdict and does not fail on it. A timing claim
// needs paired runs.
func wallClock(s metricSpec) bool { return s.Name == "setup_s" }

func perLayerSpec(name string) metricSpec {
	for _, s := range perLayerSpecs {
		if s.Name == name {
			return s
		}
	}
	return metricSpec{Name: name}
}

// compareSummaries prints, per workload and end-to-end metric, both
// values, the relative change with its base, the bound and the verdict;
// the same, marked advisory, for setup_s and the timings of the ops;
// then it checks the exact-repeat counters for equality. It fails on
// any gated "worse", on any failed op, and on any counter mismatch, and
// names which of the three it was.
func compareSummaries(a, b *summary, w io.Writer) error {
	if a.Host.NProc != b.Host.NProc || a.Host.W != b.Host.W || a.Host.TileBits != b.Host.TileBits {
		return fmt.Errorf("the two runs are not comparable: nproc/W/tile_bits %d/%d/%d against %d/%d/%d",
			a.Host.NProc, a.Host.W, a.Host.TileBits, b.Host.NProc, b.Host.W, b.Host.TileBits)
	}
	var worse, failed, unequal int
	for _, wl := range workloadSpecs {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			return fmt.Errorf("workload %s is missing from one of the summaries", wl.Name)
		}
		for _, side := range []*outcome{wa.EndToEnd, wb.EndToEnd, wa.PerLayer, wb.PerLayer} {
			if side != nil {
				failed += side.Failed
			}
		}
		// row prints one metric and reports whether it counts as a regression.
		row := func(s metricSpec, va, vb float64, advisory bool) bool {
			v, note := verdict(s, va, vb), ""
			if advisory {
				note = " (advisory)"
			}
			fmt.Fprintf(w, "%-12s %-18s a=%-14.6g b=%-14.6g %+8.2f%% of a (%s is better, bound %.0f%%)  %s%s\n",
				wl.Name, s.Name, va, vb, 100*ratio(vb-va, va), s.Better, 100*s.Bound, v, note)
			return v == verdictWorse && !advisory
		}
		for _, s := range endToEndSpecs {
			if row(s, wa.EndToEnd.Metrics[s.Name].Value, wb.EndToEnd.Metrics[s.Name].Value, wallClock(s)) {
				worse++
			}
		}
		if wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, name := range advisoryTimings {
			s := perLayerSpec(name)
			s.Bound = advisoryBound
			if va, vb := wa.PerLayer.Metrics[name].Value, wb.PerLayer.Metrics[name].Value; va != 0 && vb != 0 {
				row(s, va, vb, true)
			}
		}
		for _, name := range exactCounters {
			va, vb := wa.PerLayer.Metrics[name].Value, wb.PerLayer.Metrics[name].Value
			if va != vb {
				unequal++
				fmt.Fprintf(w, "%-12s %-30s a=%v b=%v  non-determinism in the benchmark: this counter repeats exactly on one commit\n",
					wl.Name, name, va, vb)
			}
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d ops failed across the two runs", failed)
	case worse > 0:
		return fmt.Errorf("%d end-to-end metrics are worse by more than their bound", worse)
	case unequal > 0:
		return errors.New("exact-repeat counters differ: the benchmark is not deterministic here (not a regression)")
	}
	return nil
}
