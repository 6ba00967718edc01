// Package bench is the paper-figure runner: it regenerates every table
// and figure of the paper's evaluation (§3, Figs. 1 and 4–6, Tables 1
// and 2, Appendix C, Theorem B.3). Each experiment combines:
//
//   - measured runs of the real Go engine at sizes the local host can
//     hold (it stands in for the Perlmutter node), and
//   - modeled paper-scale points from the calibrated hardware model
//     (internal/cluster), so the printed series cover the paper's
//     qubit ranges.
//
// The printed output is row/series-oriented: the same numbers the
// paper plots, with paper-vs-measured shape notes. It is a
// reproduction aid, not a regression measurement: the numbers a change
// is judged on come from benchmark/ (see benchmark/README.md).
package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"qgear/internal/cluster"
	"qgear/internal/qmath"
)

// Point is one (x, y) sample with an optional error bar.
type Point struct {
	X, Y float64
	Err  float64
}

// Series is one labeled curve of an experiment figure.
type Series struct {
	Label  string
	XLabel string
	YLabel string
	Points []Point
}

// Print renders the series as aligned rows.
func (s Series) Print(w io.Writer) {
	fmt.Fprintf(w, "  series %q (%s vs %s)\n", s.Label, s.YLabel, s.XLabel)
	for _, p := range s.Points {
		if p.Err > 0 {
			fmt.Fprintf(w, "    %12.4g  %14.6g  ±%.2g\n", p.X, p.Y, p.Err)
		} else {
			fmt.Fprintf(w, "    %12.4g  %14.6g\n", p.X, p.Y)
		}
	}
}

// Table is a printable table artifact.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Print renders the table with column alignment.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "  table: %s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		fmt.Fprint(w, "    ")
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
}

// Experiment bundles one paper artifact's regenerated data. Run fills
// ID and Title from the experiment table.
type Experiment struct {
	ID     string // e.g. "fig4a"
	Title  string
	Series []Series
	Tables []Table
	Notes  []string
}

// Print renders the experiment.
func (e Experiment) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
	for _, s := range e.Series {
		s.Print(w)
	}
	for _, t := range e.Tables {
		t.Print(w)
	}
	for _, n := range e.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner configures and executes experiments.
type Runner struct {
	// Model is the paper-scale hardware model (defaults to Perlmutter).
	Model *cluster.Cluster
	// Seed drives all randomness.
	Seed uint64
	// Large widens the measured local sweeps (slower, closer shapes).
	Large bool
	// Workers caps the GPU-stand-in parallelism (0 = NumCPU).
	Workers int
}

// NewRunner returns a Runner with the Perlmutter model.
func NewRunner(seed uint64) *Runner {
	return &Runner{Model: cluster.Perlmutter(), Seed: seed}
}

// rng derives a deterministic stream per experiment.
func (r *Runner) rng(salt uint64) *qmath.RNG { return qmath.NewRNG(r.Seed*1315423911 + salt) }

// measure times fn once and returns seconds.
func measure(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// measureBest runs fn once untimed, then times it runs more times and
// returns the fastest: a point of a millisecond or less is one shot
// short enough for a scheduler hiccup or a cold cache to dominate.
func measureBest(runs int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	best := math.Inf(1)
	for i := 0; i < runs; i++ {
		sec, err := measure(fn)
		if err != nil {
			return 0, err
		}
		best = min(best, sec)
	}
	return best, nil
}

// fitExponentBase2 returns b from a least-squares fit y ≈ a·2^(b·x) —
// used to verify the ~2^n scaling claims.
func fitExponentBase2(points []Point) float64 {
	n := float64(len(points))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range points {
		ly := math.Log2(p.Y)
		sx += p.X
		sy += ly
		sxx += p.X * p.X
		sxy += p.X * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// experiments is the experiment table, in the paper's order: ids are
// listed, explained and run in this order. Adding an experiment is one
// row and its run function.
var experiments = []struct {
	id    string // the `qgear paper` id
	title string
	paper string // the paper artifact the experiment regenerates
	run   func(*Runner) (Experiment, error)
}{
	{"fig1", "NISQ-era simulation comparison: CPU vs GPU running-time gap", "Fig. 1", (*Runner).Fig1},
	{"fig4a", "random non-Clifford unitaries: CPU node vs 1 GPU vs 4 GPU", "Fig. 4a", (*Runner).Fig4a},
	{"fig4b", "scaling on 4-1024 GPU clusters, 3000-block unitaries", "Fig. 4b", (*Runner).Fig4b},
	{"fig4c", "QFT: Q-GEAR vs Pennylane baseline on 4 GPUs", "Fig. 4c", (*Runner).Fig4c},
	{"fig5", "QCrank image encoding: CPU node vs 1 GPU vs image size", "Fig. 5", (*Runner).Fig5},
	{"fig6", "QCrank image reconstruction quality (shot-limited)", "Fig. 6", (*Runner).Fig6},
	{"table1", "experiment configurations (paper Table 1)", "Table 1", (*Runner).Table1},
	{"table2", "QCrank circuit configurations (paper Table 2)", "Table 2", (*Runner).Table2},
	{"appC", "Constant-time tensor encoding and compression (Appendix C)", "Appendix C", (*Runner).AppendixC},
	{"thmB3", "Theorem B.3: serial 2^n scaling vs parallel speedup", "Theorem B.3", (*Runner).TheoremB3},
	{"mqpu", "multi-QPU circuit parallelism (the paper's nvidia-mqpu note)", "§3 (nvidia-mqpu)", (*Runner).Mqpu},
}

// ErrUnknownExperiment is returned (wrapped) by Run for an id that is
// not in the experiment table.
var ErrUnknownExperiment = errors.New("unknown experiment")

// PrintIndex writes the experiment table — id, paper artifact, title —
// one row per line, in run order.
func PrintIndex(w io.Writer) {
	for _, e := range experiments {
		fmt.Fprintf(w, "  %-7s %-18s %s\n", e.id, e.paper, e.title)
	}
}

// RunAll executes every experiment in table order and prints it to w.
func (r *Runner) RunAll(w io.Writer) error {
	for _, e := range experiments {
		if err := r.Run(e.id, w); err != nil {
			return err
		}
	}
	return nil
}

// Run executes one experiment by id and prints it to w.
func (r *Runner) Run(id string, w io.Writer) error {
	for _, e := range experiments {
		if e.id != id {
			continue
		}
		exp, err := e.run(r)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", id, err)
		}
		exp.ID, exp.Title = e.id, e.title
		exp.Print(w)
		return nil
	}
	return fmt.Errorf("bench: %w %q", ErrUnknownExperiment, id)
}
