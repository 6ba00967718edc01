// Command qgear-bench regenerates the paper's evaluation artifacts:
// every figure series and table row from §3, the appendix experiments,
// and this reproduction's paper-vs-measured shape notes. `-list` (or
// `-h`) prints the experiment table: each id, the paper artifact it
// regenerates, and what it shows.
//
// Usage:
//
//	qgear-bench -list               # the experiment table
//	qgear-bench -exp all            # everything (several minutes)
//	qgear-bench -exp fig4a          # one artifact
//	qgear-bench -exp fig4b -seed 7
//	qgear-bench -exp fig5 -large    # wider, slower local sweeps
//
// It is a reproduction aid, not a regression measurement: the numbers
// a change is judged on come from benchmark/ (`make bench-compare`).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"qgear/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	seed := flag.Uint64("seed", 2026, "seed for generators and sampling")
	large := flag.Bool("large", false, "widen the measured local sweeps")
	workers := flag.Int("workers", 0, "GPU-stand-in worker goroutines (0 = all cores)")
	list := flag.Bool("list", false, "print the experiment table and exit")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "qgear-bench regenerates the paper's figures and tables.\n\nFlags:")
		flag.PrintDefaults()
		fmt.Fprintln(out, "\nExperiments (-exp):")
		bench.PrintIndex(out)
	}
	flag.Parse()

	if *list {
		bench.PrintIndex(os.Stdout)
		return
	}
	r := bench.NewRunner(*seed)
	r.Large = *large
	r.Workers = *workers

	var err error
	if *exp == "all" {
		err = r.RunAll(os.Stdout)
	} else {
		err = r.Run(*exp, os.Stdout)
	}
	if errors.Is(err, bench.ErrUnknownExperiment) {
		fmt.Fprintf(os.Stderr, "qgear-bench: %v; have:\n", err)
		bench.PrintIndex(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qgear-bench: %v\n", err)
		os.Exit(1)
	}
}
