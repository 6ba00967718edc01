// Command qgear-bench regenerates the paper's evaluation artifacts:
// every figure series and table row from §3, the appendix experiments,
// and this reproduction's shape notes. See DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for recorded paper-vs-measured
// results.
//
// Usage:
//
//	qgear-bench -exp all            # everything (several minutes)
//	qgear-bench -exp fig4a          # one artifact
//	qgear-bench -exp fig4b -seed 7
//	qgear-bench -exp fig5 -large    # wider, slower local sweeps
//
// The load subcommand is the serving-layer percentile harness: mixed
// simulate/expectation HTTP load with per-kind p50/p95/p99 and a
// /metrics-vs-/v1/stats cross-check (the CI load gate):
//
//	qgear-bench load -clients 50 -requests 6 -qubits 14 -expect-every 3 -out BENCH_load.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qgear/internal/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "load" {
		if err := cmdLoad(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "qgear-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	exp := flag.String("exp", "all", "experiment id or 'all'")
	seed := flag.Uint64("seed", 2026, "seed for generators and sampling")
	large := flag.Bool("large", os.Getenv("QGEAR_LARGE") == "1", "widen the measured local sweeps")
	workers := flag.Int("workers", 0, "GPU-stand-in worker goroutines (0 = all cores)")
	jsonDir := flag.String("json-dir", "", "directory for BENCH_*.json artifacts (empty = don't write)")
	gateBaseline := flag.String("gate-baseline", "", "baseline directory with committed BENCH_*.json; after the run, fail if the fresh -json-dir artifacts regress (bench-regression gate)")
	gateTol := flag.Float64("gate-tol", bench.DefaultGateTolerance, "fraction of baseline speedup a fresh run may lose before the gate fails")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	r := bench.NewRunner(*seed)
	r.Large = *large
	r.Workers = *workers
	r.JSONDir = *jsonDir

	if *list {
		fmt.Println(strings.Join(r.IDs(), "\n"))
		return
	}
	if *gateBaseline != "" && *jsonDir == "" {
		fmt.Fprintln(os.Stderr, "qgear-bench: -gate-baseline needs -json-dir for the fresh artifacts")
		os.Exit(2)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "qgear-bench: %v\n", err)
			os.Exit(1)
		}
	}
	var err error
	if *exp == "all" {
		err = r.RunAll(os.Stdout)
	} else {
		err = r.Run(*exp, os.Stdout)
	}
	if err == nil && *gateBaseline != "" {
		err = bench.Gate(*jsonDir, *gateBaseline, *gateTol)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qgear-bench: %v\n", err)
		os.Exit(1)
	}
}

// cmdLoad runs the percentile load harness against a live server (or
// an embedded one when -addr is empty).
func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	cfg := bench.LoadConfig{}
	fs.StringVar(&cfg.Addr, "addr", "", "server base URL (empty = run an embedded server)")
	fs.IntVar(&cfg.Clients, "clients", 20, "concurrent clients")
	fs.IntVar(&cfg.Requests, "requests", 4, "sequential requests per client")
	fs.IntVar(&cfg.Qubits, "qubits", 12, "GHZ workload width")
	fs.IntVar(&cfg.Shots, "shots", 0, "shots per simulate job (0 = probabilities only)")
	fs.IntVar(&cfg.ExpectEvery, "expect-every", 3, "every Nth request per client is an expectation job (0 = simulate only)")
	fs.IntVar(&cfg.SeedCycle, "seed-cycle", 4, "distinct seeds a client cycles through (controls cache-hit mix)")
	fs.StringVar(&cfg.OutPath, "out", "", "write the JSON LoadReport here (e.g. BENCH_load.json)")
	fs.BoolVar(&cfg.RequireMetrics, "require-metrics", false, "fail when /metrics is missing required families or disagrees with /v1/stats")
	// Embedded-server knobs (ignored with -addr).
	fs.StringVar((*string)(&cfg.Service.Target), "target", "", "embedded server target (default nvidia; nvidia-mqpu when -devices > 1)")
	fs.IntVar(&cfg.Service.Devices, "devices", 1, "embedded server simulated device count")
	fs.IntVar(&cfg.Service.WorkerPool, "pool", 2, "embedded server worker pool size")
	fs.IntVar(&cfg.Service.Workers, "workers", 0, "embedded server per-device parallelism (0 = NumCPU)")
	fs.IntVar(&cfg.Service.TileBits, "tile", 0, "embedded server tile width")
	fs.IntVar(&cfg.Service.QueueSize, "queue", 256, "embedded server queue bound")
	fs.Int64Var(&cfg.Service.MaxCacheBytes, "max-cache-bytes", 0, "embedded server result-cache byte budget")
	fs.StringVar(&cfg.Service.StoreDir, "store-dir", "", "embedded server persistent store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, err := bench.RunLoad(cfg, os.Stdout)
	return err
}
