package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qgear/internal/service"
)

// serviceFlags registers the server-configuration flags: the execution
// block shared with run, expect and sweep, then the sizing of a
// long-running server.
func serviceFlags(fs *flag.FlagSet) *service.Config {
	cfg := &service.Config{}
	service.RegisterExecFlags(fs, cfg)
	fs.IntVar(&cfg.Workers, "workers", 0, "goroutine parallelism per device (0 = NumCPU)")
	fs.Float64Var(&cfg.PruneAngle, "prune", 0, "small-angle prune threshold")
	fs.IntVar(&cfg.QueueSize, "queue", 256, "job queue bound")
	fs.IntVar(&cfg.WorkerPool, "pool", 2, "executor worker pool size")
	fs.IntVar(&cfg.CacheSize, "cache", 1024, "result-cache entry bound (-1 disables)")
	fs.Int64Var(&cfg.MaxCacheBytes, "max-cache-bytes", 0, "result-cache resident byte budget (0 = 1 GiB default, -1 = unbounded)")
	fs.IntVar(&cfg.PlanCacheSize, "plan-cache", 512, "compiled-plan cache entry bound (-1 disables)")
	fs.Int64Var(&cfg.MaxPlanCacheBytes, "max-plan-cache-bytes", 0, "plan-cache resident byte budget (0 = 256 MiB default, -1 = unbounded)")
	fs.Int64Var(&cfg.MaxStoreBytes, "max-store-bytes", 0, "on-disk store byte budget: saves evict lowest-priority artifacts (Greedy-Dual-Size) or are refused so the store directory never outgrows this (0 = unbounded)")
	fs.IntVar(&cfg.MaxBatch, "batch", 8, "max queued jobs one worker takes at once; those of one circuit share one run (it takes a backlog, never waits for one)")
	fs.DurationVar(&cfg.JobTimeout, "job-timeout", 0, "per-job lifetime bound from submission (0 = unbounded); expired jobs fail with a 504 result")
	fs.IntVar(&cfg.MaxWaitMs, "max-wait-ms", 0, "long-poll cap for GET /v1/jobs/{id}?wait_ms=N in milliseconds (0 = 30000 default); larger client budgets are clamped, never rejected")
	fs.Int64Var(&cfg.MaxStateBytes, "max-state-bytes", 0, "memory admission budget: reject circuits whose simulation working set exceeds this many bytes with 422 (0 = half of available RAM, -1 = no admission control)")
	return cfg
}

// newHTTPServer builds the edge server with every timeout set, so a
// client that stalls mid-request, never reads its response, or parks an
// idle keep-alive connection cannot hold a goroutine and a descriptor
// forever. net/http counts the write timeout from the end of the
// request headers, and a legal GET /v1/jobs/{id}?wait_ms=N holds its
// response for up to maxWaitMs before writing it, so the write timeout
// is that cap plus slack for the write itself — a long poll is never
// cut.
func newHTTPServer(addr string, h http.Handler, maxWaitMs int) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second, // a 16 MiB submission on a slow link
		WriteTimeout:      time.Duration(maxWaitMs)*time.Millisecond + 10*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// cmdServe puts an HTTP listener on service.Server — the bounded job
// queue, worker pool, shared runs for the queued jobs of one circuit
// and content-addressed result cache — until SIGINT or SIGTERM,
// then drains it. Load generation lives in benchmark/ (the serve_mix
// workload).
func cmdServe(fs *flag.FlagSet) func(out io.Writer) error {
	cfg := serviceFlags(fs)
	addr := fs.String("addr", ":8042", "listen address")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: profiling endpoints expose internals)")
	return func(out io.Writer) error {
		srv, err := service.New(*cfg)
		if err != nil {
			return err
		}
		var handler http.Handler = srv.Handler()
		if *enablePprof {
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			handler = mux
		}
		ecfg := srv.Config()
		httpSrv := newHTTPServer(*addr, handler, ecfg.MaxWaitMs)
		done := make(chan error, 1)
		go func() { done <- httpSrv.ListenAndServe() }()
		sig := make(chan os.Signal, 1)
		// SIGTERM is what orchestrators (Kubernetes, systemd) send first;
		// both it and Ctrl-C get the same graceful drain.
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		fmt.Fprintf(out, "qgear serve: listening on %s (target=%s devices=%d pool=%d queue=%d cache=%d batch=%d)\n",
			*addr, ecfg.Target, ecfg.Devices, ecfg.WorkerPool, ecfg.QueueSize, ecfg.CacheSize, ecfg.MaxBatch)
		select {
		case err := <-done:
			srv.Close()
			return err
		case <-sig:
			fmt.Fprintln(out, "qgear serve: draining in-flight jobs...")
			// Shutdown (not Close) lets in-flight HTTP requests finish;
			// the timeout bounds clients that never stop reading.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "qgear serve: http shutdown: %v\n", err)
			}
			return srv.Close()
		}
	}
}
