// Command qgear is the one front end of the Q-GEAR pipeline, the
// counterpart of the paper's run.py driver (§E.3): it generates workload
// circuits, saves and loads them as QPY lists, tensor files or OpenQASM,
// transforms them into kernels, executes them on any target, serves that
// execution over HTTP, encodes images with QCrank and regenerates the
// paper's figures. `qgear -h` lists the commands, `qgear <command> -h` a
// command's flags with their defaults.
//
// The executing commands (run, expect, sweep) are clients of
// service.Server: each starts one in process, submits its circuits,
// prints what comes back and closes it; serve puts a listener on the
// same server. Content addressing, the persistent store and everything
// else about how a job is answered live in internal/service only, so
// these commands on one -store-dir serve each other's repeat work.
//
// Usage:
//
//	qgear generate -kind random -qubits 8 -blocks 100 -count 4 -out circuits.qpy
//	qgear transform -in circuits.qpy -prune 1e-6
//	qgear run -in circuits.qpy -target nvidia -shots 1000
//	qgear expect -in qft.qpy -tfim-j 1 -tfim-g 0.7 -store-dir /tmp/qgear-store
//	qgear serve -addr :8042 -target nvidia-mqpu -devices 4 -pool 2 -cache 1024
//	qgear qcrank -image zebra -width 64 -height 40 -addr 8 -out-dir imgs
//	qgear paper fig4a
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/core"
	"qgear/internal/observable"
	"qgear/internal/qasm"
	"qgear/internal/qft"
	"qgear/internal/randcirc"
	"qgear/internal/service"
)

// A command is one row of the command table, the only list of qgear's
// commands: dispatch and both levels of help read it.
type command struct {
	name, args, summary string
	// flags registers the command's flags on fs and returns what runs
	// the command once fs has parsed its command line.
	flags func(fs *flag.FlagSet) func(out io.Writer) error
}

var commands = []command{
	{"generate", "", "build workload circuits (random | qft | ghz) and save them", cmdGenerate},
	{"transform", "", "convert saved circuits to kernels, print transformation stats", cmdTransform},
	{"run", "", "transform and execute saved circuits on a target", cmdRun},
	{"expect", "", "evaluate exact Hamiltonian expectation values on saved circuits", cmdExpect},
	{"sweep", "", "evaluate a parameterized circuit at many points (compile once, rebind per point)", cmdSweep},
	{"info", "", "describe a saved circuit file", cmdInfo},
	{"serve", "", "run the simulation HTTP service (/v1/jobs, /v1/results, /v1/stats, /metrics)", cmdServe},
	{"qcrank", "", "encode an image as a QCrank circuit, simulate it and score the reconstruction", cmdQCrank},
	{"paper", "<id|all>", "regenerate the paper's figures and tables (no id: list them)", cmdPaper},
}

// usageError is a command line qgear cannot parse: a missing or unknown
// command, a bad flag, an unknown experiment id.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintf(os.Stderr, "qgear: %v\n", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run dispatches one command line (without the program name), printing
// results, and any help asked for, to out. After printing help it
// returns flag.ErrHelp; a line it cannot parse is a usageError.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return usageError{errors.New(`no command; "qgear -h" lists them`)}
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(out, "Usage:\n  qgear <command> [flags]\n\nCommands:")
		for _, c := range commands {
			fmt.Fprintf(out, "  %-10s %s\n", c.name, c.summary)
		}
		fmt.Fprintln(out, "\nRun \"qgear <command> -h\" for a command's flags.")
		return flag.ErrHelp
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:], out)
		}
	}
	return usageError{fmt.Errorf(`unknown command %q; "qgear -h" lists them`, args[0])}
}

// run parses args into the command's flag set and runs the command.
func (c command) run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a parse error is returned, help printed below
	exec := c.flags(fs)
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		fmt.Fprintf(out, "%s\n\nUsage:\n  %s\n\nFlags:\n", c.summary, strings.TrimSpace("qgear "+c.name+" [flags] "+c.args))
		fs.SetOutput(out)
		fs.PrintDefaults()
		return err
	case err != nil:
		return usageError{fmt.Errorf(`%s: %w; "qgear %[1]s -h" lists its flags`, c.name, err)}
	}
	return exec(out)
}

// loadAny reads the circuits of command cmd's -in path: .qpy, .qgt
// (tensor file) or .qasm by extension.
func loadAny(cmd, path string) ([]*circuit.Circuit, error) {
	switch {
	case path == "":
		return nil, fmt.Errorf("%s: -in is required", cmd)
	case strings.HasSuffix(path, ".qgt"):
		return core.LoadTensors(path)
	case strings.HasSuffix(path, ".qasm"):
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		c, err := qasm.Parse(string(src))
		if err != nil {
			return nil, err
		}
		return []*circuit.Circuit{c}, nil
	default:
		return core.LoadQPY(path)
	}
}

func saveAny(path string, cs []*circuit.Circuit) error {
	switch {
	case strings.HasSuffix(path, ".qgt"):
		return core.SaveTensors(path, cs, 0)
	case strings.HasSuffix(path, ".qasm"):
		if len(cs) != 1 {
			return fmt.Errorf("qasm files hold one circuit; have %d (use .qpy or .qgt)", len(cs))
		}
		src, err := qasm.Export(cs[0])
		if err != nil {
			return err
		}
		return os.WriteFile(path, []byte(src), 0o644)
	default:
		return core.SaveQPY(path, cs)
	}
}

func cmdGenerate(fs *flag.FlagSet) func(out io.Writer) error {
	kind := fs.String("kind", "random", "workload kind: random | qft | ghz")
	qubits := fs.Int("qubits", 8, "number of qubits")
	blocks := fs.Int("blocks", randcirc.ShortBlocks, "CX blocks for random circuits")
	count := fs.Int("count", 1, "number of circuits")
	seed := fs.Uint64("seed", 42, "generator seed")
	reverse := fs.Bool("reverse", false, "QFT bit-order reversal swaps")
	measure := fs.Bool("measure", false, "append measure_all")
	outPath := fs.String("out", "circuits.qpy", "output path (.qpy, .qgt or .qasm)")
	return func(out io.Writer) error {
		var cs []*circuit.Circuit
		switch *kind {
		case "random":
			list, err := randcirc.GenerateList(*qubits, *blocks, *count, *seed)
			if err != nil {
				return err
			}
			cs = list
		case "qft":
			c, err := qft.Circuit(*qubits, *reverse)
			if err != nil {
				return err
			}
			cs = []*circuit.Circuit{c}
		case "ghz":
			cs = []*circuit.Circuit{circuit.GHZ(*qubits, *measure)}
		default:
			return fmt.Errorf("unknown kind %q", *kind)
		}
		if *measure && *kind != "ghz" {
			for _, c := range cs {
				c.MeasureAll()
			}
		}
		if err := saveAny(*outPath, cs); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d circuit(s) to %s\n", len(cs), *outPath)
		return nil
	}
}

func cmdTransform(fs *flag.FlagSet) func(out io.Writer) error {
	in := fs.String("in", "", "input circuits (.qpy, .qgt or .qasm)")
	prune := fs.Float64("prune", 0, "prune rotations below this angle")
	verbose := fs.Bool("v", false, "print kernel listings")
	return func(out io.Writer) error {
		cs, err := loadAny(fs.Name(), *in)
		if err != nil {
			return err
		}
		kernels, stats, err := core.Transform(cs, core.Options{PruneAngle: *prune})
		if err != nil {
			return err
		}
		for i, k := range kernels {
			st := stats[i]
			fmt.Fprintf(out, "%-28s %3d qubits  %6d ops -> %6d instrs  (pruned %d)\n",
				k.Name, k.NumQubits, st.SourceOps, st.EmittedOps, st.PrunedGates)
			if *verbose {
				fmt.Fprint(out, k.String())
			}
		}
		return nil
	}
}

// clientFlags registers the execution-flag block on a command's flag
// set and returns the configuration of the in-process server that
// command will be a client of. One user runs one command at a time, so
// the server executes with one worker (batches of a backlog still fan
// out over the mqpu devices) and admits whatever it is asked for: no
// memory budget, no sweep-size bound.
func clientFlags(fs *flag.FlagSet) *service.Config {
	cfg := &service.Config{WorkerPool: 1, MaxStateBytes: -1, MaxSweepPoints: -1}
	service.RegisterExecFlags(fs, cfg)
	return cfg
}

// storeHit is the marker a result line carries when its job was served
// without a fresh simulation (JobInfo.Cached) — with -store-dir, the
// artifact an earlier process left on disk.
const storeHit = "  (store hit)"

// serve starts the command's server, submits one job per circuit with
// opts in windows no larger than the queue bound, and hands each
// finished result to each, in input order; then it closes the server,
// which is when a configured store directory receives everything this
// invocation computed.
func serve(cfg *service.Config, cs []*circuit.Circuit, opts service.SubmitOptions, each func(c *circuit.Circuit, res *backend.Result, marker string)) (err error) {
	srv, err := service.New(*cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	}()
	for window := srv.Config().QueueSize; len(cs) > 0; {
		n := min(window, len(cs))
		ids := make([]string, n)
		for i, c := range cs[:n] {
			info, err := srv.Submit(c, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
			ids[i] = info.ID
		}
		for i, id := range ids {
			info, err := srv.Wait(context.Background(), id)
			if err != nil {
				return err
			}
			res, err := srv.Result(id)
			if err != nil {
				return fmt.Errorf("%s: %w", cs[i].Name, err)
			}
			marker := ""
			if info.Cached {
				marker = storeHit
			}
			each(cs[i], res, marker)
		}
		cs = cs[n:]
	}
	return nil
}

func cmdRun(fs *flag.FlagSet) func(out io.Writer) error {
	cfg := clientFlags(fs)
	in := fs.String("in", "", "input circuits (.qpy, .qgt or .qasm)")
	shots := fs.Int("shots", 0, "measurement shots (0 = probabilities only)")
	seed := fs.Uint64("seed", 42, "sampling seed")
	top := fs.Int("top", 8, "top outcomes to print")
	return func(out io.Writer) error {
		cs, err := loadAny(fs.Name(), *in)
		if err != nil {
			return err
		}
		return serve(cfg, cs, service.SubmitOptions{Shots: *shots, Seed: *seed}, func(c *circuit.Circuit, res *backend.Result, marker string) {
			fmt.Fprintf(out, "%-28s target=%-12s %v%s", c.Name, res.Target, res.Duration.Round(1e3), marker)
			if res.Exchanges > 0 {
				fmt.Fprintf(out, "  exchanges=%d bytes=%d", res.Exchanges, res.BytesSent)
			}
			fmt.Fprintln(out)
			if st := res.PlanStats; st != nil {
				fmt.Fprintf(out, "    plan: tile=%d runs=%d local=%d global=%d relabels=%d free-swaps=%d",
					res.TileBits, st.Runs, st.TileLocal, st.Global, st.BitSwaps, st.PermSwaps)
				if st.ExchangeSegs > 0 || st.RankLocal > 0 {
					fmt.Fprintf(out, " exch-segs=%d rank-local=%d", st.ExchangeSegs, st.RankLocal)
				}
				fmt.Fprintln(out)
			}
			if res.Counts != nil {
				for _, key := range res.Counts.TopK(*top) {
					fmt.Fprintf(out, "    %0*b  %d\n", c.NumQubits, key, res.Counts[key])
				}
			} else {
				for j, p := range res.Probabilities {
					if p > 0.01 && j < 1<<16 {
						fmt.Fprintf(out, "    |%0*b>  %.4f\n", c.NumQubits, j, p)
					}
				}
			}
		})
	}
}

// cmdExpect is the expectation-value job kind on the CLI: load
// circuits, build a Hamiltonian (a JSON spec, a ZZ chain, or the
// built-in transverse-field Ising model), and print the exact ⟨H⟩ per
// circuit.
func cmdExpect(fs *flag.FlagSet) func(out io.Writer) error {
	cfg := clientFlags(fs)
	in := fs.String("in", "", "input circuits (.qpy, .qgt or .qasm)")
	ham := hamiltonianFlags(fs)
	return func(out io.Writer) error {
		cs, err := loadAny(fs.Name(), *in)
		if err != nil {
			return err
		}
		// The Hamiltonian spans the widest loaded circuit unless a JSON
		// spec pins its own width.
		width := 0
		for _, c := range cs {
			width = max(width, c.NumQubits)
		}
		h, hname, err := ham.build(width)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "hamiltonian: %s (%d terms, hash %.12s…)\n", hname, len(h.Terms), h.Fingerprint())
		return serve(cfg, cs, service.SubmitOptions{Hamiltonian: h}, func(c *circuit.Circuit, res *backend.Result, marker string) {
			fmt.Fprintf(out, "%-28s target=%-12s ⟨H⟩ = %+.12f  terms=%d  %v%s\n",
				c.Name, res.Target, *res.ExpValue, res.ExpTerms, res.Duration.Round(1e3), marker)
		})
	}
}

// cmdSweep is the sweep job kind on the CLI: load one parameterized
// circuit, evaluate it at many parameter points under a single
// compile-once execution (the plan compiles once and is rebound per
// point), and print per-point ⟨H⟩ values or sampled counts. With
// -gradient it computes the exact parameter-shift gradient at the
// circuit's stored parameter values instead.
func cmdSweep(fs *flag.FlagSet) func(out io.Writer) error {
	cfg := clientFlags(fs)
	in := fs.String("in", "", "input circuit (.qpy, .qgt or .qasm; first circuit is swept)")
	pointsFile := fs.String("points", "", "JSON point matrix [[θ0,...],[θ0,...],...]; one row per sweep point")
	grid := fs.String("grid", "", "linear grid start:stop:count for single-parameter circuits (e.g. 0:6.28:100)")
	gradient := fs.Bool("gradient", false, "compute the parameter-shift gradient at the circuit's own parameter values")
	counts := fs.Bool("counts", false, "sample measurement counts per point instead of ⟨H⟩ (requires -shots)")
	shots := fs.Int("shots", 0, "measurement shots per point for -counts mode")
	seed := fs.Uint64("seed", 42, "base sampling seed (each point derives its own)")
	ham := hamiltonianFlags(fs)
	top := fs.Int("top", 4, "top outcomes to print per point in -counts mode")
	return func(out io.Writer) error {
		cs, err := loadAny(fs.Name(), *in)
		if err != nil {
			return err
		}
		c := cs[0]
		nParams := c.NumParams()
		if nParams == 0 {
			return fmt.Errorf("sweep: circuit %q has no parameterized gates", c.Name)
		}

		var opts service.SubmitOptions
		hname := "(none: sampling counts)"
		if *counts && !*gradient {
			if *shots <= 0 {
				return fmt.Errorf("sweep: -counts requires -shots > 0")
			}
			opts.Shots, opts.Seed = *shots, *seed
		} else if opts.Hamiltonian, hname, err = ham.build(c.NumQubits); err != nil {
			return err
		}
		if *gradient {
			opts.Gradient = true
			return serve(cfg, cs[:1], opts, func(_ *circuit.Circuit, res *backend.Result, marker string) {
				fmt.Fprintf(out, "hamiltonian: %s   points=%d rebinds=%d compiles=%d   %v%s\n",
					hname, res.SweepPoints, res.Rebinds, res.SweepCompiles, res.Duration.Round(1e3), marker)
				fmt.Fprintf(out, "⟨H⟩ = %+.12f\n", *res.ExpValue)
				for j, g := range res.Gradient {
					fmt.Fprintf(out, "  ∂⟨H⟩/∂θ%-3d = %+.12f\n", j, g)
				}
			})
		}

		if opts.SweepPoints, err = sweepPoints(*pointsFile, *grid, nParams); err != nil {
			return err
		}
		name := c.Name
		if name == "" {
			name = filepath.Base(*in)
		}
		return serve(cfg, cs[:1], opts, func(_ *circuit.Circuit, res *backend.Result, marker string) {
			fmt.Fprintf(out, "%s: %d params, %d points   hamiltonian: %s\n", name, nParams, len(opts.SweepPoints), hname)
			fmt.Fprintf(out, "compile-once: rebinds=%d compiles=%d   target=%s   %v%s\n",
				res.Rebinds, res.SweepCompiles, res.Target, res.Duration.Round(1e3), marker)
			for i, pt := range opts.SweepPoints {
				if res.SweepValues != nil {
					fmt.Fprintf(out, "  point %-5d %v  ⟨H⟩ = %+.12f\n", i, fmtPoint(pt), res.SweepValues[i])
					continue
				}
				fmt.Fprintf(out, "  point %-5d %v\n", i, fmtPoint(pt))
				for _, key := range res.SweepCounts[i].TopK(*top) {
					fmt.Fprintf(out, "    %0*b  %d\n", c.NumQubits, key, res.SweepCounts[i][key])
				}
			}
		})
	}
}

// sweepPoints resolves the CLI's point-matrix sources: an explicit
// JSON file, or a start:stop:count linear grid for single-parameter
// circuits.
func sweepPoints(pointsFile, grid string, nParams int) ([][]float64, error) {
	switch {
	case pointsFile != "" && grid != "":
		return nil, fmt.Errorf("sweep: -points and -grid are mutually exclusive")
	case pointsFile != "":
		raw, err := os.ReadFile(pointsFile)
		if err != nil {
			return nil, err
		}
		var points [][]float64
		if err := json.Unmarshal(raw, &points); err != nil {
			return nil, fmt.Errorf("sweep: parsing %s: %w", pointsFile, err)
		}
		return points, nil
	case grid != "":
		var start, stop float64
		var count int
		if _, err := fmt.Sscanf(grid, "%g:%g:%d", &start, &stop, &count); err != nil || count < 1 {
			return nil, fmt.Errorf("sweep: -grid wants start:stop:count, got %q", grid)
		}
		if nParams != 1 {
			return nil, fmt.Errorf("sweep: -grid is for single-parameter circuits; this one has %d (use -points)", nParams)
		}
		points := make([][]float64, count)
		for i := range points {
			t := 0.0
			if count > 1 {
				t = float64(i) / float64(count-1)
			}
			points[i] = []float64{start + t*(stop-start)}
		}
		return points, nil
	default:
		return nil, fmt.Errorf("sweep: one of -points or -grid is required")
	}
}

func fmtPoint(pt []float64) string {
	parts := make([]string, len(pt))
	for i, v := range pt {
		parts[i] = fmt.Sprintf("%.4f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// hamiltonianSource is the Hamiltonian flag block expect and sweep
// share.
type hamiltonianSource struct {
	file             *string
	zz, tfimJ, tfimG *float64
}

func hamiltonianFlags(fs *flag.FlagSet) hamiltonianSource {
	return hamiltonianSource{
		file:  fs.String("hamiltonian", "", "Hamiltonian JSON file ({\"qubits\":n,\"terms\":[{\"coef\":c,\"paulis\":[{\"q\":0,\"p\":\"Z\"},...]}]})"),
		zz:    fs.Float64("zz", 0, "build a ZZ-chain Hamiltonian -J·ΣZiZi+1 with this coupling instead of a file"),
		tfimJ: fs.Float64("tfim-j", 1, "built-in transverse-field Ising coupling J (used when no -hamiltonian/-zz)"),
		tfimG: fs.Float64("tfim-g", 1, "built-in transverse-field Ising field g"),
	}
}

// build resolves the source precedence — explicit JSON file, then ZZ
// chain, then the built-in TFIM — for a register of width qubits.
func (src hamiltonianSource) build(width int) (*observable.Hamiltonian, string, error) {
	switch {
	case *src.file != "":
		raw, err := os.ReadFile(*src.file)
		if err != nil {
			return nil, "", err
		}
		var wire service.WireHamiltonian
		if err := json.Unmarshal(raw, &wire); err != nil {
			return nil, "", fmt.Errorf("parsing %s: %w", *src.file, err)
		}
		if wire.Qubits == 0 {
			wire.Qubits = width
		}
		h, err := wire.ToHamiltonian()
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", *src.file, err)
		}
		return h, *src.file, nil
	case *src.zz != 0:
		h := &observable.Hamiltonian{NumQubits: width}
		for i := 0; i+1 < width; i++ {
			h.Add(observable.NewTerm(-*src.zz, map[int]observable.Pauli{i: observable.Z, i + 1: observable.Z}))
		}
		return h, fmt.Sprintf("zz-chain(J=%g)", *src.zz), nil
	default:
		return observable.TransverseFieldIsing(width, *src.tfimJ, *src.tfimG),
			fmt.Sprintf("tfim(J=%g, g=%g)", *src.tfimJ, *src.tfimG), nil
	}
}

func cmdInfo(fs *flag.FlagSet) func(out io.Writer) error {
	in := fs.String("in", "", "input circuits (.qpy, .qgt or .qasm)")
	return func(out io.Writer) error {
		cs, err := loadAny(fs.Name(), *in)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: %d circuit(s)\n", *in, len(cs))
		for _, c := range cs {
			fmt.Fprintf(out, "  %-28s %3d qubits  %6d ops  depth %5d  2q-gates %6d  2q-depth %5d\n",
				c.Name, c.NumQubits, c.NumOps(), c.Depth(), c.CountTwoQubit(), c.TwoQubitDepth())
		}
		return nil
	}
}
