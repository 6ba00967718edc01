// Command qgear is the CLI front end of the Q-GEAR pipeline: generate
// workload circuits, save/load them as QPY lists or tensor files, transform
// them into kernels, and execute them on any target — the same flow as
// the paper's run.py driver (§E.3).
//
// Usage:
//
//	qgear generate -kind random -qubits 8 -blocks 100 -count 4 -out circuits.qpy
//	qgear generate -kind qft -qubits 12 -out qft.qpy
//	qgear transform -in circuits.qpy -fusion 5 -prune 1e-6
//	qgear run -in circuits.qpy -target nvidia -shots 1000
//	qgear expect -in qft.qpy -tfim-j 1 -tfim-g 0.7 -store-dir /tmp/qgear-store
//	qgear info -in circuits.qpy
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
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
	"qgear/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "transform":
		err = cmdTransform(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "expect":
		err = cmdExpect(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "qgear: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qgear: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `qgear <command> [flags]
commands:
  generate   build workload circuits (random | qft | ghz) and save them
  transform  convert saved circuits to kernels, print transformation stats
  run        transform and execute saved circuits on a target
  expect     evaluate exact Hamiltonian expectation values on saved circuits
  sweep      evaluate a parameterized circuit at many points (compile once, rebind per point)
  info       describe a saved circuit file`)
}

// loadAny reads circuits from .qpy, .qgt (tensor file) or .qasm by
// extension.
func loadAny(path string) ([]*circuit.Circuit, error) {
	switch {
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

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	kind := fs.String("kind", "random", "workload kind: random | qft | ghz")
	qubits := fs.Int("qubits", 8, "number of qubits")
	blocks := fs.Int("blocks", randcirc.ShortBlocks, "CX blocks for random circuits")
	count := fs.Int("count", 1, "number of circuits")
	seed := fs.Uint64("seed", 42, "generator seed")
	reverse := fs.Bool("reverse", false, "QFT bit-order reversal swaps")
	measure := fs.Bool("measure", false, "append measure_all")
	out := fs.String("out", "circuits.qpy", "output path (.qpy or .qgt)")
	if err := fs.Parse(args); err != nil {
		return err
	}
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
	if err := saveAny(*out, cs); err != nil {
		return err
	}
	fmt.Printf("wrote %d circuit(s) to %s\n", len(cs), *out)
	return nil
}

func cmdTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ExitOnError)
	in := fs.String("in", "", "input circuits (.qpy or .qgt)")
	fusion := fs.Int("fusion", 0, "gate fusion window (paper default for QFT: 5)")
	prune := fs.Float64("prune", 0, "prune rotations below this angle")
	verbose := fs.Bool("v", false, "print kernel listings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("transform: -in is required")
	}
	cs, err := loadAny(*in)
	if err != nil {
		return err
	}
	kernels, stats, err := core.Transform(cs, core.Options{FusionWindow: *fusion, PruneAngle: *prune})
	if err != nil {
		return err
	}
	for i, k := range kernels {
		st := stats[i]
		fmt.Printf("%-28s %3d qubits  %6d ops -> %6d instrs  (fused %d groups/%d gates, pruned %d)\n",
			k.Name, k.NumQubits, st.SourceOps, st.EmittedOps, st.FusedGroups, st.FusedGates, st.PrunedGates)
		if *verbose {
			fmt.Print(k.String())
		}
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	in := fs.String("in", "", "input circuits (.qpy or .qgt)")
	target := fs.String("target", "nvidia", "execution target: aer | nvidia | nvidia-mgpu | nvidia-mqpu | pennylane")
	devices := fs.Int("devices", 1, "simulated devices for mgpu/mqpu")
	shots := fs.Int("shots", 0, "measurement shots (0 = probabilities only)")
	seed := fs.Uint64("seed", 42, "sampling seed")
	fusion := fs.Int("fusion", 0, "gate fusion window")
	tile := fs.Int("tile", 0, "tiled-executor tile width in qubits (0 = auto from cache geometry, negative = per-gate sweeps)")
	planFusion := fs.Bool("plan-fusion", false, "pre-multiply adjacent same-target 1q gates in the plan compiler")
	storeDir := fs.String("store-dir", "", "persistent result store: reuse bit-identical results across invocations (same content address = no re-simulation)")
	top := fs.Int("top", 8, "top outcomes to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("run: -in is required")
	}
	cs, err := loadAny(*in)
	if err != nil {
		return err
	}
	opts := core.Options{
		Target: backend.Target(*target), Devices: *devices,
		Shots: *shots, Seed: *seed, FusionWindow: *fusion,
		TileBits: *tile, PlanFusion: *planFusion,
	}
	results, stored, err := runWithStore(cs, opts, *storeDir)
	if err != nil {
		return err
	}
	for i, res := range results {
		fromStore := ""
		if stored[i] {
			fromStore = "  (store hit)"
		}
		fmt.Printf("%-28s target=%-12s %v%s", cs[i].Name, res.Target, res.Duration.Round(1e3), fromStore)
		if res.Exchanges > 0 {
			fmt.Printf("  exchanges=%d bytes=%d", res.Exchanges, res.BytesSent)
		}
		if res.AvoidedExchanges > 0 {
			fmt.Printf("  avoided=%d", res.AvoidedExchanges)
		}
		fmt.Println()
		if st := res.PlanStats; st != nil {
			fmt.Printf("    plan: tile=%d runs=%d local=%d global=%d fused=%d relabels=%d free-swaps=%d",
				res.TileBits, st.Runs, st.TileLocal, st.Global, st.FusedOps, st.BitSwaps, st.PermSwaps)
			if st.ExchangeSegs > 0 || st.RankLocal > 0 {
				fmt.Printf(" exch-segs=%d/%dg rank-local=%d", st.ExchangeSegs, st.ExchangeGates, st.RankLocal)
			}
			fmt.Println()
		}
		if res.Counts != nil {
			for _, key := range res.Counts.TopK(*top) {
				fmt.Printf("    %0*b  %d\n", cs[i].NumQubits, key, res.Counts[key])
			}
		} else {
			for j, p := range res.Probabilities {
				if p > 0.01 && j < 1<<16 {
					fmt.Printf("    |%0*b>  %.4f\n", cs[i].NumQubits, j, p)
				}
			}
		}
	}
	return nil
}

// runWithStore executes circuits, serving any whose content address is
// already in the persistent store from disk (bit-identical by the
// store's integrity checks) and writing fresh results back, so repeat
// CLI invocations — like repeat service submissions — never re-simulate
// known work. With no store directory it is a plain backend.RunBatch.
func runWithStore(cs []*circuit.Circuit, opts core.Options, storeDir string) ([]*backend.Result, []bool, error) {
	stored := make([]bool, len(cs))
	if storeDir == "" {
		results, err := backend.RunBatch(cs, opts)
		return results, stored, err
	}
	if opts.Shots == 0 {
		// The seed only drives shot sampling; normalize it out of the
		// content address (as the service does) so probabilities-only
		// runs share a key regardless of -seed.
		opts.Seed = 0
	}
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, nil, err
	}
	sig := opts.StoreSignature()
	results := make([]*backend.Result, len(cs))
	var fresh []*circuit.Circuit
	var freshIdx []int
	for i, c := range cs {
		key := core.CacheKey(c, opts)
		if st.HasResult(key) {
			res, err := st.LoadResult(key, sig)
			if err == nil {
				results[i], stored[i] = res, true
				continue
			}
			if errors.Is(err, store.ErrIntegrity) {
				// Corrupt or mismatched artifact: quarantine and re-simulate.
				st.DropResult(key)
			}
		}
		fresh = append(fresh, c)
		freshIdx = append(freshIdx, i)
	}
	if len(fresh) > 0 {
		ran, err := backend.RunBatch(fresh, opts)
		if err != nil {
			return nil, nil, err
		}
		for j, res := range ran {
			i := freshIdx[j]
			results[i] = res
			if err := st.SaveResult(core.CacheKey(cs[i], opts), sig, res); err != nil {
				fmt.Fprintf(os.Stderr, "qgear: warning: persisting %s: %v\n", cs[i].Name, err)
			}
		}
	}
	return results, stored, nil
}

// cmdExpect is the expectation-value job kind on the CLI: load
// circuits, build a Hamiltonian (a JSON spec, a ZZ chain, or the
// built-in transverse-field Ising model), and print the exact ⟨H⟩ per
// circuit. With -store-dir, repeat invocations answer from the
// persistent store under the (fingerprint, hamiltonian hash, options)
// content address — the same artifacts qgear-serve warm-starts from.
func cmdExpect(args []string) error {
	fs := flag.NewFlagSet("expect", flag.ExitOnError)
	in := fs.String("in", "", "input circuits (.qpy, .qgt or .qasm)")
	target := fs.String("target", "nvidia", "execution target: aer | nvidia | nvidia-mgpu | nvidia-mqpu | pennylane")
	devices := fs.Int("devices", 1, "simulated devices for mgpu (memory pooling) / mqpu (term-parallel evaluation)")
	fusion := fs.Int("fusion", 0, "gate fusion window")
	tile := fs.Int("tile", 0, "tiled-executor tile width in qubits (0 = auto, negative = per-gate sweeps)")
	hamFile := fs.String("hamiltonian", "", "Hamiltonian JSON file ({\"qubits\":n,\"terms\":[{\"coef\":c,\"paulis\":[{\"q\":0,\"p\":\"Z\"},...]}]})")
	zz := fs.Float64("zz", 0, "build a ZZ-chain Hamiltonian -J·ΣZiZi+1 with this coupling instead of a file")
	tfimJ := fs.Float64("tfim-j", 1, "built-in transverse-field Ising coupling J (used when no -hamiltonian/-zz)")
	tfimG := fs.Float64("tfim-g", 1, "built-in transverse-field Ising field g")
	storeDir := fs.String("store-dir", "", "persistent store: reuse bit-identical expectation values across invocations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("expect: -in is required")
	}
	cs, err := loadAny(*in)
	if err != nil {
		return err
	}
	opts := core.Options{
		Target: backend.Target(*target), Devices: *devices,
		FusionWindow: *fusion, TileBits: *tile,
	}

	// The Hamiltonian spans the widest loaded circuit unless a JSON
	// spec pins its own width.
	width := 0
	for _, c := range cs {
		if c.NumQubits > width {
			width = c.NumQubits
		}
	}
	h, hname, err := buildHamiltonian(*hamFile, *zz, *tfimJ, *tfimG, width)
	if err != nil {
		return err
	}

	var st *store.Store
	var sig string
	if *storeDir != "" {
		if st, err = store.Open(*storeDir); err != nil {
			return err
		}
		sig = opts.StoreSignature()
	}
	fmt.Printf("hamiltonian: %s (%d terms, hash %.12s…)\n", hname, len(h.Terms), h.Fingerprint())
	for _, c := range cs {
		if c.NumQubits < h.NumQubits {
			return fmt.Errorf("expect: hamiltonian spans %d qubits, circuit %q has %d", h.NumQubits, c.Name, c.NumQubits)
		}
		res, hit, err := expectWithStore(c, h, opts, st, sig)
		if err != nil {
			return err
		}
		fromStore := ""
		if hit {
			fromStore = "  (store hit)"
		}
		fmt.Printf("%-28s target=%-12s ⟨H⟩ = %+.12f  terms=%d  %v%s\n",
			c.Name, res.Target, *res.ExpValue, res.ExpTerms, res.Duration.Round(1e3), fromStore)
	}
	return nil
}

// cmdSweep is the sweep job kind on the CLI: load one parameterized
// circuit, evaluate it at many parameter points under a single
// compile-once execution (the plan compiles once and is rebound per
// point), and print per-point ⟨H⟩ values or sampled counts. With
// -gradient it computes the exact parameter-shift gradient at the
// circuit's stored parameter values instead.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	in := fs.String("in", "", "input circuit (.qpy, .qgt or .qasm; first circuit is swept)")
	target := fs.String("target", "nvidia", "execution target: aer | nvidia | nvidia-mgpu | nvidia-mqpu | pennylane")
	devices := fs.Int("devices", 1, "simulated devices for mgpu / mqpu (mqpu fans sweep points across devices)")
	tile := fs.Int("tile", 0, "tiled-executor tile width in qubits (0 = auto, negative = per-gate sweeps)")
	pointsFile := fs.String("points", "", "JSON point matrix [[θ0,...],[θ0,...],...]; one row per sweep point")
	grid := fs.String("grid", "", "linear grid start:stop:count for single-parameter circuits (e.g. 0:6.28:100)")
	gradient := fs.Bool("gradient", false, "compute the parameter-shift gradient at the circuit's own parameter values")
	counts := fs.Bool("counts", false, "sample measurement counts per point instead of ⟨H⟩ (requires -shots)")
	shots := fs.Int("shots", 0, "measurement shots per point for -counts mode")
	seed := fs.Uint64("seed", 42, "base sampling seed (each point derives its own)")
	hamFile := fs.String("hamiltonian", "", "Hamiltonian JSON file (see qgear expect)")
	zz := fs.Float64("zz", 0, "ZZ-chain Hamiltonian coupling instead of a file")
	tfimJ := fs.Float64("tfim-j", 1, "built-in transverse-field Ising coupling J")
	tfimG := fs.Float64("tfim-g", 1, "built-in transverse-field Ising field g")
	top := fs.Int("top", 4, "top outcomes to print per point in -counts mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("sweep: -in is required")
	}
	cs, err := loadAny(*in)
	if err != nil {
		return err
	}
	c := cs[0]
	nParams := c.NumParams()
	if nParams == 0 {
		return fmt.Errorf("sweep: circuit %q has no parameterized gates", c.Name)
	}
	opts := core.Options{
		Target: backend.Target(*target), Devices: *devices, TileBits: *tile,
	}

	if *gradient {
		h, hname, err := buildHamiltonian(*hamFile, *zz, *tfimJ, *tfimG, c.NumQubits)
		if err != nil {
			return err
		}
		res, err := backend.RunGradient(c, h, c.ParamValues(), opts)
		if err != nil {
			return err
		}
		fmt.Printf("hamiltonian: %s   points=%d rebinds=%d compiles=%d   %v\n",
			hname, res.SweepPoints, res.Rebinds, res.SweepCompiles, res.Duration.Round(1e3))
		fmt.Printf("⟨H⟩ = %+.12f\n", *res.ExpValue)
		for j, g := range res.Gradient {
			fmt.Printf("  ∂⟨H⟩/∂θ%-3d = %+.12f\n", j, g)
		}
		return nil
	}

	points, err := sweepPoints(*pointsFile, *grid, nParams)
	if err != nil {
		return err
	}
	var h *observable.Hamiltonian
	hname := "(none: sampling counts)"
	if *counts {
		if *shots <= 0 {
			return fmt.Errorf("sweep: -counts requires -shots > 0")
		}
		opts.Shots, opts.Seed = *shots, *seed
	} else {
		if h, hname, err = buildHamiltonian(*hamFile, *zz, *tfimJ, *tfimG, c.NumQubits); err != nil {
			return err
		}
	}
	res, err := backend.RunSweep(c, h, points, opts)
	if err != nil {
		return err
	}
	name := c.Name
	if name == "" {
		name = filepath.Base(*in)
	}
	fmt.Printf("%s: %d params, %d points   hamiltonian: %s\n", name, nParams, len(points), hname)
	fmt.Printf("compile-once: rebinds=%d compiles=%d   target=%s   %v\n",
		res.Rebinds, res.SweepCompiles, res.Target, res.Duration.Round(1e3))
	for i, pt := range points {
		if h != nil {
			fmt.Printf("  point %-5d %v  ⟨H⟩ = %+.12f\n", i, fmtPoint(pt), res.SweepValues[i])
			continue
		}
		fmt.Printf("  point %-5d %v\n", i, fmtPoint(pt))
		for _, key := range res.SweepCounts[i].TopK(*top) {
			fmt.Printf("    %0*b  %d\n", c.NumQubits, key, res.SweepCounts[i][key])
		}
	}
	return nil
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

// buildHamiltonian resolves the CLI's Hamiltonian source precedence:
// explicit JSON file, then ZZ chain, then the built-in TFIM.
func buildHamiltonian(hamFile string, zz, tfimJ, tfimG float64, width int) (*observable.Hamiltonian, string, error) {
	switch {
	case hamFile != "":
		raw, err := os.ReadFile(hamFile)
		if err != nil {
			return nil, "", err
		}
		var wire service.WireHamiltonian
		if err := json.Unmarshal(raw, &wire); err != nil {
			return nil, "", fmt.Errorf("expect: parsing %s: %w", hamFile, err)
		}
		if wire.Qubits == 0 {
			wire.Qubits = width
		}
		h, err := wire.ToHamiltonian()
		if err != nil {
			return nil, "", fmt.Errorf("expect: %s: %w", hamFile, err)
		}
		return h, hamFile, nil
	case zz != 0:
		h := &observable.Hamiltonian{NumQubits: width}
		for i := 0; i+1 < width; i++ {
			h.Add(observable.NewTerm(-zz, map[int]observable.Pauli{i: observable.Z, i + 1: observable.Z}))
		}
		return h, fmt.Sprintf("zz-chain(J=%g)", zz), nil
	default:
		return observable.TransverseFieldIsing(width, tfimJ, tfimG),
			fmt.Sprintf("tfim(J=%g, g=%g)", tfimJ, tfimG), nil
	}
}

// expectWithStore answers one expectation job from the persistent
// store when its content address is known, simulating (and persisting)
// otherwise — the CLI mirror of the server's warm-start path.
func expectWithStore(c *circuit.Circuit, h *observable.Hamiltonian, opts core.Options, st *store.Store, sig string) (*backend.Result, bool, error) {
	if st == nil {
		res, err := backend.RunExpectation(c, h, opts)
		return res, false, err
	}
	key := core.ExpectationCacheKey(c, h, opts)
	if st.HasResult(key) {
		res, err := st.LoadResult(key, sig)
		if err == nil && res.ExpValue != nil {
			return res, true, nil
		}
		if errors.Is(err, store.ErrIntegrity) {
			st.DropResult(key)
		}
	}
	res, err := backend.RunExpectation(c, h, opts)
	if err != nil {
		return nil, false, err
	}
	if err := st.SaveResult(key, sig, res); err != nil {
		fmt.Fprintf(os.Stderr, "qgear: warning: persisting %s: %v\n", c.Name, err)
	}
	return res, false, nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "input circuits (.qpy or .qgt)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("info: -in is required")
	}
	cs, err := loadAny(*in)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d circuit(s)\n", *in, len(cs))
	for _, c := range cs {
		fmt.Printf("  %-28s %3d qubits  %6d ops  depth %5d  2q-gates %6d  2q-depth %5d\n",
			c.Name, c.NumQubits, c.NumOps(), c.Depth(), c.CountTwoQubit(), c.TwoQubitDepth())
	}
	return nil
}
