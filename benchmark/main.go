// Command benchmark is the repository's one benchmark: five named
// workloads over the whole stack, end-to-end metrics from untraced runs
// and per-layer metrics from traced runs, every output checked against
// an oracle. README.md in this directory has the tables and commands.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one run of one workload; the last line of standard output is
//	    the result object
//	benchmark [--seed n] [--seconds s] [--out summary.json]
//	    every workload, untraced then traced, each in a fresh child
//	    process; prints every metric by name with its unit
//	benchmark --compare a.json b.json
//	    compares two summaries against the metrics' bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

const (
	// defaultSeed drives every generated input when --seed is absent.
	defaultSeed = 20250928
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 10
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload (default: all, each in a child process)")
		seed         = flag.Uint64("seed", defaultSeed, "seed of every generated input")
		secs         = flag.Float64("seconds", defaultSeconds, "length of the timed region of one run")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spans        = flag.String("spans", "", "traced run: write the spans to this file (all workloads: to <path>.<workload>.json)")
		tmp          = flag.String("tmp", ".bench_build/tmp", "scratch directory, inside the checkout")
		out          = flag.String("out", "", "all workloads: write the summary to this file")
		compare      = flag.Bool("compare", false, "compare two summaries: --compare a.json b.json")
	)
	flag.Parse()
	// The workloads are sized by W and run on every core, whatever the
	// environment's GOMAXPROCS says.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("--compare takes two summary files")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *secs, *trace, *spans, *tmp)
	default:
		err = runAll(*seed, *secs, *spans, *tmp, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose outputs failed an oracle (or whose
// ops failed); the result line has been printed.
var errIncorrect = errors.New("incorrect results")

// runOne runs one workload in this process and prints the host line
// and, last, the result line.
func runOne(name string, seed uint64, secs float64, trace int, spansPath, tmp string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace is 0 or 1, not %d", trace)
	}
	if secs <= 0 {
		return fmt.Errorf("--seconds must be positive, not %g", secs)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	e := env{W: workers(), TmpDir: tmp, Sizes: fullSizes}
	if err := printJSON(hostLine{readHost(seed, tmp)}); err != nil {
		return err
	}
	var res *outcome
	var err error
	if trace == 1 {
		res, err = runTraced(name, seed, secs, e, spansPath)
	} else {
		res, err = runUntraced(name, seed, secs, e)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if err := res.failure(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// hostLine is the first line of every output.
type hostLine struct {
	Host hostInfo `json:"host"`
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// summary is what a run of all workloads writes and --compare reads.
type summary struct {
	Host      hostInfo                    `json:"host"`
	Seconds   float64                     `json:"seconds"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	EndToEnd *outcome `json:"end_to_end"`
	PerLayer *outcome `json:"per_layer"`
}

// runAll runs every workload untraced and then traced, one after
// another, each in a fresh child process of this binary.
func runAll(seed uint64, secs float64, spansPath, tmp, outPath string) error {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	sum := summary{Host: readHost(seed, tmp), Seconds: secs, Workloads: make(map[string]*workloadSummary)}
	if err := printJSON(hostLine{sum.Host}); err != nil {
		return err
	}
	incorrect := false
	for _, w := range workloadSpecs {
		ws := &workloadSummary{}
		sum.Workloads[w.Name] = ws
		for trace, dst := range []**outcome{&ws.EndToEnd, &ws.PerLayer} {
			args := []string{
				"--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(secs),
				"--trace", fmt.Sprint(trace), "--tmp", tmp,
			}
			if trace == 1 && spansPath != "" {
				args = append(args, "--spans", fmt.Sprintf("%s.%s.json", spansPath, w.Name))
			}
			res, err := runChild(args)
			if err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
			}
			*dst = res
			incorrect = incorrect || !res.Correct
		}
		printWorkload(w.Name, ws)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// runChild runs this binary with args and decodes the result object on
// the last line of its standard output. A child that printed a result
// and then exited non-zero (incorrect results) still yields the result.
func runChild(args []string) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child printed no result object: %q", lines[len(lines)-1])
	}
	return &res, nil
}

func printWorkload(name string, ws *workloadSummary) {
	line := func(metric string, v float64, unit string) {
		fmt.Printf("%-12s %-36s %16.9g %s\n", name, metric, v, unit)
	}
	fmt.Printf("%-12s untraced: correct=%t attempted=%d failed=%d\n", name, ws.EndToEnd.Correct, ws.EndToEnd.Attempted, ws.EndToEnd.Failed)
	for _, s := range endToEndSpecs {
		line(s.Name, ws.EndToEnd.Metrics[s.Name].Value, s.Unit)
	}
	fmt.Printf("%-12s traced: correct=%t attempted=%d failed=%d\n", name, ws.PerLayer.Correct, ws.PerLayer.Attempted, ws.PerLayer.Failed)
	for _, s := range perLayerSpecs {
		line(s.Name, ws.PerLayer.Metrics[s.Name].Value, s.Unit)
	}
}
