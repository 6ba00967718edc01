package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"qgear/internal/backend"
	"qgear/internal/bench"
	"qgear/internal/qcrank"
	"qgear/internal/qimage"
)

// cmdQCrank runs the quantum image-encoding pipeline of the paper's
// §3/Appendix D.3: generate (or load) a grayscale image, encode it as a
// QCrank circuit, simulate with shots on a chosen target, decode the
// measured counts back into an image, and report the Fig. 6
// reconstruction metrics. Optionally writes the input and reconstructed
// images as PGM files.
func cmdQCrank(fs *flag.FlagSet) func(out io.Writer) error {
	kind := fs.String("image", "finger", "synthetic image kind: finger | shoes | building | zebra")
	in := fs.String("in", "", "load a PGM file instead of generating")
	width := fs.Int("width", 32, "synthetic image width")
	height := fs.Int("height", 20, "synthetic image height")
	addr := fs.Int("addr", 6, "address qubits")
	shotsPerAddr := fs.Int("shots-per-addr", qcrank.DefaultShotsPerAddress, "shots per address (paper: 3000)")
	target := fs.String("target", "nvidia", "execution target")
	seed := fs.Uint64("seed", 42, "seed")
	outDir := fs.String("out-dir", "", "write input/reconstructed PGMs here")
	return func(out io.Writer) error {
		var img *qimage.Image
		var err error
		if *in != "" {
			img, err = qimage.LoadPGM(*in)
		} else {
			img, err = qimage.Synthetic(*kind, *width, *height, *seed)
		}
		if err != nil {
			return err
		}

		plan, err := qcrank.NewPlan(img.Pixels(), *addr, *shotsPerAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "image: %s %dx%d (%d px)\n", img.Name, img.W, img.H, img.Pixels())
		fmt.Fprintf(out, "plan: %d address + %d data = %d qubits, %d 2q-gates, %d shots\n",
			plan.AddrQubits, plan.DataQubits, plan.TotalQubits(), plan.TwoQubitGates(), plan.Shots)

		c, err := qcrank.Encode(img.Pix, plan, true)
		if err != nil {
			return err
		}
		res, err := backend.Run(c, backend.Config{
			Target: backend.Target(*target), Shots: plan.Shots, Seed: *seed,
		})
		if err != nil {
			return err
		}
		vals, missing, err := qcrank.DecodeCounts(res.Counts, plan)
		if err != nil {
			return err
		}
		if len(missing) > 0 {
			fmt.Fprintf(out, "warning: %d addresses received no shots\n", len(missing))
		}
		reco := img.Clone()
		copy(reco.Pix, vals)
		m, err := qimage.Compare(img, reco)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "simulated in %v on %s\n", res.Duration.Round(1e6), res.Target)
		fmt.Fprintf(out, "reconstruction: MAE %.4f  RMSE %.4f  max|err| %.4f  correlation %.4f\n",
			m.MAE, m.RMSE, m.MaxAbsErr, m.Correlation)

		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			inPath := filepath.Join(*outDir, "input.pgm")
			outPath := filepath.Join(*outDir, "reconstructed.pgm")
			if err := img.SavePGM(inPath); err != nil {
				return err
			}
			if err := reco.SavePGM(outPath); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s and %s\n", inPath, outPath)
		}
		return nil
	}
}

// cmdPaper regenerates the paper's evaluation artifacts: every figure
// series and table row from §3, the appendix experiments, and this
// reproduction's paper-vs-measured shape notes. It is a reproduction
// aid, not a regression measurement: the numbers a change is judged on
// come from benchmark/ (`make bench-compare`).
func cmdPaper(fs *flag.FlagSet) func(out io.Writer) error {
	seed := fs.Uint64("seed", 2026, "seed for generators and sampling")
	large := fs.Bool("large", false, "widen the measured local sweeps")
	workers := fs.Int("workers", 0, "GPU-stand-in worker goroutines (0 = all cores)")
	list := fs.Bool("list", false, "print the experiment table and exit")
	return func(out io.Writer) error {
		id := fs.Arg(0)
		switch {
		case fs.NArg() > 1:
			return usageError{fmt.Errorf("paper: one experiment id or 'all', got %q", fs.Args())}
		case *list || id == "":
			bench.PrintIndex(out)
			return nil
		}
		r := bench.NewRunner(*seed)
		r.Large, r.Workers = *large, *workers
		var err error
		if id == "all" {
			err = r.RunAll(out)
		} else {
			err = r.Run(id, out)
		}
		if errors.Is(err, bench.ErrUnknownExperiment) {
			var have strings.Builder
			bench.PrintIndex(&have)
			return usageError{fmt.Errorf("%w; have:\n%s", err, strings.TrimSuffix(have.String(), "\n"))}
		}
		return err
	}
}
