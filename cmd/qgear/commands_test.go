package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"qgear/internal/backend"
	"qgear/internal/bench"
	"qgear/internal/qcrank"
	"qgear/internal/qimage"
)

// TestHelpAndUsage: both levels of help come from the command table —
// every command is listed, every flag of every command is shown with
// its usage and default — and the lines qgear cannot run are usage
// errors, never an exit from inside run.
func TestHelpAndUsage(t *testing.T) {
	var top bytes.Buffer
	if err := run([]string{"-h"}, &top); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("qgear -h: %v, want flag.ErrHelp", err)
	}
	for _, c := range commands {
		if !strings.Contains(top.String(), "\n  "+c.name+" ") {
			t.Errorf("qgear -h does not list %s:\n%s", c.name, top.String())
		}
		t.Run(c.name, func(t *testing.T) {
			var help bytes.Buffer
			if err := run([]string{c.name, "-h"}, &help); !errors.Is(err, flag.ErrHelp) {
				t.Fatalf("qgear %s -h: %v, want flag.ErrHelp", c.name, err)
			}
			// PrintDefaults writes each flag as "  -name [type]" and its
			// usage, on the same line after a tab for a one-letter bool.
			entries := map[string]string{}
			for _, e := range strings.Split(help.String(), "\n  -")[1:] {
				entries[strings.Fields(e)[0]] = e
			}
			fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
			c.flags(fs)
			fs.VisitAll(func(f *flag.Flag) {
				e, ok := entries[f.Name]
				switch {
				case !ok:
					t.Errorf("-%s missing from help:\n%s", f.Name, help.String())
				case !strings.Contains(e, f.Usage):
					t.Errorf("-%s help lacks its usage %q:\n%s", f.Name, f.Usage, e)
				case f.DefValue != "" && f.DefValue != "0" && f.DefValue != "false" && f.DefValue != "0s" &&
					!strings.Contains(e, "(default "+f.DefValue+")") && !strings.Contains(e, "(default "+strconv.Quote(f.DefValue)+")"):
					t.Errorf("-%s help lacks its default %q:\n%s", f.Name, f.DefValue, e)
				}
			})
		})
	}

	for _, tc := range []struct {
		args []string
		is   error // a cause the usage error must carry, if any
	}{
		{nil, nil},
		{[]string{"nope"}, nil},
		{[]string{"run", "-bogus"}, nil},
		{[]string{"generate", "-qubits", "many"}, nil},
		{[]string{"paper", "nope"}, bench.ErrUnknownExperiment},
		{[]string{"paper", "fig4a", "-seed", "7"}, nil},
	} {
		err := run(tc.args, new(bytes.Buffer))
		if !errors.As(err, new(usageError)) || tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("qgear %s: %v, want a usage error (cause %v)", strings.Join(tc.args, " "), err, tc.is)
		}
	}

	var index bytes.Buffer
	bench.PrintIndex(&index)
	for _, args := range [][]string{{"paper"}, {"paper", "-list"}, {"paper", "-list", "fig4a"}} {
		if got := qgear(t, args...); got != index.String() {
			t.Errorf("qgear %s printed\n%s\nwant bench.PrintIndex:\n%s", strings.Join(args, " "), got, index.String())
		}
	}
}

// TestQCrankReconstruction: qgear qcrank prints the metrics of the
// Encode → backend.Run → DecodeCounts pipeline it wraps.
func TestQCrankReconstruction(t *testing.T) {
	const seed, addr, shotsPerAddr = 5, 3, 400
	got := qgear(t, "qcrank", "-width", "8", "-height", "4", "-addr", strconv.Itoa(addr),
		"-shots-per-addr", strconv.Itoa(shotsPerAddr), "-seed", strconv.Itoa(seed))

	img, err := qimage.Synthetic("finger", 8, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := qcrank.NewPlan(img.Pixels(), addr, shotsPerAddr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := qcrank.Encode(img.Pix, plan, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := backend.Run(c, backend.Config{Target: backend.TargetNvidia, Shots: plan.Shots, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	vals, _, err := qcrank.DecodeCounts(res.Counts, plan)
	if err != nil {
		t.Fatal(err)
	}
	reco := img.Clone()
	copy(reco.Pix, vals)
	m, err := qimage.Compare(img, reco)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("reconstruction: MAE %.4f  RMSE %.4f  max|err| %.4f  correlation %.4f\n",
		m.MAE, m.RMSE, m.MaxAbsErr, m.Correlation)
	if !strings.Contains(got, want) {
		t.Fatalf("qgear qcrank printed\n%s\nwant the line\n%s", got, want)
	}
}
