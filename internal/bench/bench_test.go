package bench

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func testRunner() *Runner {
	r := NewRunner(2026)
	return r // Workers 0 = all cores, like the GPU targets default
}

// Wall-clock comparisons ("parallel faster than serial") are properties
// of the hardware as much as of the code: on a single-core or loaded CI
// box the parallel engine legitimately loses. The helpers below keep
// the timing checks as regression tripwires where they can hold
// (several idle cores, not -short) and degrade them to logged
// observations elsewhere, so the deterministic shape assertions remain
// the tests' backbone.

// timingReliable reports whether measured speedup assertions are
// meaningful on this run: parallelism needs spare cores, and -short
// asks for load-tolerant behavior.
func timingReliable() bool {
	return !testing.Short() && runtime.NumCPU() >= 4
}

// timingSlack is the multiplicative grace given to timing comparisons
// even on capable machines, absorbing CI scheduling noise.
const timingSlack = 1.5

// assertFaster checks that the measured fast path beat the slow path.
// Inversions fail only on machines where the comparison is reliable and
// the loss exceeds timingSlack; otherwise they are logged.
func assertFaster(t *testing.T, label string, slow, fast float64) {
	t.Helper()
	if fast < slow {
		return
	}
	switch {
	case !timingReliable():
		t.Logf("%s: timing inversion tolerated (fast=%.3gs slow=%.3gs; NumCPU=%d, short=%v)",
			label, fast, slow, runtime.NumCPU(), testing.Short())
	case fast <= slow*timingSlack:
		t.Logf("%s: within CI slack (fast=%.3gs slow=%.3gs)", label, fast, slow)
	default:
		t.Errorf("%s: fast path %.3gs slower than slow path %.3gs beyond %.1fx slack",
			label, fast, slow, timingSlack)
	}
}

// assertScalingExponent checks a measured 2^(b·n) growth fit. The
// asymptotic exponent only emerges cleanly on quiet machines; elsewhere
// a clearly-degenerate fit still fails but noise does not.
func assertScalingExponent(t *testing.T, label string, b, want float64) {
	t.Helper()
	if b >= want {
		return
	}
	if !timingReliable() {
		if b < want/2 {
			t.Errorf("%s: scaling exponent %.2f degenerate even for a loaded machine (want >= %.2f)", label, b, want/2)
			return
		}
		t.Logf("%s: scaling exponent %.2f below %.2f tolerated (NumCPU=%d, short=%v)",
			label, b, want, runtime.NumCPU(), testing.Short())
		return
	}
	t.Errorf("%s: scaling exponent %.2f too flat (want >= %.2f)", label, b, want)
}

// assertSeriesMeasured checks the deterministic backbone of a measured
// series: the expected number of points, each with positive time.
func assertSeriesMeasured(t *testing.T, s Series, wantPoints int) {
	t.Helper()
	if len(s.Points) != wantPoints {
		t.Fatalf("series %q has %d points, want %d", s.Label, len(s.Points), wantPoints)
	}
	for _, p := range s.Points {
		if p.Y <= 0 {
			t.Fatalf("series %q has non-positive time %g at x=%g", s.Label, p.Y, p.X)
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	exp, err := testRunner().Fig1()
	if err != nil {
		t.Fatal(err)
	}
	cpu, gpu := exp.Series[0], exp.Series[1]
	// The CPU curve must stop at its memory wall (34 qubits fp64)
	// while the GPU curve continues to 42.
	if last := cpu.Points[len(cpu.Points)-1].X; last != 34 {
		t.Fatalf("CPU wall at %g, want 34", last)
	}
	if last := gpu.Points[len(gpu.Points)-1].X; last != 42 {
		t.Fatalf("GPU reach %g, want 42", last)
	}
	// Performance gap: GPU below CPU everywhere they overlap.
	for _, p := range cpu.Points {
		g := interpY(gpu, p.X)
		if g >= p.Y {
			t.Fatalf("no gap at %g qubits: cpu %g vs gpu %g", p.X, p.Y, g)
		}
	}
}

func TestFig4aShapes(t *testing.T) {
	exp, err := testRunner().Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Series) != 11 {
		t.Fatalf("%d series", len(exp.Series))
	}
	// Deterministic backbone: every measured series covers the local
	// qubit sweep with positive times.
	nPts := len(testRunner().localQubitRange())
	for _, s := range exp.Series[:5] {
		assertSeriesMeasured(t, s, nPts)
	}
	// Measured: serial slower than parallel at the largest local size
	// (tolerance-guarded; see assertFaster).
	serial, parallel := exp.Series[0], exp.Series[1]
	li := len(serial.Points) - 1
	assertFaster(t, "fig4a parallel engine", serial.Points[li].Y, parallel.Points[li].Y)
	// Measured: serial scaling is exponential-ish (exponent ≥ 0.5; the
	// asymptotic 1.0 emerges at larger sizes).
	assertScalingExponent(t, "fig4a serial", fitExponentBase2(serial.Points), 0.5)
	// Modeled walls: 1-GPU series must stop at 32 qubits, 4-GPU at 34.
	for _, s := range exp.Series {
		switch s.Label {
		case "model: 1-GPU, short", "model: 1-GPU, long":
			if last := s.Points[len(s.Points)-1].X; last != 32 {
				t.Fatalf("%s wall at %g, want 32", s.Label, last)
			}
		case "model: 4-GPU, short", "model: 4-GPU, long":
			if last := s.Points[len(s.Points)-1].X; last != 34 {
				t.Fatalf("%s wall at %g, want 34", s.Label, last)
			}
		}
	}
	// Modeled headline ratio within two-orders-of-magnitude band.
	cpuLong, gpuLong := exp.Series[6], exp.Series[8]
	ratio := interpY(cpuLong, 32) / interpY(gpuLong, 32)
	if ratio < 100 || ratio > 1000 {
		t.Fatalf("CPU/GPU ratio %.0f outside [100,1000]", ratio)
	}
	// Long/short ratio ~10 locally (10x block scale-down). Load is
	// common-mode across the back-to-back runs, so this ratio is
	// robust where absolute orderings are not; the band is generous.
	longSerial := exp.Series[3]
	if r := longSerial.Points[li].Y / serial.Points[li].Y; r < 2 || r > 60 {
		t.Fatalf("local long/short ratio %.1f implausible for 10x gates", r)
	}
}

func TestFig4bShapes(t *testing.T) {
	exp, err := testRunner().Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	var s256, s1024 *Series
	for i := range exp.Series {
		switch exp.Series[i].Label {
		case "model: 256 GPUs":
			s256 = &exp.Series[i]
		case "model: 1024 GPUs":
			s1024 = &exp.Series[i]
		}
	}
	if s256 == nil || s1024 == nil {
		t.Fatal("series missing")
	}
	// The reversal: 1024 faster at 39, slower at 40.
	if !(interpY(*s1024, 39) < interpY(*s256, 39)) {
		t.Fatal("no 1024-GPU advantage at 39 qubits")
	}
	if !(interpY(*s1024, 40) > interpY(*s256, 40)) {
		t.Fatal("no reversal at 40 qubits")
	}
	// 42 qubits only fits on the largest pools and lands minutes-scale.
	last := s1024.Points[len(s1024.Points)-1]
	if last.X != 42 {
		t.Fatalf("1024-GPU reach %g, want 42", last.X)
	}
	if last.Y < 2 || last.Y > 30 {
		t.Fatalf("42q time %.1f min outside minutes scale", last.Y)
	}
	// Small pools cannot hold large states: the 4-GPU series stops
	// well before 42.
	if exp.Series[0].Points[len(exp.Series[0].Points)-1].X >= 40 {
		t.Fatal("4-GPU series should hit its memory wall in the 30s")
	}
}

func TestFig4cShapes(t *testing.T) {
	exp, err := testRunner().Fig4c()
	if err != nil {
		t.Fatal(err)
	}
	qg, pl := exp.Series[0], exp.Series[1]
	// Deterministic backbone: both engines measured at every sweep point.
	nPts := len(testRunner().localQubitRange())
	assertSeriesMeasured(t, qg, nPts)
	assertSeriesMeasured(t, pl, nPts)
	// Measured: the pennylane baseline is slower at every local point
	// (tolerance-guarded: race instrumentation or load can shrink the
	// per-gate transpile penalty below the sweep noise).
	for i := range qg.Points {
		assertFaster(t, "fig4c q-gear vs pennylane", pl.Points[i].Y, qg.Points[i].Y)
	}
	// Modeled: same ordering across the paper range.
	mq, mp := exp.Series[2], exp.Series[3]
	for i := range mq.Points {
		if mp.Points[i].Y <= mq.Points[i].Y {
			t.Fatal("modeled pennylane not slower")
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	exp, err := testRunner().Fig5()
	if err != nil {
		t.Fatal(err)
	}
	mcpu, mgpuS := exp.Series[0], exp.Series[1]
	// Deterministic backbone: one measured point per image config,
	// positive times, pixel counts strictly increasing.
	assertSeriesMeasured(t, mcpu, len(localImageConfigs))
	assertSeriesMeasured(t, mgpuS, len(localImageConfigs))
	for i := 1; i < len(mcpu.Points); i++ {
		if mcpu.Points[i].X <= mcpu.Points[i-1].X {
			t.Fatal("image sizes not increasing")
		}
	}
	// Measured: both curves grow with pixel count.
	for i := 1; i < len(mcpu.Points); i++ {
		if mcpu.Points[i].Y <= mcpu.Points[i-1].Y/2 {
			t.Fatal("measured CPU time not growing with image size")
		}
	}
	// Measured: parallel engine faster at the largest image
	// (tolerance-guarded).
	li := len(mcpu.Points) - 1
	assertFaster(t, "fig5 parallel engine on largest image", mcpu.Points[li].Y, mgpuS.Points[li].Y)
	// Modeled: speedup positive everywhere and shrinking with size.
	mc, mg := exp.Series[2], exp.Series[3]
	first := mc.Points[0].Y / mg.Points[0].Y
	last := mc.Points[len(mc.Points)-1].Y / mg.Points[len(mg.Points)-1].Y
	if first < 10 {
		t.Fatalf("modeled small-image speedup %.1fx too small (paper ~100x)", first)
	}
	if last >= first {
		t.Fatalf("modeled speedup should shrink with size: %.1fx -> %.1fx", first, last)
	}
}

func TestFig6ReconstructionQuality(t *testing.T) {
	exp, err := testRunner().Fig6()
	if err != nil {
		t.Fatal(err)
	}
	tbl := exp.Tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d image rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		mae, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		corr, err := strconv.ParseFloat(row[8], 64)
		if err != nil {
			t.Fatal(err)
		}
		// Shot-noise-limited: MAE well under 0.1, correlation high —
		// the Fig. 6 quality regime.
		if mae > 0.1 {
			t.Fatalf("%s: MAE %.3f too high", row[0], mae)
		}
		if corr < 0.97 {
			t.Fatalf("%s: correlation %.3f too low", row[0], corr)
		}
	}
}

func TestTable1And2(t *testing.T) {
	exp, err := testRunner().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Tables[0].Rows) != 5 {
		t.Fatal("table1 rows")
	}
	exp2, err := testRunner().Table2()
	if err != nil {
		t.Fatal(err)
	}
	rows := exp2.Tables[0].Rows
	if len(rows) != 6 {
		t.Fatal("table2 rows")
	}
	// Spot-check the finger row against the paper.
	if rows[0][0] != "finger" || rows[0][3] != "10" || rows[0][4] != "5" || rows[0][5] != "3072000" {
		t.Fatalf("finger row %v", rows[0])
	}
}

func TestAppendixC(t *testing.T) {
	exp, err := testRunner().AppendixC()
	if err != nil {
		t.Fatal(err)
	}
	pts, sizes := exp.Series[0].Points, exp.Series[1].Points
	if len(pts) != 3 || len(sizes) != 3 {
		t.Fatal("encode-time points")
	}
	// "Nearly constant" rests on what no clock can move: at a fixed
	// capacity the tensors are the same size across a 25x gate-count
	// range. The millisecond-scale timings are reported, not asserted.
	if sizes[0].Y <= 0 || sizes[1].Y != sizes[0].Y || sizes[2].Y != sizes[0].Y {
		t.Fatalf("tensor bytes at fixed capacity vary with the gate count: %v", sizes)
	}
	t.Logf("encode time spread across the range: %.1fx", pts[2].Y/pts[0].Y)
	// The compression note must report a real saving.
	found := false
	for _, n := range exp.Notes {
		if strings.Contains(n, "compression saves") {
			found = true
		}
	}
	if !found {
		t.Fatal("compression note missing")
	}
}

func TestTheoremB3(t *testing.T) {
	r := testRunner()
	r.Workers = 2
	exp, err := r.TheoremB3()
	if err != nil {
		t.Fatal(err)
	}
	serial := exp.Series[0]
	assertSeriesMeasured(t, serial, 3) // the non-Large sweep: 12, 14, 16 qubits
	assertScalingExponent(t, "thmB3 per-gate", fitExponentBase2(serial.Points), 0.5)
	// The workers axis is the powers of two up to Runner.Workers:
	// strictly ascending, so no point repeats and the closing note's
	// "speedup at N workers" names the widest run.
	speed := exp.Series[1]
	if len(speed.Points) != 2 || speed.Points[0].X != 1 || speed.Points[1].X != 2 {
		t.Fatalf("workers axis %v, want x = 1, 2", speed.Points)
	}
	if speed.Points[0].Y != 1 {
		t.Fatalf("1-worker speedup %.2f, want exactly 1 (self-relative)", speed.Points[0].Y)
	}
	if note := exp.Notes[len(exp.Notes)-1]; !strings.Contains(note, "speedup at 2 workers") {
		t.Fatalf("closing note %q does not report the 2-worker point", note)
	}
	// The local box saturates its RAM bandwidth well below core count
	// (the same wall that caps real state-vector engines); assert the
	// mechanism shows where it can (tolerance-guarded: a 1-core box has
	// no parallelism to measure), not a specific multiple.
	lastSpeedup := speed.Points[len(speed.Points)-1].Y
	switch {
	case lastSpeedup >= 1.3:
	case !timingReliable():
		t.Logf("thmB3: parallel speedup %.2fx below 1.3x tolerated (NumCPU=%d, short=%v)",
			lastSpeedup, runtime.NumCPU(), testing.Short())
	case lastSpeedup < 1.05:
		t.Errorf("thmB3: parallel speedup %.2fx shows no gain despite %d cores", lastSpeedup, runtime.NumCPU())
	default:
		t.Logf("thmB3: parallel speedup %.2fx below 1.3x but within CI slack", lastSpeedup)
	}
}

func TestMqpu(t *testing.T) {
	exp, err := testRunner().Mqpu()
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic backbone: exactly the two modes, both measured.
	assertSeriesMeasured(t, exp.Series[0], 2)
	pts := exp.Series[0].Points
	if pts[0].X != 1 || pts[1].X != 2 {
		t.Fatalf("mode axis %g,%g, want 1,2", pts[0].X, pts[1].X)
	}
	// Measured: the 4-QPU batch beats sequential (tolerance-guarded).
	assertFaster(t, "mqpu batch", pts[0].Y, pts[1].Y)
}

func TestRunAllAndRegistry(t *testing.T) {
	if len(experiments) != 11 {
		t.Fatalf("%d experiments registered, want 11", len(experiments))
	}
	// Every row explains itself, and the index prints the table in
	// table order — the order RunAll runs it in.
	var index bytes.Buffer
	PrintIndex(&index)
	lines := strings.Split(strings.TrimSpace(index.String()), "\n")
	if len(lines) != len(experiments) {
		t.Fatalf("index has %d lines for %d experiments", len(lines), len(experiments))
	}
	seen := map[string]bool{}
	for i, e := range experiments {
		if e.id == "" || e.title == "" || e.paper == "" || e.run == nil {
			t.Errorf("row %d (%q) has an empty id, title, paper reference or run", i, e.id)
		}
		if seen[e.id] {
			t.Errorf("id %q registered twice", e.id)
		}
		seen[e.id] = true
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.id {
			t.Errorf("index line %d is %q, want id %q first", i, lines[i], e.id)
		}
		if !strings.Contains(lines[i], e.paper) || !strings.Contains(lines[i], e.title) {
			t.Errorf("index line %q lacks the paper reference or title", lines[i])
		}
	}
	r := testRunner()
	var buf bytes.Buffer
	// Run the cheap static ones through the dispatcher.
	for _, id := range []string{"table1", "table2", "fig4b"} {
		if err := r.Run(id, &buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, want := range []string{"== table1: experiment configurations", "== table2", "== fig4b", "reversal"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	if err := r.Run("nope", &buf); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("unknown experiment: err = %v, want ErrUnknownExperiment", err)
	}
}

func TestSeriesAndTablePrinting(t *testing.T) {
	var buf bytes.Buffer
	s := Series{Label: "l", XLabel: "x", YLabel: "y", Points: []Point{{X: 1, Y: 2}, {X: 3, Y: 4, Err: 0.5}}}
	s.Print(&buf)
	if !strings.Contains(buf.String(), "±0.5") {
		t.Fatal("error bar not printed")
	}
	buf.Reset()
	tb := Table{Title: "t", Header: []string{"a", "bee"}, Rows: [][]string{{"1", "2"}}}
	tb.Print(&buf)
	if !strings.Contains(buf.String(), "bee") {
		t.Fatal("table header missing")
	}
}

func TestFitExponent(t *testing.T) {
	// Perfect 2^n data fits exponent 1.
	pts := []Point{{X: 10, Y: 1024}, {X: 12, Y: 4096}, {X: 14, Y: 16384}}
	if b := fitExponentBase2(pts); b < 0.99 || b > 1.01 {
		t.Fatalf("fit %g", b)
	}
	if fitExponentBase2(pts[:1]) != 0 {
		t.Fatal("degenerate fit should be 0")
	}
}
