package qgear

import (
	"math"
	"path/filepath"
	"testing"
)

func TestQuickstartGHZ(t *testing.T) {
	c := GHZ(10, false)
	res, err := Run(c, RunOptions{Target: TargetNvidia})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Probabilities[0]-0.5) > 1e-12 ||
		math.Abs(res.Probabilities[1<<10-1]-0.5) > 1e-12 {
		t.Fatal("GHZ quickstart wrong")
	}
}

func TestTransformSurface(t *testing.T) {
	c, err := QFT(6, true)
	if err != nil {
		t.Fatal(err)
	}
	k, st, err := Transform(c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if k.NumQubits != 6 || st.EmittedOps == 0 {
		t.Fatalf("transform surface wrong: %+v", st)
	}
}

func TestWorkloadGenerators(t *testing.T) {
	r, err := RandomUnitary(RandomUnitarySpec{Qubits: 4, Blocks: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.CountTwoQubit() != 10 {
		t.Fatal("random unitary shape wrong")
	}
	list, err := RandomUnitaryList(4, 5, 3, 2)
	if err != nil || len(list) != 3 {
		t.Fatal("list generation failed")
	}
	if ShortBlocks != 100 || IntermediateBlocks != 3000 || LongBlocks != 10000 {
		t.Fatal("paper block constants wrong")
	}
}

func TestQCrankRoundTripViaFacade(t *testing.T) {
	img, err := SyntheticImage("zebra", 8, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewQCrankPlan(img.Pixels(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := QCrankEncode(img.Pix, plan, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, RunOptions{Target: TargetNvidia})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := QCrankDecodeProbs(res.Probabilities, plan)
	if err != nil {
		t.Fatal(err)
	}
	reco := img.Clone()
	copy(reco.Pix, vals)
	m, err := CompareImages(img, reco)
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxAbsErr > 1e-9 {
		t.Fatalf("exact decode error %g", m.MaxAbsErr)
	}
}

func TestQCrankShotDecodeViaFacade(t *testing.T) {
	img, err := SyntheticImage("finger", 8, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewQCrankPlan(img.Pixels(), 3, 5000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := QCrankEncode(img.Pix, plan, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, RunOptions{Target: TargetNvidia, Shots: plan.Shots, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	vals, missing, err := QCrankDecodeCounts(res.Counts, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("missing addresses: %v", missing)
	}
	reco := img.Clone()
	copy(reco.Pix, vals)
	m, err := CompareImages(img, reco)
	if err != nil {
		t.Fatal(err)
	}
	if m.Correlation < 0.99 {
		t.Fatalf("shot reconstruction correlation %g", m.Correlation)
	}
}

func TestFileFormatsViaFacade(t *testing.T) {
	dir := t.TempDir()
	cs := []*Circuit{GHZ(4, true)}
	qpyPath := filepath.Join(dir, "c.qpy")
	if err := SaveQPY(qpyPath, cs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadQPY(qpyPath)
	if err != nil || len(back) != 1 {
		t.Fatal("qpy facade broken")
	}
	tensorPath := filepath.Join(dir, "c.qgt")
	if err := SaveTensors(tensorPath, cs, 0); err != nil {
		t.Fatal(err)
	}
	back2, err := LoadTensors(tensorPath)
	if err != nil || len(back2) != 1 {
		t.Fatal("tensor facade broken")
	}
}

func TestPerformanceModelSurface(t *testing.T) {
	if len(Targets()) != 5 {
		t.Fatal("targets list wrong")
	}
	pm := Perlmutter()
	if pm.GPU.Name == "" || pm.CPU.Name == "" {
		t.Fatal("model empty")
	}
}
