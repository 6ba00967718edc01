package core

import (
	"math"
	"path/filepath"
	"testing"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/observable"
	"qgear/internal/qft"
	"qgear/internal/randcirc"
)

func TestTransformBatch(t *testing.T) {
	circs, err := randcirc.GenerateList(5, 20, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	kernels, stats, err := Transform(circs, Options{FusionWindow: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(kernels) != 4 || len(stats) != 4 {
		t.Fatal("batch sizes wrong")
	}
	for i, st := range stats {
		if st.SourceOps != 60 {
			t.Fatalf("kernel %d: %d source ops", i, st.SourceOps)
		}
		if st.FusedGroups == 0 {
			t.Fatalf("kernel %d: no fusion", i)
		}
	}
}

func TestEndToEndQPYFlow(t *testing.T) {
	// The Fig. 2c pipeline: generate -> save QPY -> (separate program)
	// read QPY -> transform -> execute on GPU target; results must
	// match direct execution.
	dir := t.TempDir()
	path := filepath.Join(dir, "circuits.qpy")
	circs, err := randcirc.GenerateList(5, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveQPY(path, circs); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadQPY(path)
	if err != nil {
		t.Fatal(err)
	}
	results, err := backend.RunBatch(loaded, Options{Target: backend.TargetNvidia, FusionWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := backend.RunBatch(circs, Options{Target: backend.TargetAer})
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		for j := range results[i].Probabilities {
			if math.Abs(results[i].Probabilities[j]-direct[i].Probabilities[j]) > 1e-9 {
				t.Fatalf("circuit %d: QPY flow diverged from direct", i)
			}
		}
	}
}

func TestEndToEndTensorFlow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "circuits.qgt")
	q, err := qft.Circuit(5, true)
	if err != nil {
		t.Fatal(err)
	}
	ghz := circuit.GHZ(5, false)
	if err := SaveTensors(path, []*circuit.Circuit{q, ghz}, 0); err != nil {
		t.Fatal(err)
	}
	circuits, err := LoadTensors(path)
	if err != nil {
		t.Fatal(err)
	}
	results, err := backend.RunBatch(circuits, Options{Target: backend.TargetNvidia})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatal("lost circuits in tensor round trip")
	}
	// QFT|0> = uniform distribution.
	for _, p := range results[0].Probabilities {
		if math.Abs(p-1.0/32) > 1e-9 {
			t.Fatalf("QFT probs wrong after tensor flow: %g", p)
		}
	}
	// GHZ: half mass on |00000>, half on |11111>.
	p := results[1].Probabilities
	if math.Abs(p[0]-0.5) > 1e-9 || math.Abs(p[31]-0.5) > 1e-9 {
		t.Fatal("GHZ probs wrong after tensor flow")
	}
}

func TestSaveTensorsTranspilesWideGates(t *testing.T) {
	// u3 circuits can't tensor-encode directly; SaveTensors must
	// transpile them rather than fail.
	c := circuit.New(2, 0).U3(0.3, 0.4, 0.5, 0).CX(0, 1)
	path := filepath.Join(t.TempDir(), "u3.qgt")
	if err := SaveTensors(path, []*circuit.Circuit{c}, 0); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTensors(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := backend.Run(c, Options{Target: backend.TargetAer})
	if err != nil {
		t.Fatal(err)
	}
	got, err := backend.Run(back[0], Options{Target: backend.TargetAer})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Probabilities {
		if math.Abs(ref.Probabilities[i]-got.Probabilities[i]) > 1e-9 {
			t.Fatal("transpiled tensor encoding changed semantics")
		}
	}
}

func TestErrorPropagation(t *testing.T) {
	if _, err := LoadQPY("/nonexistent.qpy"); err == nil {
		t.Fatal("missing qpy accepted")
	}
	if _, err := LoadTensors("/nonexistent.qgt"); err == nil {
		t.Fatal("missing tensor file accepted")
	}
	bad := &circuit.Circuit{NumQubits: 1, Ops: []circuit.Op{{Gate: 200, Qubits: []int{0}}}}
	if _, _, err := Transform([]*circuit.Circuit{bad}, Options{}); err == nil {
		t.Fatal("invalid circuit transformed")
	}
}

// TestSignatureAndCacheKeyGolden pins the option signatures and all
// four job kinds' content addresses to literal values: persisted
// artifacts and cached results are addressed by these strings, so a
// refactor that moves a byte silently orphans every store directory.
func TestSignatureAndCacheKeyGolden(t *testing.T) {
	o := Options{FusionWindow: 2, PruneAngle: 1e-9, TileBits: 12, PlanFusion: true,
		Target: backend.TargetNvidiaMQPU, Devices: 4, Workers: 3, Shots: 100, Seed: 7}
	c := circuit.New(2, 0)
	c.Name = "g"
	c.RY(0.25, 0)
	c.CX(0, 1)
	c.RY(0.5, 1)
	h := observable.TransverseFieldIsing(2, 1, 0.7)
	for _, tc := range []struct{ name, got, want string }{
		{"Signature", o.Signature(), "f2|p3e112e0be826d695|tnvidia-mqpu|d4|w3|s100|r7|b12|pftrue"},
		{"StoreSignature", o.StoreSignature(), "f2|p3e112e0be826d695|tnvidia-mqpu|d4|w0|s0|r0|b12|pftrue"},
		{"StoreSignature/aer", Options{Target: backend.TargetAer, Workers: 5, Shots: 9, Seed: 1}.StoreSignature(),
			"f0|p0|taer|d0|w0|s0|r0|b0|pffalse"},
		{"StoreSignature/split", Options{Target: backend.TargetNvidia, TileBits: 16}.StoreSignature(),
			"f0|p0|tnvidia|d0|w0|s0|r0|b16|pffalse|split"},
		{"StoreSignature/mgpu", Options{Target: backend.TargetNvidiaMGPU, Devices: 2, TileBits: 16}.StoreSignature(),
			"f0|p0|tnvidia-mgpu|d2|w0|s0|r0|b16|pffalse"},
		{"CacheKey", CacheKey(c, o), "8171640d315f4dc097a0acdaab7a09355468d529ace99e3f9b486093562a1a48"},
		{"ExpectationCacheKey", ExpectationCacheKey(c, h, o), "556a3dd78c2bb1197d33aca8da2258758e4dc4c12ad9c4f86901717cd08c74ff"},
		{"SweepCacheKey/exact", SweepCacheKey(c, h, [][]float64{{0.1, 0.2}, {0.3, 0.4}}, o),
			"c560cb0b0090e20153f965e2e60c9db0d3e5b7e057d69b888e9b5722496291d3"},
		{"SweepCacheKey/sampled", SweepCacheKey(c, nil, [][]float64{{0.1, 0.2}}, o),
			"5684daf7ca28f29b2e486f289e0dc76118d8a751cbed0d314d60908716d75217"},
		{"GradientCacheKey", GradientCacheKey(c, h, c.ParamValues(), o),
			"9fff2113cb06c57a6aeab365a38c91c16c6fdc8119e28c319c7b85cf1123ae2a"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
