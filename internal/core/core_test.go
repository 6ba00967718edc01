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
	kernels, stats, err := Transform(circs, Options{})
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
	results, err := backend.RunBatch(loaded, Options{Target: backend.TargetNvidia})
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
	o := Options{PruneAngle: 1e-9, TileBits: 12,
		Target: backend.TargetNvidiaMQPU, Devices: 4, Workers: 3, Shots: 100, Seed: 7}
	c := circuit.New(2, 0)
	c.Name = "g"
	c.RY(0.25, 0)
	c.CX(0, 1)
	c.RY(0.5, 1)
	h := observable.TransverseFieldIsing(2, 1, 0.7)
	for _, tc := range []struct{ name, got, want string }{
		{"Signature", o.Signature(), "f0|p3e112e0be826d695|tnvidia-mqpu|d4|w3|s100|r7|b12|pffalse"},
		{"StoreSignature", o.StoreSignature(), "f0|p3e112e0be826d695|tnvidia-mqpu|d4|w0|s0|r0|b12|pffalse|dt"},
		{"StoreSignature/aer", Options{Target: backend.TargetAer, Workers: 5, Shots: 9, Seed: 1}.StoreSignature(),
			"f0|p0|taer|d0|w0|s0|r0|b0|pffalse|dt"},
		{"StoreSignature/split", Options{Target: backend.TargetNvidia, TileBits: 16}.StoreSignature(),
			"f0|p0|tnvidia|d0|w0|s0|r0|b16|pffalse|split|dt"},
		{"StoreSignature/mgpu", Options{Target: backend.TargetNvidiaMGPU, Devices: 2, TileBits: 16}.StoreSignature(),
			"f0|p0|tnvidia-mgpu|d2|w0|s0|r0|b16|pffalse|dt"},
		{"StoreSignature/pennylane", Options{Target: backend.TargetPennylane, TileBits: 14}.StoreSignature(),
			"f0|p0|tpennylane|d0|w0|s0|r0|b14|pffalse|split|dt"},
		{"StoreSignature/pergate", Options{Target: backend.TargetNvidia, TileBits: -1}.StoreSignature(),
			"f0|p0|tnvidia|d0|w0|s0|r0|b0|pffalse|dt"},
		{"StoreSignature/mgpu1", Options{Target: backend.TargetNvidiaMGPU, Devices: 1, TileBits: 16}.StoreSignature(),
			"f0|p0|tnvidia-mgpu|d1|w0|s0|r0|b16|pffalse|dt"},
		{"CacheKey", CacheKey(c, o), "fb8dfe628d625dbf1d012a7cf59485b63d2d5ad37b784270419274ee2e9bd8a8"},
		{"ExpectationCacheKey", ExpectationCacheKey(c, h, o), "a9cef5561f375a48d2022c5de55979bb9772c7b6e1e5b61e908b76dc89b21747"},
		{"SweepCacheKey/exact", SweepCacheKey(c, h, [][]float64{{0.1, 0.2}, {0.3, 0.4}}, o),
			"32beb40523006eeee6da67909e9ae1f16012024350591d2b542a302b4ce239bd"},
		{"SweepCacheKey/sampled", SweepCacheKey(c, nil, [][]float64{{0.1, 0.2}}, o),
			"28697602845351e6a1362d39f4b850e4f7105bdc90706cffa7c7cf7e46688dd6"},
		{"GradientCacheKey", GradientCacheKey(c, h, c.ParamValues(), o),
			"a08ff22a388b96e22945d3706c5d7d1fd91cbb6d096dfd4f55158e3c055e029f"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
