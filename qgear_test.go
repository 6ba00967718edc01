package qgear

import (
	"bytes"
	"context"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/cluster"
	"qgear/internal/core"
	"qgear/internal/observable"
	"qgear/internal/qasm"
	"qgear/internal/qcrank"
	"qgear/internal/qft"
	"qgear/internal/qimage"
	"qgear/internal/randcirc"
)

// The facade forwards. Each test hands one input to facade functions and
// to the package functions they wrap, and holds the two results equal
// bit for bit; what the results mean is for the wrapped packages' own
// suites to check.

// must returns v, and panics on an error no test here expects.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// sameFloats fails t unless a and b hold the same float64 bits.
func sameFloats(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values, want %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, a[i], b[i])
		}
	}
}

// sameResult fails t unless a and b hold the same probabilities, counts
// and ⟨H⟩.
func sameResult(t *testing.T, what string, a, b *Result) {
	t.Helper()
	sameFloats(t, what+" probabilities", a.Probabilities, b.Probabilities)
	if !maps.Equal(a.Counts, b.Counts) {
		t.Fatalf("%s: counts %v, want %v", what, a.Counts, b.Counts)
	}
	if (a.ExpValue == nil) != (b.ExpValue == nil) ||
		a.ExpValue != nil && math.Float64bits(*a.ExpValue) != math.Float64bits(*b.ExpValue) {
		t.Fatalf("%s: ⟨H⟩ %v, want %v", what, a.ExpValue, b.ExpValue)
	}
}

// sameCircuit fails t unless a and b are the same circuit, name included.
func sameCircuit(t *testing.T, what string, a, b *Circuit) {
	t.Helper()
	if a.Name != b.Name || a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("%s: circuit %q %s, want %q %s", what, a.Name, a.Fingerprint(), b.Name, b.Fingerprint())
	}
}

func TestQuickstartGHZ(t *testing.T) {
	sameCircuit(t, "GHZ", GHZ(10, true), circuit.GHZ(10, true))
	opts := RunOptions{Target: TargetNvidia, Shots: 100, Seed: 7}
	sameResult(t, "Run", must(Run(GHZ(10, true), opts)), must(backend.Run(circuit.GHZ(10, true), opts)))
}

func TestTransformSurface(t *testing.T) {
	c := must(QFT(6, true))
	sameCircuit(t, "QFT", c, must(qft.Circuit(6, true)))
	opts := RunOptions{PruneAngle: 0.1}
	k, st, err := Transform(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	ks, sts, err := core.Transform([]*Circuit{c}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(k, ks[0]) || st != sts[0] {
		t.Fatalf("Transform: %+v, want %+v", st, sts[0])
	}
}

func TestWorkloadGenerators(t *testing.T) {
	spec := RandomUnitarySpec{Qubits: 4, Blocks: 10, Seed: 1}
	sameCircuit(t, "RandomUnitary", must(RandomUnitary(spec)), must(randcirc.Generate(spec)))
	got, want := must(RandomUnitaryList(4, 5, 3, 2)), must(randcirc.GenerateList(4, 5, 3, 2))
	if len(got) != len(want) {
		t.Fatalf("RandomUnitaryList: %d circuits, want %d", len(got), len(want))
	}
	for i := range got {
		sameCircuit(t, "RandomUnitaryList", got[i], want[i])
	}
	// The paper's short, intermediate and long random-unitary depths.
	if ShortBlocks != 100 || IntermediateBlocks != 3000 || LongBlocks != 10000 {
		t.Fatal("paper block constants wrong")
	}
}

func TestQCrankRoundTripViaFacade(t *testing.T) {
	img := must(SyntheticImage("zebra", 8, 4, 3))
	sameFloats(t, "SyntheticImage", img.Pix, must(qimage.Synthetic("zebra", 8, 4, 3)).Pix)
	plan := must(NewQCrankPlan(img.Pixels(), 3, 0))
	if want := must(qcrank.NewPlan(img.Pixels(), 3, 0)); plan != want {
		t.Fatalf("NewQCrankPlan: %+v, want %+v", plan, want)
	}
	c := must(QCrankEncode(img.Pix, plan, false))
	sameCircuit(t, "QCrankEncode", c, must(qcrank.Encode(img.Pix, plan, false)))
	probs := must(backend.Run(c, RunOptions{Target: TargetNvidia})).Probabilities
	vals := must(QCrankDecodeProbs(probs, plan))
	sameFloats(t, "QCrankDecodeProbs", vals, must(qcrank.DecodeProbs(probs, plan)))
	reco := img.Clone()
	copy(reco.Pix, vals)
	if got, want := must(CompareImages(img, reco)), must(qimage.Compare(img, reco)); got != want {
		t.Fatalf("CompareImages: %+v, want %+v", got, want)
	}
}

func TestQCrankShotDecodeViaFacade(t *testing.T) {
	img := must(qimage.Synthetic("finger", 8, 4, 5))
	plan := must(qcrank.NewPlan(img.Pixels(), 3, 500))
	c := must(qcrank.Encode(img.Pix, plan, true))
	counts := must(backend.Run(c, RunOptions{Target: TargetNvidia, Shots: plan.Shots, Seed: 11})).Counts
	got, gotMissing, err := QCrankDecodeCounts(counts, plan)
	if err != nil {
		t.Fatal(err)
	}
	want, wantMissing, err := qcrank.DecodeCounts(counts, plan)
	if err != nil {
		t.Fatal(err)
	}
	sameFloats(t, "QCrankDecodeCounts", got, want)
	if !slices.Equal(gotMissing, wantMissing) {
		t.Fatalf("QCrankDecodeCounts: missing %v, want %v", gotMissing, wantMissing)
	}
}

func TestFileFormatsViaFacade(t *testing.T) {
	dir := t.TempDir()
	cs := []*Circuit{GHZ(4, true), must(QFT(3, false))}
	for _, f := range []struct {
		ext        string
		save, ref  func(string, []*Circuit) error
		load, refL func(string) ([]*Circuit, error)
	}{
		{".qpy", SaveQPY, core.SaveQPY, LoadQPY, core.LoadQPY},
		{".qgt", func(p string, cs []*Circuit) error { return SaveTensors(p, cs, 0) },
			func(p string, cs []*Circuit) error { return core.SaveTensors(p, cs, 0) }, LoadTensors, core.LoadTensors},
	} {
		got, want := filepath.Join(dir, "facade"+f.ext), filepath.Join(dir, "core"+f.ext)
		if err := f.save(got, cs); err != nil {
			t.Fatal(err)
		}
		if err := f.ref(want, cs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(must(os.ReadFile(got)), must(os.ReadFile(want))) {
			t.Fatalf("%s: the facade wrote other bytes", f.ext)
		}
		back, ref := must(f.load(got)), must(f.refL(got))
		if len(back) != len(ref) {
			t.Fatalf("%s: %d circuits loaded, want %d", f.ext, len(back), len(ref))
		}
		for i := range back {
			sameCircuit(t, f.ext, back[i], ref[i])
		}
	}
}

func TestPerformanceModelSurface(t *testing.T) {
	if !slices.Equal(Targets(), backend.Targets()) {
		t.Fatalf("Targets: %v, want %v", Targets(), backend.Targets())
	}
	if !reflect.DeepEqual(Perlmutter(), cluster.Perlmutter()) {
		t.Fatal("Perlmutter differs from cluster.Perlmutter")
	}
}

func TestQASMViaFacade(t *testing.T) {
	c := GHZ(3, true)
	src := must(ExportQASM(c))
	if want := must(qasm.Export(c)); src != want {
		t.Fatalf("ExportQASM:\n%s\nwant\n%s", src, want)
	}
	sameCircuit(t, "ParseQASM", must(ParseQASM(src)), must(qasm.Parse(src)))
}

func TestExpectationViaFacade(t *testing.T) {
	factors := map[int]Pauli{0: PauliZ, 1: PauliX, 2: PauliY}
	term := NewPauliTerm(0.5, factors)
	if want := observable.NewTerm(0.5, factors); !reflect.DeepEqual(term, want) {
		t.Fatalf("NewPauliTerm: %+v, want %+v", term, want)
	}
	h := &Hamiltonian{NumQubits: 3}
	h.Add(term)
	c := GHZ(3, true)
	opts := RunOptions{Target: TargetNvidiaMQPU, Devices: 2}
	sameResult(t, "RunExpectation", must(RunExpectation(c, h, opts)), must(backend.RunExpectation(c, h, opts)))
}

func TestTFIMViaFacade(t *testing.T) {
	if got, want := TransverseFieldIsing(6, 1.25, 0.5), observable.TransverseFieldIsing(6, 1.25, 0.5); !reflect.DeepEqual(got, want) {
		t.Fatalf("TransverseFieldIsing: %v, want %v", got, want)
	}
}

func TestExpectationErrors(t *testing.T) {
	c := NewCircuit(2, 0)
	h := &Hamiltonian{NumQubits: 2}
	h.Add(NewPauliTerm(1, map[int]Pauli{5: PauliZ}))
	opts := RunOptions{Target: TargetNvidia}
	_, err := RunExpectation(c, h, opts)
	_, want := backend.RunExpectation(circuit.New(2, 0), h, opts)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("RunExpectation: error %v, want %v", err, want)
	}
}

func TestPublicRunExpectation(t *testing.T) {
	c := GHZ(6, false)
	h := TransverseFieldIsing(6, 1.5, 0.8)
	opts := RunOptions{Target: TargetNvidia}
	if got, want := ExpectationCacheKey(c, h, opts), core.ExpectationCacheKey(c, h, opts); got != want {
		t.Fatalf("ExpectationCacheKey: %s, want %s", got, want)
	}
	comp, ref := must(Compile(c, opts)), must(backend.Compile(c, opts))
	sameResult(t, "RunCompiled", must(RunCompiled(comp, opts)), must(backend.RunCompiled(ref, opts)))
	sameResult(t, "RunExpectationCompiled", must(RunExpectationCompiled(comp, h, opts)),
		must(backend.RunExpectationCompiled(ref, h, opts)))
}

// serverRun runs c under so on a facade server of the given target.
func serverRun(t *testing.T, target Target, c *Circuit, so SubmitOptions) *Result {
	t.Helper()
	srv := must(NewServer(ServerConfig{Target: target, WorkerPool: 1}))
	defer srv.Close()
	res, info, err := srv.Run(context.Background(), c, so)
	if err != nil || info.State != JobDone {
		t.Fatalf("server job: %+v, %v", info, err)
	}
	return res
}

func TestPublicServerExpectationJob(t *testing.T) {
	c, h := GHZ(8, false), TransverseFieldIsing(8, 1, 0.5)
	sameResult(t, "server expectation job", serverRun(t, TargetAer, c, SubmitOptions{Hamiltonian: h}),
		must(backend.RunExpectation(c, h, RunOptions{Target: TargetAer})))
}

func TestPublicServerAPI(t *testing.T) {
	c := GHZ(12, false)
	sameResult(t, "server simulate job", serverRun(t, TargetAer, c, SubmitOptions{Shots: 100, Seed: 5}),
		must(backend.Run(c, RunOptions{Target: TargetAer, Shots: 100, Seed: 5})))
}

func TestPublicFingerprintAndCacheKey(t *testing.T) {
	c := GHZ(10, false)
	opts := RunOptions{Target: TargetNvidia, PruneAngle: 1e-6}
	if Fingerprint(c) != c.Fingerprint() || StructuralFingerprint(c) != c.StructuralFingerprint() {
		t.Fatal("Fingerprint or StructuralFingerprint differs from the circuit's own")
	}
	if got, want := CacheKey(c, opts), core.CacheKey(c, opts); got != want {
		t.Fatalf("CacheKey: %s, want %s", got, want)
	}
}
