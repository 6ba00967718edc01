package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"qgear/internal/artifact"
	"qgear/internal/artifact/artifacttest"
	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/qpy"
	"qgear/internal/randcirc"
	"qgear/internal/sampling"
	"qgear/internal/tensorenc"
)

// The store sits on top of every artifact kind, so the tests that walk
// all of them live here.

const fuzzKey = "k|1"

// artifactKind is one row of the all-kinds tables: a small valid
// artifact, its decoder, and a payload whose first array count is
// maximal (what a flipped or crafted length field looks like).
type artifactKind struct {
	name     string
	sample   []byte
	decode   func(data []byte) error
	maxCount func(w *artifact.Writer)
}

func allKinds(t *testing.T) []artifactKind {
	t.Helper()
	c := circuit.GHZ(3, true)
	comp, err := backend.Compile(c, backend.Config{Target: backend.TargetNvidia, TileBits: 2})
	if err != nil || comp.Plan == nil {
		t.Fatalf("compiling the sample circuit: plan %v, err %v", comp.Plan, err)
	}
	circuits, err := qpy.Marshal([]*circuit.Circuit{c})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := tensorenc.Encode([]*circuit.Circuit{c}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tensors, err := enc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// An empty key and signature leave the crafted 64 bytes room to
	// reach a count.
	result, err := encodeResult("", "", goldenResult())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := encodePlan("", "", comp, 7)
	if err != nil {
		t.Fatal(err)
	}
	kinds := compiledKinds(t, "", comp)
	return append(kinds,
		artifactKind{"circuits", circuits,
			func(d []byte) error { _, err := qpy.Unmarshal(d); return err },
			func(w *artifact.Writer) { w.U32(1); w.Str("c"); w.U32(3); w.U32(0); w.U32(math.MaxUint32) }},
		artifactKind{"tensors", tensors,
			func(d []byte) error { _, err := tensorenc.Unmarshal(d); return err },
			func(w *artifact.Writer) { w.U32(math.MaxUint32); w.U32(math.MaxUint32); w.U32(math.MaxUint32) }},
		artifactKind{"result", result,
			func(d []byte) error { _, err := decodeResult(d, "", ""); return err },
			func(w *artifact.Writer) { w.Str(""); w.Str(""); w.U32(math.MaxUint32) }},
		artifactKind{"store plan", plan,
			func(d []byte) error { _, _, err := decodePlan(d, "", ""); return err },
			func(w *artifact.Writer) { w.Str(""); w.Str(""); w.F64(7); kernelHead(w); w.U32(math.MaxUint32) }},
	)
}

// kernelHead writes a 3-qubit kernel's name and register sizes, the
// head of a crafted kernel payload.
func kernelHead(w *artifact.Writer) { w.Str("k"); w.U32(3); w.U32(0) }

// compiledKinds is the plan and compiled rows of comp, each name
// suffixed. The compiled row's maximal count is its kernel's
// instruction count.
func compiledKinds(t *testing.T, suffix string, comp *backend.Compiled) []artifactKind {
	t.Helper()
	var pbuf, cbuf bytes.Buffer
	if err := errors.Join(kernel.EncodePlan(&pbuf, comp.Plan), comp.Encode(&cbuf)); err != nil {
		t.Fatal(err)
	}
	return []artifactKind{
		{"plan" + suffix, pbuf.Bytes(),
			func(d []byte) error { _, err := kernel.DecodePlan(bytes.NewReader(d)); return err },
			func(w *artifact.Writer) { w.U32(2); w.U32(3); w.U32(0); w.U32(math.MaxUint32) }},
		{"compiled" + suffix, cbuf.Bytes(),
			func(d []byte) error { _, err := backend.DecodeCompiled(bytes.NewReader(d)); return err },
			func(w *artifact.Writer) { kernelHead(w); w.U32(math.MaxUint32) }},
	}
}

// TestDecodersBoundAllocation is the regression for counts that reached
// make() unguarded by the input's size (a 4-byte field could ask the
// kernel reader for ~6 GiB): every decoder, handed at most 64 bytes in
// a valid envelope with a valid checksum and a maximal count, must
// refuse without allocating.
func TestDecodersBoundAllocation(t *testing.T) {
	for _, k := range allKinds(t) {
		w := artifact.NewWriter(0)
		k.maxCount(w)
		data, err := w.Seal(artifact.Kind(k.sample[:4]), binary.LittleEndian.Uint16(k.sample[4:]), false)
		if err != nil || len(data) > 64 {
			t.Fatalf("%s: crafted artifact is %d bytes (err %v)", k.name, len(data), err)
		}
		if err := k.decode(k.sample); err != nil {
			t.Fatalf("%s: the sample itself: %v", k.name, err)
		}
		grew := artifacttest.AllocBytes(func() { err = k.decode(data) })
		if err == nil {
			t.Errorf("%s: a maximal count in %d bytes was accepted", k.name, len(data))
		}
		if grew >= 1<<20 {
			t.Errorf("%s: refused only after allocating %d bytes", k.name, grew)
		}
	}
}

// TestByteFlipSweep: flipping any single byte of an artifact of any
// kind, or cutting it to any proper prefix, is an error, never a
// different decoded value — and at the store, for results and plans
// alike, an ErrIntegrity, the class that quarantines the file; Drop
// then clears the index. Beside the small sample of each kind it sweeps
// an 8-qubit randcirc compiled at tile 4 and the fuzz seed circuits,
// whose bytes reach the kernel and plan decoders' every record kind.
func TestByteFlipSweep(t *testing.T) {
	rc, err := randcirc.Generate(randcirc.Spec{Qubits: 8, Blocks: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := backend.Compile(rc, backend.Config{Target: backend.TargetNvidia, TileBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := qpy.Marshal(artifacttest.SeedCircuits(t))
	if err != nil {
		t.Fatal(err)
	}
	kinds := append(allKinds(t), compiledKinds(t, " randcirc", comp)...)
	kinds = append(kinds, artifactKind{name: "circuits seeds", sample: seeds,
		decode: func(d []byte) error { _, err := qpy.Unmarshal(d); return err }})
	for _, k := range kinds {
		// Every byte of a sample under 1 KiB; of the randcirc plans, the
		// last byte and every tenth or so before it.
		for i := len(k.sample) - 1; i >= 0; i -= 1 + len(k.sample)>>10 {
			for _, mask := range []byte{0x01, 0xFF} {
				bad := append([]byte(nil), k.sample...)
				bad[i] ^= mask
				if err := k.decode(bad); err == nil {
					t.Fatalf("%s: byte %d ^ %#x of %d decoded without error", k.name, i, mask, len(bad))
				}
			}
			if err := k.decode(k.sample[:i]); err == nil {
				t.Fatalf("%s: the %d-byte prefix of %d decoded without error", k.name, i, len(k.sample))
			}
		}
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ghz, err := backend.Compile(circuit.GHZ(3, true), backend.Config{Target: backend.TargetNvidia, TileBits: 2})
	if err != nil {
		t.Fatal(err)
	}
	const expKey = "exp|1"
	if err := errors.Join(st.SaveResult(fuzzKey, testSig, goldenResult()), st.SaveResult(expKey, testSig, testExpResult(t)),
		st.SavePlan(fuzzKey, testSig, ghz, 1)); err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		path string
		load func() error
	}{
		{"result", st.resultPath(fuzzKey), func() error { _, err := st.LoadResult(fuzzKey, testSig); return err }},
		{"expectation result", st.resultPath(expKey), func() error { _, err := st.LoadResult(expKey, testSig); return err }},
		{"plan", st.planPath(fuzzKey), func() error { _, _, err := st.LoadPlan(fuzzKey, testSig); return err }},
	} {
		good, err := os.ReadFile(leg.path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range good {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0xFF
			for what, data := range map[string][]byte{"flipped": bad, "cut to": good[:i]} {
				if err := os.WriteFile(leg.path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := leg.load(); !errors.Is(err, ErrIntegrity) {
					t.Fatalf("%s byte %d %s: err = %v, want ErrIntegrity", leg.name, i, what, err)
				}
			}
		}
	}
	st.DropResult(fuzzKey)
	st.DropResult(expKey)
	st.dropKey(kindPlan, fuzzKey)
	if st.HasResult(fuzzKey) || st.HasResult(expKey) {
		t.Fatal("dropped artifacts still indexed")
	}
	if got := st.Stats(); got.ResultEntries != 0 || got.PlanEntries != 0 || got.Bytes != 0 {
		t.Fatalf("stats after drop: %+v", got)
	}
}

// goldenResult carries every section a result artifact can hold.
func goldenResult() *backend.Result {
	ev := -0.625
	return &backend.Result{
		Target: backend.TargetNvidia, NumQubits: 2, Duration: 1500 * time.Microsecond,
		Probabilities: []float64{0.5, 0, 0.125, 0.375},
		Counts:        sampling.Counts{0: 5, 3: 3},
		ExpValue:      &ev, ExpTerms: 3,
		SweepValues: []float64{0.25, -0.25}, SweepPoints: 2, Rebinds: 1, SweepCompiles: 1,
		SweepCounts: []sampling.Counts{{1: 2}, {}},
		Gradient:    []float64{0.5, -0.5, 0},
		KernelStats: kernel.Stats{SourceOps: 4, EmittedOps: 3, Measurements: 2},
		PlanStats:   &kernel.PlanStats{TileLocal: 3, Runs: 1, FusedOps: 1},
		TileBits:    2, Exchanges: 1, BytesSent: 64, AvoidedExchanges: 2,
	}
}

// fusedResult is testdata/result_fused.golden: goldenResult as builds
// with gate fusion wrote it, its kernel statistics counting one fused
// block of two gates. Stores hold such files under this format version,
// so the bytes stay pinned — as a result that must be refused.
func fusedResult(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile("testdata/result_fused.golden")
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestGoldenStoreArtifacts pins the result and plan layouts to
// committed bytes, both ways.
func TestGoldenStoreArtifacts(t *testing.T) {
	data, err := encodeResult("golden|key", testSig, goldenResult())
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeResult(artifacttest.Golden(t, "testdata/result.golden", data), "golden|key", testSig)
	if err != nil || !reflect.DeepEqual(res, goldenResult()) {
		t.Fatalf("golden result decodes to %+v (err %v)", res, err)
	}
	if res, err := decodeResult(fusedResult(t), "golden|key", testSig); err == nil {
		t.Fatalf("a result counting fused blocks decoded to %+v", res)
	}
	// plan.golden is what a build wrote while per-gate execution was the
	// absence of a plan: kernel, a cleared plan flag, transform stats, tile
	// width 0. Stores hold such files under this format version, so the
	// bytes stay pinned — as the artifact that must be refused (and so
	// quarantined and recompiled), not served.
	k := &kernel.Kernel{Name: "golden", NumQubits: 1, Instrs: []kernel.Instr{}}
	stats := kernel.Stats{SourceOps: 1}
	w := artifact.NewWriter(0)
	w.Str("golden|key")
	w.Str(testSig)
	w.F64(12.5)
	kernel.WriteKernel(w, k)
	w.Bool(false)
	kernel.WriteStats(w, stats)
	w.Int(0)
	if data, err = w.Seal(artifact.KindStorePlan, FormatVersion, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodePlan(artifacttest.Golden(t, "testdata/plan.golden", data), "golden|key", testSig); err == nil {
		t.Fatal("a plan-less plan artifact decoded")
	}
	// What the same circuit persists as now: the width-0 plan.
	comp := &backend.Compiled{Kernel: k, Plan: &kernel.TilePlan{NumQubits: 1}, TransformStats: stats}
	if data, err = encodePlan("golden|key", testSig, comp, 12.5); err != nil {
		t.Fatal(err)
	}
	got, cost, err := decodePlan(artifacttest.Golden(t, "testdata/plan_pergate.golden", data), "golden|key", testSig)
	if err != nil || cost != 12.5 || !reflect.DeepEqual(got, comp) {
		t.Fatalf("golden plan decodes to %+v at cost %v (err %v)", got, cost, err)
	}
}

// fuzzResults is one result of each job kind, from the real engines.
func fuzzResults(f *testing.F) []*backend.Result {
	f.Helper()
	cfg := backend.Config{Target: backend.TargetNvidia, Workers: 1, TileBits: 2, Shots: 20, Seed: 5}
	exact := cfg
	exact.Shots = 0
	c := circuit.New(3, 3)
	c.RY(0.3, 0).CX(0, 1).RZ(0.2, 1).CX(1, 2).Measure(0, 0).Measure(1, 1).Measure(2, 2)
	h := observable.TransverseFieldIsing(3, 1, 0.7)
	points := [][]float64{{0.1, 0.2}, {0.3, 0.4}}
	var out []*backend.Result
	for _, run := range []func() (*backend.Result, error){
		func() (*backend.Result, error) { return backend.Run(c, cfg) },
		func() (*backend.Result, error) { return backend.RunExpectation(c, h, exact) },
		func() (*backend.Result, error) { return backend.RunSweep(c, h, points, exact) },
		func() (*backend.Result, error) { return backend.RunSweep(c, nil, points, cfg) },
		func() (*backend.Result, error) { return backend.RunGradient(c, h, points[0], exact) },
	} {
		res, err := run()
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

func FuzzDecodeResult(f *testing.F) {
	var like []byte
	for _, res := range append(fuzzResults(f), goldenResult()) {
		var err error
		if like, err = encodeResult(fuzzKey, testSig, res); err != nil {
			f.Fatal(err)
		}
		f.Add(artifacttest.Payload(f, like))
	}
	f.Add(artifacttest.Payload(f, fusedResult(f)))
	f.Fuzz(func(t *testing.T, payload []byte) {
		artifacttest.FuzzDecoder(t, like, payload, func(sealed []byte) (func() ([]byte, error), error) {
			res, err := decodeResult(sealed, fuzzKey, testSig)
			return func() ([]byte, error) { return encodeResult(fuzzKey, testSig, res) }, err
		})
	})
}

// TestEncodePlanNeverGrowsItsWriter: an uncompressed seal returns the
// writer's own buffer, so one that was sized exactly — from the encoded
// length, not from the smaller resident size — comes back full to
// capacity; a regrown one would not.
func TestEncodePlanNeverGrowsItsWriter(t *testing.T) {
	for i, c := range artifacttest.SeedCircuits(t) {
		comp, err := backend.Compile(c, backend.Config{Target: backend.TargetNvidia, TileBits: 3 - 4*(i%2)})
		if err != nil {
			t.Fatal(err)
		}
		data, err := encodePlan(fuzzKey, testSig, comp, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cap(data) != len(data) {
			t.Errorf("circuit %d: a %d-byte plan artifact came back in a %d-byte buffer", i, len(data), cap(data))
		}
	}
}

func FuzzDecodePlan(f *testing.F) {
	var like []byte
	for i, c := range artifacttest.SeedCircuits(f) {
		comp, err := backend.Compile(c, backend.Config{Target: backend.TargetNvidia, TileBits: 3 - 4*(i%2)})
		if err != nil {
			f.Fatal(err)
		}
		if like, err = encodePlan(fuzzKey, testSig, comp, float64(i)); err != nil {
			f.Fatal(err)
		}
		f.Add(artifacttest.Payload(f, like))
		if comp.Plan.TileBits != 0 {
			continue
		}
		// The per-gate seed, spoiled the three ways the plan reader
		// refuses a width-0 plan: a tile run, a relabeling, rank bits.
		for _, spoil := range []func(p *kernel.TilePlan){
			func(p *kernel.TilePlan) { p.Segments[0] = kernel.Segment{Kind: kernel.SegRun} },
			func(p *kernel.TilePlan) { p.Segments[0] = kernel.Segment{Kind: kernel.SegBitSwap, B: 1} },
			func(p *kernel.TilePlan) { p.GlobalBits = 1 },
		} {
			p := *comp.Plan
			p.Segments = append([]kernel.Segment(nil), p.Segments...)
			spoil(&p)
			bad, err := encodePlan(fuzzKey, testSig, &backend.Compiled{Kernel: comp.Kernel, Plan: &p}, 1)
			if err != nil {
				f.Fatal(err)
			}
			if _, _, err := decodePlan(bad, fuzzKey, testSig); err == nil {
				f.Fatal("an illegal width-0 mix decoded")
			}
			f.Add(artifacttest.Payload(f, bad))
		}
	}
	for _, data := range mgpuPlanSeeds(f) {
		f.Add(artifacttest.Payload(f, data))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		artifacttest.FuzzDecoder(t, like, payload, func(sealed []byte) (func() ([]byte, error), error) {
			comp, cost, err := decodePlan(sealed, fuzzKey, testSig)
			return func() ([]byte, error) { return encodePlan(fuzzKey, testSig, comp, cost) }, err
		})
	})
}

// mgpuPlanSeeds is a plan artifact of a two-rank compile — rank bits
// swapped into the tile and back — followed by the shapes of it the
// plan reader refuses: a swap outside the register, of a position with
// itself, of two rank positions, a sweep with a rank-bit operand, a
// binding site of kind 2, and an exchange segment (kind 3) as older
// builds wrote them.
func mgpuPlanSeeds(f *testing.F) [][]byte {
	f.Helper()
	c := artifacttest.SeedCircuits(f)[2]
	comp, err := backend.Compile(c, backend.Config{Target: backend.TargetNvidiaMGPU, Devices: 4, TileBits: 2})
	if err != nil {
		f.Fatal(err)
	}
	n, local := comp.Plan.NumQubits, comp.Plan.NumQubits-comp.Plan.GlobalBits
	swap := slices.IndexFunc(comp.Plan.Segments, func(seg kernel.Segment) bool { return seg.Kind == kernel.SegBitSwap })
	if comp.Plan.Stats.ExchangeSegs == 0 || len(comp.Plan.Globals) == 0 || len(comp.Plan.Binds) == 0 {
		f.Fatalf("plan %+v has no rank-bit swap, no global sweep or no binding site", comp.Plan.Stats)
	}
	good, err := encodePlan(fuzzKey, testSig, comp, 1)
	if err != nil {
		f.Fatal(err)
	}
	out := [][]byte{good}
	for _, spoil := range []func(p *kernel.TilePlan){
		func(p *kernel.TilePlan) {
			p.Segments[swap] = kernel.Segment{Kind: kernel.SegBitSwap, A: 0, B: int32(n)}
		},
		func(p *kernel.TilePlan) { p.Segments[swap] = kernel.Segment{Kind: kernel.SegBitSwap, A: 1, B: 1} },
		func(p *kernel.TilePlan) {
			p.Segments[swap] = kernel.Segment{Kind: kernel.SegBitSwap, A: int32(local), B: int32(local + 1)}
		},
		func(p *kernel.TilePlan) {
			p.Globals = slices.Clone(p.Globals)
			p.Globals[0].Qubits = []int{local}
		},
		func(p *kernel.TilePlan) {
			p.Binds = slices.Clone(p.Binds)
			p.Binds[0].Kind = 2
		},
	} {
		p := *comp.Plan
		p.Segments = slices.Clone(p.Segments)
		spoil(&p)
		bad, err := encodePlan(fuzzKey, testSig, &backend.Compiled{Kernel: comp.Kernel, Plan: &p, TransformStats: comp.TransformStats}, 1)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, bad)
	}
	w := artifact.NewWriter(0)
	w.Str(fuzzKey)
	w.Str(testSig)
	w.F64(1)
	kernel.WriteKernel(w, comp.Kernel)
	w.Bool(true)
	artifacttest.WriteExchangePlan(w, comp.Plan.TileBits, n)
	kernel.WriteStats(w, comp.TransformStats)
	w.Int(comp.Plan.TileBits)
	legacy, err := w.Seal(artifact.KindStorePlan, FormatVersion, false)
	if err != nil {
		f.Fatal(err)
	}
	out = append(out, legacy)
	for _, bad := range out[1:] {
		if _, _, err := decodePlan(bad, fuzzKey, testSig); err == nil {
			f.Fatal("an illegal distributed plan decoded")
		}
	}
	return out
}

// TestOpenOverParentFormatDirectory: a directory written by the build
// before this format — a manifest stamped FormatVersion 1, HDF5-lite
// results, CRC-wrapped plans — opens without error and empty: nothing
// of it is indexed, served or left on disk outside the accounting, and
// the next Open replays a manifest of this format.
func TestOpenOverParentFormatDirectory(t *testing.T) {
	dir := t.TempDir()
	old := []string{
		filepath.Join(dir, resultsSubdir, "2d", "a03fd0ee.h5"),
		filepath.Join(dir, resultsSubdir, "2d", "a03fd0ee.h5.tmp77-1"),
		filepath.Join(dir, plansSubdir, "82", "f76d3628%7Cb4.plan"),
	}
	for _, p := range old {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("QGH5L1\nnot this build's bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, resultsSubdir, "notes.txt") // flat: not the store's
	if err := os.WriteFile(keep, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	manifestV1 := append(append([]byte(nil), manifestMagic...), 1, 0)
	var frame bytes.Buffer
	encodeRecord(&frame, manRecord{op: manAdd, kind: kindPlan, stem: "f76d3628%7Cb4", size: 28, cost: 1})
	if err := os.WriteFile(filepath.Join(dir, manifestName), append(manifestV1, frame.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := OpenOptions(dir, Options{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Open over a format-1 directory: %v", err)
	}
	if got := st.Stats(); got.ResultEntries != 0 || got.PlanEntries != 0 || got.Bytes != 0 || !got.BootScanned {
		t.Fatalf("stats over a format-1 directory: %+v", got)
	}
	for _, p := range old {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived (err %v): bytes on disk the budget does not count", p, err)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("a file outside the shard buckets was touched: %v", err)
	}
	if got := diskArtifactBytes(t, dir); got != 0 {
		t.Fatalf("%d artifact bytes on disk, index accounts for 0", got)
	}
	if err := st.SaveResult("fresh", testSig, probsResult(0, 1)); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Stats(); got.BootScanned || got.ResultEntries != 1 {
		t.Fatalf("second open: %+v, want a manifest replay of one result", got)
	}
	if _, err := st2.LoadResult("fresh", testSig); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseManifest holds the manifest journal's replay to the
// artifact decoders' invariants: no panic, allocation bounded by the
// input's length, and a journal accepted whole (not torn) re-encodes to
// its own bytes — a torn one's records to a prefix of them.
func FuzzParseManifest(f *testing.F) {
	for _, recs := range [][]manRecord{
		nil,
		{{op: manAdd, kind: kindResult, stem: "2da03fd0ee", size: 4096, cost: 0.25}},
		{
			{op: manAdd, kind: kindPlan, stem: "f76d3628%7Cb4", size: 28, cost: 1},
			{op: manAdd, kind: kindResult, stem: "a", size: 0, cost: math.Copysign(0, -1)},
			{op: manDrop, kind: kindPlan, stem: "f76d3628%7Cb4", size: 28, cost: math.NaN()},
			{op: manDrop, kind: kindResult, stem: "a", size: math.MaxInt64, cost: math.Inf(1)},
		},
	} {
		raw := encodeManifest(recs)
		f.Add(raw)
		for cut := len(raw) - 1; cut > 0; cut -= 5 {
			f.Add(raw[:cut])
		}
		for bit := 0; bit < 8*len(raw); bit += 13 {
			flipped := slices.Clone(raw)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var (
			recs []manRecord
			torn bool
			err  error
		)
		grew := artifacttest.AllocBytes(func() { recs, torn, err = parseManifest(raw) })
		if limit := uint64(256*len(raw) + 128<<10); grew > limit {
			t.Fatalf("replaying a %d-byte journal allocated %d bytes", len(raw), grew)
		}
		if err != nil {
			return
		}
		again := encodeManifest(recs)
		if !torn && !bytes.Equal(again, raw) {
			t.Fatal("an accepted journal does not re-encode to its bytes")
		}
		if torn && !bytes.HasPrefix(raw, again) {
			t.Fatal("a torn journal's records do not re-encode to a prefix of it")
		}
	})
}
