package kernel_test

import (
	"bytes"
	"reflect"
	"testing"

	"qgear/internal/artifact/artifacttest"
	"qgear/internal/gate"
	. "qgear/internal/kernel"
	"qgear/internal/statevec"
)

// seedKernels transforms the shared seed circuits, the third one with
// gate fusion.
func seedKernels(tb testing.TB) []*Kernel {
	tb.Helper()
	var out []*Kernel
	for i, c := range artifacttest.SeedCircuits(tb) {
		k, _, err := FromCircuit(c, Options{FusionWindow: i})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, k)
	}
	return out
}

func encodeKernelBytes(tb testing.TB, k *Kernel) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodeKernel(&buf, k); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func encodePlanBytes(tb testing.TB, p *TilePlan) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodePlan(&buf, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzDecodeKernel(f *testing.F) {
	var like []byte
	for _, k := range seedKernels(f) {
		like = encodeKernelBytes(f, k)
		f.Add(artifacttest.Payload(f, like))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		artifacttest.FuzzDecoder(t, like, payload, func(sealed []byte) (func() ([]byte, error), error) {
			k, err := DecodeKernel(bytes.NewReader(sealed))
			return func() ([]byte, error) {
				var buf bytes.Buffer
				err := EncodeKernel(&buf, k)
				return buf.Bytes(), err
			}, err
		})
	})
}

// width0Plans is the per-gate plan of the first seed circuit and the
// three mixes of it the reader refuses: width 0 is the single-process
// schedule of full sweeps and nothing else.
func width0Plans(tb testing.TB) (legal *TilePlan, illegal []*TilePlan) {
	tb.Helper()
	legal, err := Plan(seedKernels(tb)[0], PlanConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, spoil := range []func(p *TilePlan){
		func(p *TilePlan) { p.Segments[0] = Segment{Kind: SegRun} },
		func(p *TilePlan) { p.Segments[0] = Segment{Kind: SegBitSwap, B: 1} },
		func(p *TilePlan) { p.GlobalBits = 1 },
	} {
		p := *legal
		p.Segments = append([]Segment(nil), legal.Segments...)
		spoil(&p)
		illegal = append(illegal, &p)
	}
	return legal, illegal
}

// TestPlanReaderWidth0Rule: TileBits 0 decodes exactly when there are no
// rank bits and every segment is a SegGlobal.
func TestPlanReaderWidth0Rule(t *testing.T) {
	legal, illegal := width0Plans(t)
	if got, err := DecodePlan(bytes.NewReader(encodePlanBytes(t, legal))); err != nil || !reflect.DeepEqual(got, legal) {
		t.Fatalf("the width-0 plan decodes to %+v (err %v)", got, err)
	}
	for i, p := range illegal {
		if _, err := DecodePlan(bytes.NewReader(encodePlanBytes(t, p))); err == nil {
			t.Errorf("illegal width-0 mix %d decoded", i)
		}
	}
}

func FuzzDecodePlan(f *testing.F) {
	var like []byte
	for i, k := range seedKernels(f) {
		p, err := Plan(k, PlanConfig{TileBits: 3, GlobalBits: i % 2, FuseRuns: i == 0})
		if err != nil {
			f.Fatal(err)
		}
		like = encodePlanBytes(f, p)
		f.Add(artifacttest.Payload(f, like))
	}
	legal, illegal := width0Plans(f)
	for _, p := range append(illegal, legal) {
		f.Add(artifacttest.Payload(f, encodePlanBytes(f, p)))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		artifacttest.FuzzDecoder(t, like, payload, func(sealed []byte) (func() ([]byte, error), error) {
			p, err := DecodePlan(bytes.NewReader(sealed))
			return func() ([]byte, error) {
				var buf bytes.Buffer
				err := EncodePlan(&buf, p)
				return buf.Bytes(), err
			}, err
		})
	})
}

// goldenKernel and goldenPlan are written out by hand, not compiled,
// so the committed bytes move only when the layout does — not when the
// transformer or the planner changes its mind.
func goldenKernel() *Kernel {
	return &Kernel{Name: "golden", NumQubits: 3, NumClbits: 1, Instrs: []Instr{
		{Kind: KGate, Gate: gate.H, Qubits: []int{0}},
		{Kind: KGate, Gate: gate.RY, Qubits: []int{1}, Params: []float64{0.125}},
		{Kind: KFused, Qubits: []int{2}, Mat: []complex128{0, 1, 1, 0}},
		{Kind: KMeasure, Qubits: []int{2}, Clbit: 0},
	}}
}

func goldenPlan() *TilePlan {
	return &TilePlan{
		TileBits: 2, NumQubits: 3, GlobalBits: 1,
		Segments: []Segment{
			{Kind: SegRun, Lo: 0, Hi: 2},
			{Kind: SegGlobal, Lo: 0, Hi: 1},
			{Kind: SegBitSwap, A: 0, B: 2},
			{Kind: SegExchange, Lo: 0, Hi: 1, A: 2},
		},
		Ops: []statevec.TileOp{
			{Kind: statevec.TileMat1, T: 1, M: [4]complex128{0, 1, 1, 0}},
			// Every wire field set at once: A, Phase and B (0.5, 1i, -0.5)
			// ride in M wherever the op is no TileMat1.
			{Kind: statevec.TileCX, T: 0, C: 1, HasCtrl: true, HighMask: 4, LowMask: 2, M: [4]complex128{0.5, 1i, 0, -0.5},
				Fused: &statevec.FusedBlock{Qubits: []uint{0, 1}, Mat: []complex128{1, 0, 0, 1}}},
		},
		Globals:   []Instr{{Kind: KGate, Gate: gate.RY, Qubits: []int{2}, Params: []float64{0.25}}},
		XOps:      []ExchOp{{M: [4]complex128{1, 0, 0, -1}, LowCtrl: 1, RankCtrl: 0}},
		FinalPerm: []int{2, 1, 0},
		Stats:     PlanStats{TileLocal: 2, Global: 1, Runs: 1, BitSwaps: 1, ExchangeSegs: 1, ExchangeGates: 1},
		Bindable:  true, BindSlots: 1,
		Binds: []BindSite{{Kind: BindGlobal, Seg: 1, Gate: gate.RY, Slot: 0, NParams: 1}},
	}
}

// TestGoldenArtifacts pins the kernel and plan layouts to committed
// bytes: the encoders still produce them, and they still decode to the
// values they were made from.
func TestGoldenArtifacts(t *testing.T) {
	want := artifacttest.Golden(t, "testdata/kernel.golden", encodeKernelBytes(t, goldenKernel()))
	k, err := DecodeKernel(bytes.NewReader(want))
	if err != nil || !reflect.DeepEqual(k, goldenKernel()) {
		t.Fatalf("golden kernel decodes to %+v (err %v)", k, err)
	}
	want = artifacttest.Golden(t, "testdata/plan.golden", encodePlanBytes(t, goldenPlan()))
	p, err := DecodePlan(bytes.NewReader(want))
	if err != nil || !reflect.DeepEqual(p, goldenPlan()) {
		t.Fatalf("golden plan decodes to %+v (err %v)", p, err)
	}
}

// TestEncodedLenIsThePayloadLength: the writers are sized from
// EncodedLen — not from SizeBytes, which is smaller than the wire form
// now that a tile op is 96 bytes — so it must be the exact payload
// length of every kernel and plan, or a save regrows its buffer midway.
func TestEncodedLenIsThePayloadLength(t *testing.T) {
	kernels := append(seedKernels(t), goldenKernel())
	plans := []*TilePlan{goldenPlan()}
	for _, k := range kernels {
		for _, cfg := range []PlanConfig{
			{TileBits: 2}, {TileBits: 1, FuseRuns: true}, {TileBits: 2, GlobalBits: 1}, {TileBits: 1, GlobalBits: 2, FuseRuns: true},
		} {
			// A fused block that reaches a rank bit has no distributed plan.
			if p, err := Plan(k, cfg); err == nil {
				plans = append(plans, p)
			}
		}
	}
	if len(plans) < 12 {
		t.Fatalf("only %d plans compiled", len(plans))
	}
	for i, k := range kernels {
		if got, want := k.EncodedLen(), len(artifacttest.Payload(t, encodeKernelBytes(t, k))); got != want {
			t.Errorf("kernel %d: EncodedLen %d, payload is %d bytes", i, got, want)
		}
	}
	for i, p := range plans {
		if got, want := p.EncodedLen(), len(artifacttest.Payload(t, encodePlanBytes(t, p))); got != want {
			t.Errorf("plan %d (%+v): EncodedLen %d, payload is %d bytes", i, p.Stats, got, want)
		}
	}
}

// TestEncodePlanRejectsUnknownSegment: a segment kind the format has no
// layout for is an encode error, not a silently shorter artifact.
func TestEncodePlanRejectsUnknownSegment(t *testing.T) {
	p := goldenPlan()
	p.Segments[0].Kind = 99
	var buf bytes.Buffer
	if err := EncodePlan(&buf, p); err == nil || buf.Len() != 0 {
		t.Fatalf("unknown segment kind encoded to %d bytes (err %v)", buf.Len(), err)
	}
}
