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
			{Kind: SegRun, Ops: []statevec.TileOp{
				{Kind: statevec.TileMat1, T: 1, M: [4]complex128{0, 1, 1, 0}},
				{Kind: statevec.TileCX, T: 0, C: 1, HasCtrl: true, HighMask: 4, LowMask: 2, Phase: 1i, A: 0.5, B: -0.5,
					Qubits: []uint{0, 1}, Mat: []complex128{1, 0, 0, 1}},
			}},
			{Kind: SegGlobal, Instr: Instr{Kind: KGate, Gate: gate.RY, Qubits: []int{2}, Params: []float64{0.25}}},
			{Kind: SegBitSwap, A: 0, B: 2},
			{Kind: SegExchange, TBit: 2, XOps: []ExchOp{{M: [4]complex128{1, 0, 0, -1}, LowCtrl: 1, RankCtrl: 0}}},
		},
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
