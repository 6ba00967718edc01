package kernel_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qgear/internal/artifact"
	"qgear/internal/artifact/artifacttest"
	"qgear/internal/gate"
	. "qgear/internal/kernel"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// seedKernels transforms the shared seed circuits.
func seedKernels(tb testing.TB) []*Kernel {
	tb.Helper()
	var out []*Kernel
	for _, c := range artifacttest.SeedCircuits(tb) {
		k, _, err := FromCircuit(c, Options{})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, k)
	}
	return out
}

// kernelPayload is WriteKernel's encoding of k, as the artifacts that
// embed a kernel carry it.
func kernelPayload(tb testing.TB, k *Kernel) []byte {
	tb.Helper()
	w := artifact.NewWriter(0)
	WriteKernel(w, k)
	sealed, err := w.Seal("TEST", 0, false)
	if err != nil {
		tb.Fatal(err)
	}
	return artifacttest.Payload(tb, sealed)
}

// refusedFixture reads a committed artifact of a shape the encoders no
// longer write and the readers refuse: a fused instruction or a tile op
// with a fused block, from builds that had gate fusion.
func refusedFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func encodePlanBytes(tb testing.TB, p *TilePlan) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodePlan(&buf, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// roundTripKernels are the seed kernels and twenty seeded gate soups.
func roundTripKernels(t *testing.T) []*Kernel {
	kernels := seedKernels(t)
	for seed := uint64(0); seed < 20; seed++ {
		r := qmath.NewRNG(seed)
		k, _, err := FromCircuit(oracle.Soup(6+r.Intn(3), 60, r), Options{})
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, k)
	}
	return kernels
}

// roundTripPlan compiles k under cfg and returns the plan and what it
// decodes to.
func roundTripPlan(t *testing.T, k *Kernel, cfg PlanConfig) (p, decoded *TilePlan) {
	t.Helper()
	p, err := Plan(k, cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	decoded, err = DecodePlan(bytes.NewReader(encodePlanBytes(t, p)))
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	return p, decoded
}

// TestPlanRoundTripConfigs: plans per gate, in tiles and in tiles over
// two rank bits decode DeepEqual to what was encoded.
func TestPlanRoundTripConfigs(t *testing.T) {
	for i, k := range roundTripKernels(t) {
		for _, cfg := range []PlanConfig{{}, {TileBits: 4}, {TileBits: 3, GlobalBits: 2}} {
			if p, decoded := roundTripPlan(t, k, cfg); !reflect.DeepEqual(decoded, p) {
				t.Fatalf("kernel %d, %+v: plan drifted through encoding", i, cfg)
			}
		}
	}
}

// TestDecodedPlanExecutesIdentically: a decoded single-process plan,
// per gate or in tiles, executes to the original's amplitudes bit for
// bit.
func TestDecodedPlanExecutesIdentically(t *testing.T) {
	for i, k := range roundTripKernels(t) {
		for _, cfg := range []PlanConfig{{}, {TileBits: 4}} {
			p, decoded := roundTripPlan(t, k, cfg)
			a, b := statevec.MustNew(k.NumQubits, 1), statevec.MustNew(k.NumQubits, 1)
			if err := p.Execute(a); err != nil {
				t.Fatal(err)
			}
			if err := decoded.Execute(b); err != nil {
				t.Fatal(err)
			}
			if pa, pb := a.Amplitudes(), b.Amplitudes(); !slices.Equal(pa, pb) {
				t.Fatalf("kernel %d, %+v: the decoded plan executes to other amplitudes", i, cfg)
			}
			a.Release()
			b.Release()
		}
	}
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

// refusedPlan is an encoded plan the reader must refuse, and why.
type refusedPlan struct {
	name string
	data []byte
}

// relabelPlans is a compiled distributed plan that swaps a rank bit into
// the tile and back, and the encoded shapes of it the reader refuses:
// no executor could run them.
func relabelPlans(tb testing.TB) (legal *TilePlan, illegal []refusedPlan) {
	tb.Helper()
	k := New("relabel", 5).H(0).H(1).H(2).Ry(0.3, 4).XCtrl(0, 4).H(3).Rz(0.2, 3)
	legal, err := Plan(k, PlanConfig{TileBits: 2, GlobalBits: 2})
	if err != nil {
		tb.Fatal(err)
	}
	if legal.Stats.ExchangeSegs == 0 || legal.Stats.Global == 0 || len(legal.Binds) == 0 {
		tb.Fatalf("plan %+v has no rank-bit swap, no global sweep or no binding site", legal.Stats)
	}
	swap := slices.IndexFunc(legal.Segments, func(seg Segment) bool { return seg.Kind == SegBitSwap })
	global := slices.IndexFunc(legal.Segments, func(seg Segment) bool { return seg.Kind == SegGlobal })
	illegal = []refusedPlan{
		{"exchange segment", withExchangeSegment(tb, legal, 4)},
		{"not bindable", unbindable(tb, legal)},
		{"fused block on a tile op", refusedFixture(tb, "plan_relabel_fused.golden")},
	}
	illegal = append(illegal, fusedInstructions(tb)...)
	for _, sp := range []struct {
		name  string
		spoil func(p *TilePlan)
	}{
		{"swap outside the register", func(p *TilePlan) { p.Segments[swap] = Segment{Kind: SegBitSwap, A: 0, B: 5} }},
		{"swap of a position with itself", func(p *TilePlan) { p.Segments[swap] = Segment{Kind: SegBitSwap, A: 1, B: 1} }},
		{"swap of two rank positions", func(p *TilePlan) { p.Segments[swap] = Segment{Kind: SegBitSwap, A: 3, B: 4} }},
		{"single-process swap past the register", func(p *TilePlan) {
			p.GlobalBits, p.Segments[swap] = 0, Segment{Kind: SegBitSwap, A: 1, B: 5}
		}},
		{"global sweep on a rank bit", func(p *TilePlan) {
			p.Globals = slices.Clone(p.Globals)
			p.Globals[p.Segments[global].Lo].Qubits = []int{3}
		}},
		{"binding site of kind 2", func(p *TilePlan) {
			p.Binds = slices.Clone(p.Binds)
			p.Binds[0].Kind = 2
		}},
	} {
		p := *legal
		p.Segments = slices.Clone(legal.Segments)
		sp.spoil(&p)
		illegal = append(illegal, refusedPlan{sp.name, encodePlanBytes(tb, &p)})
	}
	return legal, illegal
}

// fusedInstructions are a per-gate plan of one H whose instruction is
// what builds with gate fusion wrote for a fused block: of kind 1, or
// carrying the block's 2×2 in the instruction's matrix slot. Every
// artifact that holds an instruction (a plan, a compiled kernel) reads
// it with the same reader, which refuses both.
func fusedInstructions(tb testing.TB) []refusedPlan {
	tb.Helper()
	p, err := Plan(New("fused", 1).H(0), PlanConfig{})
	if err != nil || len(p.Segments) != 1 || p.Segments[0].Kind != SegGlobal {
		tb.Fatalf("one H plans to %+v (err %v), want one sweep", p, err)
	}
	// Geometry (three fields and a segment count) and the segment kind;
	// then the instruction's kind, gate, one qubit and no parameters.
	const kindAt = 4*4 + 1
	const matrixAt = kindAt + 1 + 1 + 4 + 4 + 4
	sealed := encodePlanBytes(tb, p)
	payload := artifacttest.Payload(tb, sealed)
	if binary.LittleEndian.Uint32(payload[matrixAt:]) != 0 {
		tb.Fatalf("no empty matrix slot at byte %d of %x", matrixAt, payload)
	}
	kind := slices.Clone(payload)
	kind[kindAt] = 1
	matrix := binary.LittleEndian.AppendUint32(slices.Clone(payload[:matrixAt]), 4)
	matrix = append(append(matrix, make([]byte, 4*16)...), payload[matrixAt+4:]...)
	return []refusedPlan{
		{"instruction of the fused-block kind", artifacttest.Forge(tb, sealed, kind)},
		{"fused block on an instruction", artifacttest.Forge(tb, sealed, matrix)},
	}
}

// TestPlanReaderRelabelRule: a cross-rank bit-swap decodes; a swap no
// shard pair can perform, a sweep with a rank-bit operand, a segment
// or binding-site kind the format dropped, a plan marked not bindable
// and a tile op or an instruction carrying a fused block do not.
func TestPlanReaderRelabelRule(t *testing.T) {
	legal, illegal := relabelPlans(t)
	if got, err := DecodePlan(bytes.NewReader(encodePlanBytes(t, legal))); err != nil || !reflect.DeepEqual(got, legal) {
		t.Fatalf("the relabeling plan decodes to %+v (err %v)", got, err)
	}
	for _, p := range illegal {
		if _, err := DecodePlan(bytes.NewReader(p.data)); err == nil {
			t.Errorf("%s: decoded", p.name)
		}
	}
}

// groupPlans is a QFT's per-gate and tiled plans — cr1 ladders, a
// diagonal group each — and the encoded shapes of them the reader
// refuses: no executor could run them as a phase table.
func groupPlans(tb testing.TB) (legal []*TilePlan, illegal []refusedPlan) {
	tb.Helper()
	k := New("qft", 6)
	for j := 5; j >= 0; j-- {
		k.H(j)
		for q := j - 1; q >= 0; q-- {
			k.CR1(0.5/float64(j-q), q, j)
		}
	}
	k.Swap(0, 5)
	perGate, err := Plan(k, PlanConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	tiled, err := Plan(k, PlanConfig{TileBits: 3})
	if err != nil {
		tb.Fatal(err)
	}
	header := slices.IndexFunc(tiled.Ops, func(op statevec.TileOp) bool { return op.Kind == statevec.TileTable })
	group := slices.IndexFunc(perGate.Segments, func(seg Segment) bool { return seg.Hi-seg.Lo > 1 })
	if header < 0 || group < 0 {
		tb.Fatalf("no diagonal group: header %d, sweep %d", header, group)
	}
	// Eleven one-bit phases on a 13-qubit register read eleven free bits.
	wide := &TilePlan{TileBits: 12, NumQubits: 13, Segments: []Segment{{Kind: SegRun, Lo: 0, Hi: 12}},
		Ops: []statevec.TileOp{statevec.TableOp(11)}}
	for q := 0; q < 11; q++ {
		wide.Ops = append(wide.Ops, statevec.DiagOp(1i, 1<<uint(q), 0))
	}
	illegal = []refusedPlan{{"eleven free bits", encodePlanBytes(tb, wide)}}
	for _, sp := range []struct {
		name  string
		of    *TilePlan
		spoil func(p *TilePlan)
	}{
		{"header past its run", tiled, func(p *TilePlan) { p.Ops[header] = statevec.TableOp(len(p.Ops)) }},
		{"header of one member", tiled, func(p *TilePlan) { p.Ops[header] = statevec.TableOp(1) }},
		{"mixing member", tiled, func(p *TilePlan) {
			p.Ops[header+1] = statevec.TileOp{Kind: statevec.TileMat1, M: gate.Matrix1(gate.H, nil)}
		}},
		{"mixing gate in a group sweep", perGate, func(p *TilePlan) {
			p.Globals[p.Segments[group].Lo] = Instr{Kind: KGate, Gate: gate.H, Qubits: []int{0}}
		}},
		{"group sweep in a tiled plan", tiled, func(p *TilePlan) {
			p.Segments = append(p.Segments, Segment{Kind: SegGlobal, Lo: int32(len(p.Globals)), Hi: int32(len(p.Globals) + 2)})
			p.Globals = append(p.Globals, Instr{Kind: KGate, Gate: gate.Z, Qubits: []int{0}}, Instr{Kind: KGate, Gate: gate.Z, Qubits: []int{1}})
		}},
	} {
		p := *sp.of
		p.Segments = slices.Clone(sp.of.Segments)
		p.Ops, p.Globals = slices.Clone(sp.of.Ops), slices.Clone(sp.of.Globals)
		sp.spoil(&p)
		illegal = append(illegal, refusedPlan{sp.name, encodePlanBytes(tb, &p)})
	}
	return []*TilePlan{perGate, tiled}, illegal
}

// TestPlanReaderGroupRule: grouped plans decode to themselves; a group
// header counting members outside its run or fewer than two, a member
// that is not diagonal, a group over statevec.MaxTableBits free bits
// and a sweep of several instructions that is not a width-0 plan's
// diagonal group do not decode.
func TestPlanReaderGroupRule(t *testing.T) {
	legal, illegal := groupPlans(t)
	for _, p := range legal {
		if got, err := DecodePlan(bytes.NewReader(encodePlanBytes(t, p))); err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("the grouped plan of width %d decodes to %+v (err %v)", p.TileBits, got, err)
		}
	}
	for _, p := range illegal {
		if _, err := DecodePlan(bytes.NewReader(p.data)); err == nil {
			t.Errorf("%s: decoded", p.name)
		}
	}
}

func FuzzDecodePlan(f *testing.F) {
	var like []byte
	for i, k := range seedKernels(f) {
		p, err := Plan(k, PlanConfig{TileBits: 3, GlobalBits: i % 2})
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
	relabel, refused := relabelPlans(f)
	f.Add(artifacttest.Payload(f, encodePlanBytes(f, relabel)))
	for _, p := range refused {
		f.Add(artifacttest.Payload(f, p.data))
	}
	grouped, refusedGroups := groupPlans(f)
	for _, p := range grouped {
		f.Add(artifacttest.Payload(f, encodePlanBytes(f, p)))
	}
	for _, p := range refusedGroups {
		f.Add(artifacttest.Payload(f, p.data))
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

// goldenPlan is written out by hand, not compiled, so the committed
// bytes move only when the layout does — not when the planner changes
// its mind. It is the shape of a distributed plan: a run, a sweep above
// the tile, a rank bit swapped into the tile, a run on it, and the swap
// back. goldenKernel, also by hand, is a gate, a parameterized gate and
// a measurement.
func goldenKernel() *Kernel {
	return &Kernel{Name: "golden", NumQubits: 3, NumClbits: 1, Instrs: []Instr{
		{Kind: KGate, Gate: gate.H, Qubits: []int{0}},
		{Kind: KGate, Gate: gate.RY, Qubits: []int{1}, Params: []float64{0.125}},
		{Kind: KMeasure, Qubits: []int{2}, Clbit: 0},
	}}
}

func goldenPlan() *TilePlan {
	return &TilePlan{
		TileBits: 2, NumQubits: 4, GlobalBits: 1,
		Segments: []Segment{
			{Kind: SegRun, Lo: 0, Hi: 2},
			{Kind: SegGlobal, Lo: 0, Hi: 1},
			{Kind: SegBitSwap, A: 0, B: 3},
			{Kind: SegRun, Lo: 2, Hi: 3},
			{Kind: SegBitSwap, A: 0, B: 3},
		},
		Ops: []statevec.TileOp{
			{Kind: statevec.TileMat1, T: 1, M: [4]complex128{0, 1, 1, 0}},
			// Every wire field set at once: A, Phase and B (0.5, 1i, -0.5)
			// ride in M wherever the op is no TileMat1.
			{Kind: statevec.TileCX, T: 0, C: 1, HasCtrl: true, HighMask: 4, LowMask: 2, M: [4]complex128{0.5, 1i, 0, -0.5}},
			{Kind: statevec.TileMat1, T: 0, HighMask: 8, M: [4]complex128{0.75, -0.5, 0.5, 0.75}},
		},
		Globals:   []Instr{{Kind: KGate, Gate: gate.RY, Qubits: []int{2}, Params: []float64{0.25}}},
		FinalPerm: []int{1, 0, 2, 3},
		Stats:     PlanStats{TileLocal: 3, Global: 1, Runs: 2, BitSwaps: 2, ExchangeSegs: 2, RankLocal: 1},
		BindSlots: 2,
		Binds: []BindSite{
			{Kind: BindGlobal, Seg: 1, Gate: gate.RY, Slot: 0, NParams: 1},
			{Kind: BindRun, Seg: 3, Op: 0, Gate: gate.RY, Slot: 1, NParams: 1},
		},
	}
}

// withExchangeSegment encodes p with one more segment after its own:
// what builds that batched rank-bit targets wrote for an exchange
// segment — kind 3, a rank-bit target position, one op (a 2×2 and two
// control masks). The format has no such segment any more, so the bytes
// are assembled around it from what the encoder still writes.
func withExchangeSegment(tb testing.TB, p *TilePlan, target int) []byte {
	tb.Helper()
	head := &TilePlan{TileBits: p.TileBits, NumQubits: p.NumQubits, GlobalBits: p.GlobalBits, Segments: p.Segments, Ops: p.Ops, Globals: p.Globals}
	tail := &TilePlan{FinalPerm: p.FinalPerm, Stats: p.Stats, BindSlots: p.BindSlots, Binds: p.Binds}
	const geometry, emptyTail = 4 * 4, 4 + 9*8 + 1 + 4 + 4 // three fields and a count; no permutation, stats, sites
	like := encodePlanBytes(tb, head)
	payload := artifacttest.Payload(tb, like)
	payload = payload[:len(payload)-emptyTail]
	binary.LittleEndian.PutUint32(payload[3*4:], uint32(len(p.Segments)+1))
	w := artifact.NewWriter(0)
	w.Raw(payload)
	w.U8(3)
	w.U32(uint32(target))
	w.Count(1)
	for _, m := range [4]complex128{1, 0, 0, -1} {
		w.C128(m)
	}
	w.U64(1) // shard-local control bits
	w.U64(0) // rank control bits
	w.Raw(artifacttest.Payload(tb, encodePlanBytes(tb, tail))[geometry:])
	sealed, err := w.Seal(artifact.KindPlan, binary.LittleEndian.Uint16(like[4:]), false)
	if err != nil {
		tb.Fatal(err)
	}
	return sealed
}

// unbindable encodes p with its bindable byte false, as builds whose
// plan compiler could fold gates wrote a run-fused plan.
func unbindable(tb testing.TB, p *TilePlan) []byte {
	tb.Helper()
	bare := *p
	bare.Binds, bare.BindSlots = nil, 0
	sealed := encodePlanBytes(tb, p)
	payload := artifacttest.Payload(tb, sealed)
	payload[len(artifacttest.Payload(tb, encodePlanBytes(tb, &bare)))-9] = 0 // the byte, then BindSlots and a site count
	return artifacttest.Forge(tb, sealed, payload)
}

// TestGoldenArtifacts pins the plan layout to committed bytes: the
// encoder still produces them, and they still decode to the value they
// were made from. plan.golden (a plan with an exchange segment and a
// fused tile op) and plan_relabel_fused.golden (the golden as it was
// with a fused instruction and a fused tile op) are what earlier builds
// wrote; stores and compiled artifacts hold such values under the
// unchanged format versions, so their bytes stay pinned — as artifacts
// the readers refuse (and a store therefore quarantines and
// recompiles). A fused instruction is refused for what it is, whatever
// else the artifact holds.
func TestGoldenArtifacts(t *testing.T) {
	want := artifacttest.Golden(t, "testdata/plan_relabel.golden", encodePlanBytes(t, goldenPlan()))
	p, err := DecodePlan(bytes.NewReader(want))
	if err != nil || !reflect.DeepEqual(p, goldenPlan()) {
		t.Fatalf("golden plan decodes to %+v (err %v)", p, err)
	}
	for _, name := range []string{"plan.golden", "plan_relabel_fused.golden"} {
		if p, err := DecodePlan(bytes.NewReader(refusedFixture(t, name))); err == nil {
			t.Fatalf("%s decoded to %+v", name, p)
		}
	}
	for i, want := range []string{"unknown instruction kind 1", "instruction carries a fused block"} {
		p := fusedInstructions(t)[i]
		if _, err := DecodePlan(bytes.NewReader(p.data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %q", p.name, err, want)
		}
	}
}

// TestEncodedLenIsThePayloadLength: the writers are sized from
// EncodedLen — not from SizeBytes, which is smaller than the wire form
// now that a tile op is 88 bytes — so it must be the exact payload
// length of every kernel and plan, or a save regrows its buffer midway.
func TestEncodedLenIsThePayloadLength(t *testing.T) {
	kernels := append(seedKernels(t), goldenKernel())
	plans := []*TilePlan{goldenPlan()}
	for _, k := range kernels {
		for _, cfg := range []PlanConfig{
			{TileBits: 2}, {TileBits: 1}, {TileBits: 2, GlobalBits: 1}, {TileBits: 1, GlobalBits: 2},
		} {
			if p, err := Plan(k, cfg); err == nil {
				plans = append(plans, p)
			}
		}
	}
	if len(plans) < 12 {
		t.Fatalf("only %d plans compiled", len(plans))
	}
	for i, k := range kernels {
		if got, want := k.EncodedLen(), len(kernelPayload(t, k)); got != want {
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
