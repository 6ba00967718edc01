package tensorenc

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"qgear/internal/artifact/artifacttest"
	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
)

func sampleCircuits() []*circuit.Circuit {
	a := circuit.GHZ(4, true)
	a.Name = "random_short_0"
	b := circuit.New(3, 1)
	b.Name = "qft_3q"
	b.H(0).CP(0.5, 0, 1).RY(1.25, 2).Barrier().Measure(2, 0)
	c := circuit.New(2, 0)
	c.Name = "qcrank_img"
	c.RY(0.7, 0).CX(0, 1).RZ(-0.3, 1)
	return []*circuit.Circuit{a, b, c}
}

func normalize(c *circuit.Circuit) *circuit.Circuit {
	out := c.Copy()
	for i := range out.Ops {
		if len(out.Ops[i].Qubits) == 0 {
			out.Ops[i].Qubits = nil
		}
		if len(out.Ops[i].Params) == 0 {
			out.Ops[i].Params = nil
		}
	}
	return out
}

// roundTripLists are the circuit lists the round trips below write: the
// sample and the shared seed circuits in the native basis.
func roundTripLists(t *testing.T) map[string][]*circuit.Circuit {
	seeds := artifacttest.SeedCircuits(t)
	for i, c := range seeds {
		seeds[i] = c.Transpile(circuit.BasisNative)
	}
	return map[string][]*circuit.Circuit{"sample": sampleCircuits(), "seeds": seeds}
}

// decodesTo: e decodes to want exactly, the clbit count aside — Decode
// sizes it from the measurements present, which can be tighter than the
// builder's register.
func decodesTo(t *testing.T, what string, e *Encoding, want []*circuit.Circuit) {
	t.Helper()
	got, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d circuits, wrote %d", what, len(got), len(want))
	}
	for i := range want {
		w, g := normalize(want[i]), normalize(got[i])
		w.NumClbits = g.NumClbits
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: circuit %d differs:\nwant %+v\ngot  %+v", what, i, w, g)
		}
	}
}

func longestOps(cs []*circuit.Circuit) int {
	longest := 0
	for _, c := range cs {
		longest = max(longest, len(c.Ops))
	}
	return longest
}

// TestEncodeDecodeRoundTrip: Encode sizes an automatic capacity to the
// longest circuit, and Decode gives back what was written.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, want := range roundTripLists(t) {
		e, err := Encode(want, 0)
		if err != nil {
			t.Fatal(err)
		}
		if longest := longestOps(want); e.NumCircuits != len(want) || e.Capacity != longest {
			t.Fatalf("%s: %d circuits at capacity %d, want %d at %d", name, e.NumCircuits, e.Capacity, len(want), longestOps(want))
		}
		decodesTo(t, name, e, want)
	}
}

// TestMarshalRoundTrip: tensors padded to an explicit capacity survive
// Marshal/Unmarshal DeepEqual, re-marshal to the same bytes and deflate
// below their raw size (Appendix C).
func TestMarshalRoundTrip(t *testing.T) {
	for name, want := range roundTripLists(t) {
		e, err := Encode(want, longestOps(want)+4)
		if err != nil {
			t.Fatal(err)
		}
		data, err := e.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(e, back) {
			t.Fatalf("%s: round trip differs:\n%+v\n%+v", name, e, back)
		}
		again, err := back.Marshal()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encoding differs (err %v)", name, err)
		}
		if raw := 8 * (len(e.CircType) + len(e.GateType) + len(e.GateParam)); len(data) >= raw {
			t.Fatalf("%s: %d-byte file for %d raw tensor bytes", name, len(data), raw)
		}
		decodesTo(t, name, back, want)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, want := range roundTripLists(t) {
		e, err := Encode(want, 0)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".qgt")
		if err := e.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		decodesTo(t, name, back, want)
	}
}

// TestRandomRoundTripProperty: thirty seeded gate soups with
// measurements, in the native basis, come back from Encode/Decode.
func TestRandomRoundTripProperty(t *testing.T) {
	var want []*circuit.Circuit
	for seed := uint64(0); seed < 30; seed++ {
		r := qmath.NewRNG(seed)
		n := 2 + r.Intn(5)
		c := oracle.Soup(n, r.Intn(40), r).Transpile(circuit.BasisNative)
		c.NumClbits = n
		for i := r.Intn(n); i > 0; i-- {
			c.Measure(r.Intn(n), r.Intn(n))
		}
		want = append(want, c)
	}
	e, err := Encode(want, 0)
	if err != nil {
		t.Fatal(err)
	}
	decodesTo(t, "soups", e, want)
}

func TestInferType(t *testing.T) {
	cases := map[string]int64{
		"random_short_0": TypeRandom,
		"qft_30q":        TypeQFT,
		"qcrank_zebra":   TypeQCrank,
		"ghz_5q":         TypeOther,
	}
	for name, want := range cases {
		if got := InferType(name); got != want {
			t.Errorf("InferType(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestCircTypeRows(t *testing.T) {
	e, err := Encode(sampleCircuits(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: random type, 4 qubits, 8 gates.
	if e.CircType[0] != TypeRandom || e.CircType[1] != 4 || e.CircType[2] != 8 {
		t.Fatalf("circ_type row 0 = %v", e.CircType[:3])
	}
	// Row 1: qft type, 3 qubits, 5 gates.
	if e.CircType[3] != TypeQFT || e.CircType[4] != 3 || e.CircType[5] != 5 {
		t.Fatalf("circ_type row 1 = %v", e.CircType[3:6])
	}
}

func TestEmptySlotsPadding(t *testing.T) {
	e, err := Encode(sampleCircuits(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if e.Capacity != 16 {
		t.Fatal("explicit capacity ignored")
	}
	// Circuit 2 has 3 gates; slots 3..15 must be empty markers.
	for gi := 3; gi < 16; gi++ {
		if e.GateType[(2*16+gi)*3] != emptySlot {
			t.Fatalf("slot %d not empty", gi)
		}
	}
	// Decode must still work with padding present.
	if _, err := e.Decode(); err != nil {
		t.Fatal(err)
	}
}

func TestLemmaB2CapacityViolation(t *testing.T) {
	if _, err := Encode(sampleCircuits(), 2); err == nil {
		t.Fatal("undersized capacity accepted (violates Lemma B.2)")
	}
}

func TestEncodeRejectsMultiParamGates(t *testing.T) {
	c := circuit.New(1, 0).U3(1, 2, 3, 0)
	if _, err := Encode([]*circuit.Circuit{c}, 0); err == nil {
		t.Fatal("u3 accepted without transpile")
	}
	// After transpiling to the native basis it encodes fine.
	if _, err := Encode([]*circuit.Circuit{c.Transpile(circuit.BasisNative)}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsInvalidCircuit(t *testing.T) {
	bad := &circuit.Circuit{NumQubits: 1, Ops: []circuit.Op{{Gate: gate.H, Qubits: []int{9}}}}
	if _, err := Encode([]*circuit.Circuit{bad}, 0); err == nil {
		t.Fatal("invalid circuit accepted")
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	e, err := Encode(sampleCircuits(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a gate id inside the declared gate range.
	e2 := *e
	e2.GateType = append([]int64(nil), e.GateType...)
	e2.GateType[0] = 200
	if _, err := e2.Decode(); err == nil {
		t.Fatal("invalid gate id accepted")
	}
	// Gate count beyond capacity.
	e3 := *e
	e3.CircType = append([]int64(nil), e.CircType...)
	e3.CircType[2] = int64(e.Capacity + 5)
	if _, err := e3.Decode(); err == nil {
		t.Fatal("oversized gate count accepted")
	}
	// Inconsistent tensor lengths.
	e4 := *e
	e4.GateParam = e4.GateParam[:1]
	if _, err := e4.Decode(); err == nil {
		t.Fatal("inconsistent tensors accepted")
	}
	// Empty slot inside the declared range.
	e5 := *e
	e5.GateType = append([]int64(nil), e.GateType...)
	e5.GateType[0] = emptySlot
	if _, err := e5.Decode(); err == nil {
		t.Fatal("empty slot inside gate range accepted")
	}
}

// TestUnmarshalShapeValidation: a file whose recorded dimensions
// disagree with its tensors is rejected even though its checksum holds.
func TestUnmarshalShapeValidation(t *testing.T) {
	e, err := Encode(sampleCircuits(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Lie about the circuit count in the header.
	e.NumCircuits = 99
	data, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
