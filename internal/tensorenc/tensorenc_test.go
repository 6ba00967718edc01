package tensorenc

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleCircuits()
	e, err := Encode(want, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumCircuits != 3 {
		t.Fatalf("NumCircuits = %d", e.NumCircuits)
	}
	// Auto capacity = largest circuit (GHZ(4): 1 h + 3 cx + 4 measure = 8).
	if e.Capacity != 8 {
		t.Fatalf("Capacity = %d, want 8", e.Capacity)
	}
	got, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		w := normalize(want[i])
		g := normalize(got[i])
		// Decode reconstructs NumClbits from the measures actually
		// present, which can be tighter than the builder's register.
		w.NumClbits = g.NumClbits
		if !reflect.DeepEqual(w, g) {
			t.Errorf("circuit %d:\nwant %+v\ngot  %+v", i, w, g)
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

func TestMarshalRoundTrip(t *testing.T) {
	e, err := Encode(sampleCircuits(), 12)
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
		t.Fatalf("round trip differs:\n%+v\n%+v", e, back)
	}
	again, err := back.Marshal()
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encoding differs (err %v)", err)
	}
	// The structured tensors deflate well below their raw size
	// (Appendix C).
	if raw := 8 * (len(e.CircType) + len(e.GateType) + len(e.GateParam)); len(data) >= raw {
		t.Fatalf("%d-byte file for %d raw tensor bytes", len(data), raw)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "enc.qgt")
	e, err := Encode(sampleCircuits(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 || cs[0].Name != "random_short_0" {
		t.Fatal("file round trip lost circuits")
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

func TestRandomRoundTripProperty(t *testing.T) {
	r := qmath.NewRNG(2026)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(5)
		nops := r.Intn(40)
		c := circuit.New(n, n)
		c.Name = "random_prop"
		for i := 0; i < nops; i++ {
			q := r.Intn(n)
			q2 := (q + 1 + r.Intn(n-1)) % n
			switch r.Intn(6) {
			case 0:
				c.H(q)
			case 1:
				c.RY(r.Angle(), q)
			case 2:
				c.RZ(r.Angle(), q)
			case 3:
				c.CX(q, q2)
			case 4:
				c.Barrier()
			case 5:
				c.Measure(q, r.Intn(n))
			}
		}
		e, err := Encode([]*circuit.Circuit{c}, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Decode()
		if err != nil {
			t.Fatal(err)
		}
		w := normalize(c)
		g := normalize(got[0])
		w.NumClbits = g.NumClbits
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("trial %d: round trip differs", trial)
		}
	}
}
