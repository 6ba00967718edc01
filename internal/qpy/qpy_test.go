package qpy

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/qmath"
)

func sampleCircuits() []*circuit.Circuit {
	ghz := circuit.GHZ(4, true)
	params := circuit.New(3, 1)
	params.Name = "parametrized"
	params.RY(0.123456789, 0).RZ(-math.Pi, 1).CP(2.5, 0, 2).U3(1, 2, 3, 1).Barrier().Measure(2, 0)
	empty := circuit.New(0, 0)
	empty.Name = "empty"
	return []*circuit.Circuit{ghz, params, empty}
}

func TestRoundTrip(t *testing.T) {
	want := sampleCircuits()
	data, err := Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("count %d != %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(normalize(want[i]), normalize(got[i])) {
			t.Errorf("circuit %d differs:\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
}

// normalize maps nil and empty slices to a comparable form.
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

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "circuits.qpy")
	want := sampleCircuits()
	if err := SaveFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0].Name != want[0].Name {
		t.Fatal("file round trip failed")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/x.qpy"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBadMagic(t *testing.T) {
	data, err := Marshal(sampleCircuits())
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	data, err := Marshal(sampleCircuits())
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte mid-file (beyond magic, before checksum).
	data[len(data)/2] ^= 0xFF
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestTruncationDetected(t *testing.T) {
	data, err := Marshal(sampleCircuits())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{3, len(data) / 2, len(data) - 2} {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestRejectsInvalidCircuitOnWrite(t *testing.T) {
	bad := &circuit.Circuit{NumQubits: 1, Ops: []circuit.Op{{Gate: gate.H, Qubits: []int{5}}}}
	if _, err := Marshal([]*circuit.Circuit{bad}); err == nil {
		t.Fatal("invalid circuit serialized")
	}
}

func TestVersionMismatch(t *testing.T) {
	data, err := Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The version field sits right after the four-byte magic.
	data[4] = 99
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestEmptyList(t *testing.T) {
	data, err := Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("expected empty list")
	}
}

func TestRandomCircuitsRoundTripProperty(t *testing.T) {
	f := func(seed uint32, nOps8 uint8) bool {
		r := qmath.NewRNG(uint64(seed))
		n := 2 + r.Intn(6)
		c := circuit.New(n, n)
		ops := int(nOps8 % 64)
		for i := 0; i < ops; i++ {
			q := r.Intn(n)
			q2 := (q + 1 + r.Intn(n-1)) % n
			switch r.Intn(5) {
			case 0:
				c.H(q)
			case 1:
				c.RY(r.Float64()*10-5, q)
			case 2:
				c.CX(q, q2)
			case 3:
				c.CP(r.Float64(), q, q2)
			case 4:
				c.Measure(q, r.Intn(n))
			}
		}
		data, err := Marshal([]*circuit.Circuit{c})
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil || len(got) != 1 {
			return false
		}
		return reflect.DeepEqual(normalize(c), normalize(got[0]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
