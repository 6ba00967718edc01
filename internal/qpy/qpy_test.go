package qpy

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/oracle"
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

// TestRoundTrip: a circuit list — the sample (measured, parametrized
// and empty circuits), no circuit at all, and fifty seeded gate soups
// with measurements — comes back from Marshal/Unmarshal and from a file
// exactly as written.
func TestRoundTrip(t *testing.T) {
	var soups []*circuit.Circuit
	for seed := uint64(0); seed < 50; seed++ {
		r := qmath.NewRNG(seed)
		n := 2 + r.Intn(6)
		c := oracle.Soup(n, r.Intn(64), r)
		c.NumClbits = n
		for i := r.Intn(n); i > 0; i-- {
			c.Measure(r.Intn(n), r.Intn(n))
		}
		soups = append(soups, c)
	}
	dir := t.TempDir()
	for name, want := range map[string][]*circuit.Circuit{"sample": sampleCircuits(), "none": nil, "soups": soups} {
		data, err := Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".qpy")
		if err := SaveFile(path, want); err != nil {
			t.Fatal(err)
		}
		fromFile, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range [][]*circuit.Circuit{got, fromFile} {
			if len(got) != len(want) {
				t.Fatalf("%s: %d circuits, wrote %d", name, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(normalize(want[i]), normalize(got[i])) {
					t.Errorf("%s: circuit %d differs:\nwant %+v\ngot  %+v", name, i, want[i], got[i])
				}
			}
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

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/x.qpy"); err == nil {
		t.Fatal("missing file accepted")
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
