package tensorenc_test

import (
	"reflect"
	"testing"

	"qgear/internal/artifact/artifacttest"
	"qgear/internal/circuit"
	. "qgear/internal/tensorenc"
)

func FuzzUnmarshal(f *testing.F) {
	seeds := artifacttest.SeedCircuits(f)
	var like []byte
	for _, list := range [][]*circuit.Circuit{seeds[:1], seeds[1:2], seeds[2:], seeds} {
		for i, c := range list {
			list[i] = c.Transpile(circuit.BasisNative)
		}
		enc, err := Encode(list, 0)
		if err != nil {
			f.Fatal(err)
		}
		if like, err = enc.Marshal(); err != nil {
			f.Fatal(err)
		}
		f.Add(artifacttest.Payload(f, like))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		artifacttest.FuzzDecoder(t, like, payload, func(sealed []byte) (func() ([]byte, error), error) {
			enc, err := Unmarshal(sealed)
			return func() ([]byte, error) { return enc.Marshal() }, err
		})
	})
}

// TestGoldenTensors pins the tensor-file layout to committed bytes,
// both ways.
func TestGoldenTensors(t *testing.T) {
	c := circuit.New(2, 1)
	c.Name = "qft_golden"
	c.H(0).RY(0.125, 1).CX(0, 1).Measure(1, 0)
	enc, err := Encode([]*circuit.Circuit{c}, 5)
	if err != nil {
		t.Fatal(err)
	}
	data, err := enc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(artifacttest.Golden(t, "testdata/tensors.golden", data))
	if err != nil || !reflect.DeepEqual(got, enc) {
		t.Fatalf("golden tensors decode to %+v (err %v)", got, err)
	}
}
