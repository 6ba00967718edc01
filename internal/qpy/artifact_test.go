package qpy_test

import (
	"bytes"
	"testing"

	"qgear/internal/artifact/artifacttest"
	"qgear/internal/circuit"
	. "qgear/internal/qpy"
)

func FuzzUnmarshal(f *testing.F) {
	seeds := artifacttest.SeedCircuits(f)
	var like []byte
	for _, list := range [][]*circuit.Circuit{seeds[:1], seeds[1:2], seeds[2:], seeds, nil} {
		data, err := Marshal(list)
		if err != nil {
			f.Fatal(err)
		}
		like = data
		f.Add(artifacttest.Payload(f, like))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		artifacttest.FuzzDecoder(t, like, payload, func(sealed []byte) (func() ([]byte, error), error) {
			circuits, err := Unmarshal(sealed)
			return func() ([]byte, error) { return Marshal(circuits) }, err
		})
	})
}

// TestGoldenCircuitList pins the circuit-list layout to committed
// bytes, both ways.
func TestGoldenCircuitList(t *testing.T) {
	list := func() []*circuit.Circuit {
		c := circuit.New(2, 1)
		c.Name = "golden"
		c.H(0).RY(0.125, 1).CX(0, 1).Barrier().Measure(1, 0)
		return []*circuit.Circuit{c, circuit.New(1, 0)}
	}
	data, err := Marshal(list())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(artifacttest.Golden(t, "testdata/circuits.golden", data))
	if err != nil || len(got) != 2 {
		t.Fatalf("golden circuit list: %d circuits, err %v", len(got), err)
	}
	again, err := Marshal(got)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("golden circuit list does not encode back to itself (err %v)", err)
	}
}
