package core

import (
	"math"
	"testing"

	"qgear/internal/backend"
	"qgear/internal/qasm"
	"qgear/internal/qft"
)

func TestQASMInterchangeMatchesQPYPath(t *testing.T) {
	// The same circuit routed through OpenQASM text and through the
	// binary QPY path must simulate identically — cross-format
	// integration of the interchange layer.
	c, err := qft.Circuit(6, true)
	if err != nil {
		t.Fatal(err)
	}
	src, err := qasm.Export(c)
	if err != nil {
		t.Fatal(err)
	}
	viaQASM, err := qasm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := backend.Run(c, Options{Target: backend.TargetNvidia})
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.Run(viaQASM, Options{Target: backend.TargetAer})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Probabilities {
		if math.Abs(a.Probabilities[i]-b.Probabilities[i]) > 1e-9 {
			t.Fatalf("probability %d differs across formats", i)
		}
	}
}
