package observable

import (
	"fmt"
	"math"
	"testing"

	"qgear/internal/qmath"
)

// golden fingerprints: committed values pinning the canonical encoding.
// If these change, every persisted expectation artifact and cache key
// changes with them — bump fingerprintVersion consciously, never by
// accident.
const (
	goldenTFIM3     = "6d547f0e6b6c080178dbc5b34015c88b125a9d6148db2c92a9c76aa1b825f11b"
	goldenEmpty     = "08acea56b2020ba6f189ac306a8b0f76cde87e3ee7aa64fa724380ee12c6b2a4"
	goldenOneXYZ    = "57cab0c8bd020383f902102f4a7578cb68efe215acbc840c19d768f8332da3d3"
	goldenDupTerms  = "88ee70da8bb85114d5c8ac17fd83b7987e5c167ed2d6099fec30b5e741468662"
	goldenMergedDup = "b17dfe360b8be09328e300e1d5e5f20dcfd8cc9e892ed719cb5fc425d90a26ca"
)

func TestFingerprintGoldenValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *Hamiltonian
		want string
	}{
		{"tfim3", TransverseFieldIsing(3, 1.0, 0.5), goldenTFIM3},
		{"empty", &Hamiltonian{NumQubits: 4}, goldenEmpty},
		{"one-xyz", &Hamiltonian{NumQubits: 3, Terms: []Term{
			NewTerm(0.25, map[int]Pauli{0: X, 1: Y, 2: Z}),
		}}, goldenOneXYZ},
		{"dup-terms", &Hamiltonian{NumQubits: 2, Terms: []Term{
			NewTerm(1, map[int]Pauli{0: Z}),
			NewTerm(1, map[int]Pauli{0: Z}),
		}}, goldenDupTerms},
		{"merged-dup", &Hamiltonian{NumQubits: 2, Terms: []Term{
			NewTerm(2, map[int]Pauli{0: Z}),
		}}, goldenMergedDup},
	} {
		if got := tc.h.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestFingerprintTermOrderInvariant(t *testing.T) {
	a := &Hamiltonian{NumQubits: 4}
	a.Add(NewTerm(0.5, map[int]Pauli{0: Z, 1: Z}))
	a.Add(NewTerm(-1.25, map[int]Pauli{2: X}))
	a.Add(NewTerm(3, map[int]Pauli{1: Y, 3: Z}))
	b := &Hamiltonian{NumQubits: 4}
	b.Add(NewTerm(3, map[int]Pauli{1: Y, 3: Z}))
	b.Add(NewTerm(0.5, map[int]Pauli{1: Z, 0: Z}))
	b.Add(NewTerm(-1.25, map[int]Pauli{2: X}))
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on term order")
	}
}

func TestFingerprintFactorOrderAndConstructionInvariant(t *testing.T) {
	// Factor maps populated in opposite insertion order, and Add vs
	// literal construction, must hash identically.
	m1 := map[int]Pauli{}
	for q := 0; q < 8; q++ {
		m1[q] = Pauli(1 + q%3)
	}
	m2 := map[int]Pauli{}
	for q := 7; q >= 0; q-- {
		m2[q] = Pauli(1 + q%3)
	}
	viaAdd := &Hamiltonian{NumQubits: 8}
	viaAdd.Add(NewTerm(1.5, m1))
	literal := &Hamiltonian{NumQubits: 8, Terms: []Term{NewTerm(1.5, m2)}}
	for i := 0; i < 16; i++ { // map iteration order varies per run
		if viaAdd.Fingerprint() != literal.Fingerprint() {
			t.Fatal("fingerprint depends on factor iteration order or construction path")
		}
	}
}

func TestFingerprintDistinguishesChanges(t *testing.T) {
	base := &Hamiltonian{NumQubits: 3, Terms: []Term{NewTerm(0.5, map[int]Pauli{0: Z, 2: X})}}
	fp := base.Fingerprint()
	for name, mut := range map[string]*Hamiltonian{
		"coef":  {NumQubits: 3, Terms: []Term{NewTerm(0.5000000000000001, map[int]Pauli{0: Z, 2: X})}},
		"sign":  {NumQubits: 3, Terms: []Term{NewTerm(-0.5, map[int]Pauli{0: Z, 2: X})}},
		"pauli": {NumQubits: 3, Terms: []Term{NewTerm(0.5, map[int]Pauli{0: Z, 2: Y})}},
		"qubit": {NumQubits: 3, Terms: []Term{NewTerm(0.5, map[int]Pauli{1: Z, 2: X})}},
		"width": {NumQubits: 4, Terms: []Term{NewTerm(0.5, map[int]Pauli{0: Z, 2: X})}},
		"extra": {NumQubits: 3, Terms: []Term{
			NewTerm(0.5, map[int]Pauli{0: Z, 2: X}), NewTerm(0, nil),
		}},
	} {
		if mut.Fingerprint() == fp {
			t.Errorf("%s change not reflected in fingerprint", name)
		}
	}
}

// TestFingerprintFuzzNoCollisions draws 1000 random Hamiltonians and
// checks that distinct operators never collide while re-encodings of
// the same operator (shuffled terms, rebuilt maps) always do.
func TestFingerprintFuzzNoCollisions(t *testing.T) {
	r := qmath.NewRNG(987)
	seen := make(map[string]string, 1000) // fingerprint -> canonical description
	for i := 0; i < 1000; i++ {
		n := 1 + r.Intn(12)
		h := &Hamiltonian{NumQubits: n}
		for ti := 0; ti < 1+r.Intn(5); ti++ {
			ops := make(map[int]Pauli)
			for k := 0; k < r.Intn(4); k++ {
				ops[r.Intn(n)] = Pauli(1 + r.Intn(3))
			}
			h.Add(NewTerm(math.Floor(100*(2*r.Float64()-1))/8, ops))
		}
		fp := h.Fingerprint()

		// A shuffled, rebuilt copy must collide with itself.
		shuffled := &Hamiltonian{NumQubits: n}
		for j := len(h.Terms) - 1; j >= 0; j-- {
			shuffled.Add(NewTerm(h.Terms[j].Coef, h.Terms[j].Ops))
		}
		if shuffled.Fingerprint() != fp {
			t.Fatalf("iteration %d: shuffled copy hashes differently", i)
		}

		// Distinct operators must not collide. Random draws can repeat
		// an operator; verify by canonical description before declaring
		// a collision.
		desc := canonicalDescription(h)
		if prev, ok := seen[fp]; ok && prev != desc {
			t.Fatalf("iteration %d: collision between %q and %q", i, prev, desc)
		}
		seen[fp] = desc
	}
}

func canonicalDescription(h *Hamiltonian) string {
	encs := make([]string, len(h.Terms))
	for i, t := range h.Terms {
		key, _ := t.appendKey(nil, nil)
		encs[i] = string(key)
	}
	// Reuse the same canonical ordering the fingerprint applies.
	for i := 0; i < len(encs); i++ {
		for j := i + 1; j < len(encs); j++ {
			if encs[j] < encs[i] {
				encs[i], encs[j] = encs[j], encs[i]
			}
		}
	}
	out := fmt.Sprintf("n%d;", h.NumQubits)
	for _, e := range encs {
		out += e + ";"
	}
	return out
}

// TestTermKeySpelling: a term key is the "%016x" coefficient bits, then
// "|%d%s" per factor — the spelling every committed fingerprint hashes —
// including the zero padding the golden coefficients never need.
func TestTermKeySpelling(t *testing.T) {
	for _, coef := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, 1, -2.5, math.Inf(1), math.NaN()} {
		term := NewTerm(coef, map[int]Pauli{12: X, 0: Z, 3: Y, 7: 0})
		want := fmt.Sprintf("%016x|%d%s|%d%s|%d%s|%d%s", math.Float64bits(coef), 0, Z, 3, Y, 7, Pauli(0), 12, X)
		if got, _ := term.appendKey(nil, nil); string(got) != want {
			t.Errorf("coef %v: key %q, want %q", coef, got, want)
		}
	}
}
