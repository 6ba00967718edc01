package qasm

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qgear/internal/artifact/artifacttest"
	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/oracle"
	"qgear/internal/qmath"
)

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

func bellCircuit() *circuit.Circuit {
	c := circuit.New(2, 2)
	c.Name = "bell"
	c.H(0).CX(0, 1).Barrier().Measure(0, 0).Measure(1, 1)
	return c
}

func TestExportKnownProgram(t *testing.T) {
	src, err := Export(bellCircuit())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"OPENQASM 2.0;",
		`include "qelib1.inc";`,
		"// circuit: bell",
		"qreg q[2];",
		"creg c[2];",
		"h q[0];",
		"cx q[0],q[1];",
		"barrier q;",
		"measure q[0] -> c[0];",
		"measure q[1] -> c[1];",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("export missing %q in:\n%s", want, src)
		}
	}
}

func allGatesCircuit() *circuit.Circuit {
	c := circuit.New(3, 3)
	c.Name = "allgates"
	c.H(0).X(1).Y(2).Z(0).S(1).T(2)
	c.Append(gate.Sdg, []int{0}, nil)
	c.Append(gate.Tdg, []int{1}, nil)
	c.Append(gate.I, []int{2}, nil)
	c.RX(0.25, 0).RY(-1.5, 1).RZ(math.Pi/3, 2).P(2.75, 0)
	c.U3(0.1, 0.2, 0.3, 1)
	c.CX(0, 1).CZ(1, 2).CP(0.625, 2, 0).CRY(-0.875, 0, 2).SWAP(1, 2)
	c.Barrier().Measure(2, 1)
	return c
}

// exactAngles is a circuit of angles that survive only a bit-exact
// spelling (%.17g).
func exactAngles() *circuit.Circuit {
	c := circuit.New(1, 0)
	for _, a := range []float64{math.Pi, -math.Pi / 7, 1e-17, 0.1 + 0.2, 2.000000000000004} {
		c.RY(a, 0)
	}
	return c
}

// roundTrip: Export then Parse gives back exactly the circuit written.
func roundTrip(t *testing.T, what string, c *circuit.Circuit) {
	t.Helper()
	src, err := Export(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: %v\nsource:\n%s", what, err, src)
	}
	if !reflect.DeepEqual(normalize(c), normalize(back)) {
		t.Errorf("%s: round trip differs:\nwant %+v\ngot  %+v", what, c, back)
	}
}

// TestRoundTripAllGates: every gate, the shared seed circuits and the
// Bell pair.
func TestRoundTripAllGates(t *testing.T) {
	for i, c := range append(artifacttest.SeedCircuits(t), bellCircuit(), allGatesCircuit()) {
		roundTrip(t, fmt.Sprintf("circuit %d", i), c)
	}
}

// TestRoundTripExactAngles: the angles come back bit-exact (DeepEqual
// compares the floats exactly).
func TestRoundTripExactAngles(t *testing.T) {
	roundTrip(t, "exact angles", exactAngles())
}

// TestRandomRoundTripProperty: thirty seeded gate soups with
// measurements.
func TestRandomRoundTripProperty(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		r := qmath.NewRNG(seed)
		n := 2 + r.Intn(5)
		c := oracle.Soup(n, r.Intn(40), r)
		c.NumClbits = n
		for i := r.Intn(n); i > 0; i-- {
			c.Measure(r.Intn(n), r.Intn(n))
		}
		roundTrip(t, fmt.Sprintf("soup %d", seed), c)
	}
}

func TestEmptyCircuitRoundTrip(t *testing.T) {
	roundTrip(t, "empty", circuit.New(3, 0))
}

const piExprSrc = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
ry(pi) q[0];
ry(pi/2) q[0];
ry(-pi/4) q[1];
ry(2*pi) q[1];
cu1(3*pi/8) q[0],q[1];
ry(0.5) q[0];
`

func TestParsePiExpressions(t *testing.T) {
	c, err := Parse(piExprSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{math.Pi, math.Pi / 2, -math.Pi / 4, 2 * math.Pi, 3 * math.Pi / 8, 0.5}
	for i, w := range want {
		if math.Abs(c.Ops[i].Params[0]-w) > 1e-15 {
			t.Fatalf("op %d angle %g, want %g", i, c.Ops[i].Params[0], w)
		}
	}
}

const aliasSrc = "OPENQASM 2.0;\nqreg q[2];\np(0.5) q[0];\ncp(0.25) q[0],q[1];\n"

func TestParseQiskitAliases(t *testing.T) {
	c, err := Parse(aliasSrc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops[0].Gate != gate.P || c.Ops[1].Gate != gate.CP {
		t.Fatalf("alias parsing wrong: %v %v", c.Ops[0].Gate, c.Ops[1].Gate)
	}
}

// parseErrorCases are sources Parse must refuse; they also seed
// FuzzQASMParse.
var parseErrorCases = map[string]string{
	"bad version":       "OPENQASM 3.0;\nqreg q[1];\n",
	"no qreg":           "OPENQASM 2.0;\nh q[0];\n",
	"missing semicolon": "OPENQASM 2.0;\nqreg q[1]\n",
	"unknown gate":      "OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n",
	"bad arity":         "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n",
	"bad params":        "OPENQASM 2.0;\nqreg q[1];\nry q[0];\n",
	"bad index":         "OPENQASM 2.0;\nqreg q[1];\nh q[x];\n",
	"out of range":      "OPENQASM 2.0;\nqreg q[1];\nh q[5];\n",
	"bad measure":       "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0];\n",
	"bad angle":         "OPENQASM 2.0;\nqreg q[1];\nry(banana) q[0];\n",
	"div by zero":       "OPENQASM 2.0;\nqreg q[1];\nry(pi/0) q[0];\n",
	"unterminated":      "OPENQASM 2.0;\nqreg q[1];\nry(0.5 q[0];\n",
	"bad qreg":          "OPENQASM 2.0;\nqreg r[1];\n",
	"empty":             "",
}

func TestParseErrors(t *testing.T) {
	for name, src := range parseErrorCases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestExportRejectsInvalid(t *testing.T) {
	bad := &circuit.Circuit{NumQubits: 1, Ops: []circuit.Op{{Gate: gate.H, Qubits: []int{7}}}}
	if _, err := Export(bad); err == nil {
		t.Fatal("invalid circuit exported")
	}
}

// sameCircuit is normalize-equality with parameters compared by bits;
// any two NaNs are equal, since Export spells every NaN the same way.
func sameCircuit(a, b *circuit.Circuit) bool {
	a, b = normalize(a), normalize(b)
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if !slices.EqualFunc(a.Ops[i].Params, b.Ops[i].Params, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
		}) {
			return false
		}
		a.Ops[i].Params, b.Ops[i].Params = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// FuzzQASMParse: Parse reads the untrusted "qasm" member of a job
// submission. It must not panic, must allocate no more than a constant
// times the source (a huge qreg costs nothing per qubit), and whatever it
// accepts and Export can write re-parses to the same circuit.
func FuzzQASMParse(f *testing.F) {
	for _, c := range append(artifacttest.SeedCircuits(f), bellCircuit(), allGatesCircuit(), exactAngles(), circuit.New(3, 0)) {
		src, err := Export(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, src := range []string{piExprSrc, aliasSrc,
		"OPENQASM 2.0;\nqreg q[2000000000];\nh q[1999999999];\n",
		"OPENQASM 2.0;\r\n// circuit: x // y\r\nqreg q[1];\r\nrx(-nan) q[0]; // circuit: z\nry(+inf*-1) q[0];\nrz(-0) q[0];\n",
	} {
		f.Add(src)
	}
	for _, src := range parseErrorCases {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var c *circuit.Circuit
		var err error
		grew := artifacttest.AllocBytes(func() { c, err = Parse(src) })
		if limit := uint64(64*len(src) + 64<<10); grew > limit {
			t.Fatalf("parsing %d bytes allocated %d", len(src), grew)
		}
		if err != nil {
			return
		}
		again, err := Export(c)
		if err != nil {
			return
		}
		back, err := Parse(again)
		if err != nil {
			t.Fatalf("an exported circuit does not parse: %v\n%s", err, again)
		}
		if !sameCircuit(c, back) {
			t.Fatalf("round trip differs:\n%q\n%q", src, again)
		}
	})
}
