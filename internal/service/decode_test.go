package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"qgear/internal/artifact/artifacttest"
	"qgear/internal/circuit"
	"qgear/internal/observable"
	"qgear/internal/qasm"
	"qgear/internal/randcirc"
)

// legacySubmitDecode is the reflection decode the hand-written one
// replaced: a strict json.Decoder and WireCircuit.ToCircuit, plus the
// three refusals that decoder lacked (trailing bytes, repeated keys,
// case-folded keys). It is the oracle of FuzzSubmitEnvelope.
func legacySubmitDecode(body []byte) (*SubmitRequest, *circuit.Circuit, error) {
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, fmt.Errorf("decoding request: %w", err)
	}
	// dec.More misses a stray ']' or '}', so the rest is checked directly.
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, nil, errors.New("trailing data")
	}
	if err := legacyKeyCheck(body); err != nil {
		return nil, nil, err
	}
	var c *circuit.Circuit
	var err error
	switch {
	case req.Circuit != nil && req.QASM != "":
		return nil, nil, errors.New("set exactly one of circuit and qasm")
	case req.Circuit != nil:
		c, err = req.Circuit.ToCircuit()
	case req.QASM != "":
		c, err = qasm.Parse(req.QASM)
	default:
		return nil, nil, errors.New("missing circuit")
	}
	if err != nil {
		return nil, nil, err
	}
	return &req, c, nil
}

// wireFieldNames is every JSON field name of the envelope's structs. No
// two of them are equal under case folding, so a key encoding/json
// matched to a field is that field's exact name iff it is in this set.
var wireFieldNames = map[string]bool{
	"kind": true, "circuit": true, "qasm": true, "shots": true, "seed": true,
	"hamiltonian": true, "points": true, "timeout_ms": true,
	"name": true, "qubits": true, "clbits": true, "ops": true,
	"gate": true, "params": true, "clbit": true,
	"terms": true, "coef": true, "paulis": true, "q": true, "p": true,
}

// legacyKeyCheck walks the first JSON value of body with Token and
// refuses a key repeated in one object or not exactly a field name.
// Syntax errors are left to the decoder.
func legacyKeyCheck(body []byte) error {
	type frame struct {
		keys    map[string]bool // nil in an array
		wantKey bool
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil
		}
		top := len(stack) - 1
		if key, ok := tok.(string); ok && top >= 0 && stack[top].wantKey {
			if stack[top].keys[key] || !wireFieldNames[key] {
				return fmt.Errorf("key %q refused", key)
			}
			stack[top].keys[key], stack[top].wantKey = true, false
			continue
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, frame{keys: map[string]bool{}, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:top]
		}
		// A value ended: its object wants the next key, or the walk is done.
		if len(stack) == 0 {
			return nil
		}
		if f := &stack[len(stack)-1]; f.keys != nil {
			f.wantKey = true
		}
	}
}

// decodeBoth decodes body the new way (decodeJob, then the circuit the
// envelope carries) and the legacy way, and reports how they differ.
func decodeBoth(body []byte) (newErr, oldErr error, diff string) {
	job, newErr := decodeJob(body)
	var c *circuit.Circuit
	if newErr == nil {
		c, newErr = job.circuit()
	}
	oldReq, oldC, oldErr := legacySubmitDecode(body)
	if newErr != nil || oldErr != nil {
		return newErr, oldErr, ""
	}
	return nil, nil, diffJob(&job.req, oldReq, c, oldC)
}

// diffJob describes the first difference between two decoded jobs, ""
// when they are the same job: bit-equal numbers, nil equal to empty.
func diffJob(a, b *SubmitRequest, ca, cb *circuit.Circuit) string {
	if a.Kind != b.Kind || a.QASM != b.QASM || a.Shots != b.Shots || a.Seed != b.Seed || a.TimeoutMs != b.TimeoutMs {
		return fmt.Sprintf("scalars %q/%d/%d/%d vs %q/%d/%d/%d", a.Kind, a.Shots, a.Seed, a.TimeoutMs, b.Kind, b.Shots, b.Seed, b.TimeoutMs)
	}
	if len(a.Points) != len(b.Points) {
		return fmt.Sprintf("%d points vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if !sameBits(a.Points[i], b.Points[i]) {
			return fmt.Sprintf("point %d: %v vs %v", i, a.Points[i], b.Points[i])
		}
	}
	if d := diffHamiltonian(a.Hamiltonian, b.Hamiltonian); d != "" {
		return d
	}
	if ca.Name != cb.Name || ca.NumQubits != cb.NumQubits || ca.NumClbits != cb.NumClbits || len(ca.Ops) != len(cb.Ops) {
		return fmt.Sprintf("circuit %q %d/%d/%d ops vs %q %d/%d/%d ops",
			ca.Name, ca.NumQubits, ca.NumClbits, len(ca.Ops), cb.Name, cb.NumQubits, cb.NumClbits, len(cb.Ops))
	}
	for i, op := range ca.Ops {
		o := cb.Ops[i]
		if op.Gate != o.Gate || !slices.Equal(op.Qubits, o.Qubits) || op.Clbit != o.Clbit || !sameBits(op.Params, o.Params) {
			return fmt.Sprintf("op %d: %+v vs %+v", i, op, o)
		}
	}
	return ""
}

func diffHamiltonian(a, b *WireHamiltonian) string {
	if (a == nil) != (b == nil) {
		return fmt.Sprintf("hamiltonian %v vs %v", a, b)
	}
	if a == nil {
		return ""
	}
	if a.Qubits != b.Qubits || len(a.Terms) != len(b.Terms) {
		return fmt.Sprintf("hamiltonian %d qubits/%d terms vs %d/%d", a.Qubits, len(a.Terms), b.Qubits, len(b.Terms))
	}
	for i, t := range a.Terms {
		u := b.Terms[i]
		if math.Float64bits(t.Coef) != math.Float64bits(u.Coef) || !slices.Equal(t.Paulis, u.Paulis) {
			return fmt.Sprintf("term %d: %+v vs %+v", i, t, u)
		}
	}
	return ""
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func marshalEnvelope(t testing.TB, req SubmitRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// submitShape is one envelope of the benchmark's serve_mix workload.
type submitShape struct {
	name string
	body []byte
}

// serveMixShapes are serve_mix's three envelope shapes: a 12-qubit
// 100-block simulate with 1000 shots, a TFIM-12 expectation, and a
// 16-point sweep of a 24-parameter ansatz.
func serveMixShapes(t testing.TB) []submitShape {
	t.Helper()
	gen := func(measure bool) *WireCircuit {
		c, err := randcirc.Generate(randcirc.Spec{Qubits: 12, Blocks: 100, Seed: 7, Measure: measure})
		if err != nil {
			t.Fatal(err)
		}
		return FromCircuit(c)
	}
	ham := FromHamiltonian(observable.TransverseFieldIsing(12, 1.1, 0.7))
	ansatz := sweepAnsatz(12)
	ansatz.Name = "ansatz"
	return []submitShape{
		{"simulate", marshalEnvelope(t, SubmitRequest{Kind: "simulate", Circuit: gen(true), Shots: 1000, Seed: 99})},
		{"expectation", marshalEnvelope(t, SubmitRequest{Kind: "expectation", Circuit: gen(false), Hamiltonian: ham})},
		{"sweep", marshalEnvelope(t, SubmitRequest{Kind: "sweep", Circuit: FromCircuit(ansatz), Hamiltonian: ham,
			Points: angleGrid(ansatz.NumParams(), 16)})},
	}
}

func FuzzSubmitEnvelope(f *testing.F) {
	c, err := randcirc.Generate(randcirc.Spec{Qubits: 4, Blocks: 5, Seed: 3, Measure: true})
	if err != nil {
		f.Fatal(err)
	}
	ansatz := sweepAnsatz(4)
	ham := FromHamiltonian(observable.TransverseFieldIsing(4, 1.0, 0.7))
	src, err := qasm.Export(c)
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range []SubmitRequest{
		{Kind: "simulate", Circuit: FromCircuit(c), Shots: 100, Seed: 5, TimeoutMs: 2000},
		{Kind: "expectation", Circuit: FromCircuit(ansatz), Hamiltonian: ham},
		{Kind: "sweep", Circuit: FromCircuit(ansatz), Hamiltonian: ham, Points: angleGrid(ansatz.NumParams(), 4)},
		{Kind: "sweep", Circuit: FromCircuit(ansatz), Shots: 64, Seed: 1, Points: angleGrid(ansatz.NumParams(), 4)},
		{Kind: "gradient", Circuit: FromCircuit(ansatz), Hamiltonian: ham},
		{Kind: "simulate", QASM: src, Shots: 10},
		{Kind: "simulate", Circuit: &WireCircuit{Qubits: 1}},
		{},
	} {
		body := marshalEnvelope(f, req)
		f.Add(body)
		// The same envelope with whitespace between every token.
		var spaced bytes.Buffer
		if err := json.Indent(&spaced, body, " \r", "\t "); err != nil {
			f.Fatal(err)
		}
		f.Add(append(append([]byte("\n "), spaced.Bytes()...), "\t\r\n"...))
	}
	for _, row := range errorEnvelopeRows {
		if row.method == "POST" && row.path == "/v1/jobs" {
			f.Add([]byte(row.body))
		}
	}
	const h = `"circuit":{"qubits":1,"ops":[{"gate":"h","qubits":[0]}]}`
	for _, body := range []string{
		`{"kind":"simulate",` + h + `} garbage`,
		`{"kind":"simulate",` + h + `}{"kind":"simulate"}`,
		`{"kind":"simulate",` + h + `}]`,
		`{"kind":"simulate","kind":"simulate",` + h + `}`,
		`{"kind":"simulate","circuit":{"qubits":1},"circuit":{"ops":[{"gate":"h","qubits":[0]}]}}`,
		`{"KIND":"simulate",` + h + `}`,
		`{"kind":"simulate","ſhots":3,` + h + `}`,
		`{"kind":"simulate","circuit":{"qubits":1,"ops":[{"gate":"\u0068","qubits":[0]}]}}`,
		`{"kind":"simulate","circuit":{"name":"\ud83d\ude00 caf\u00e9 café ` + "\xff\xfe" + `","qubits":1,"ops":[{"gate":"h","qubits":[0]}]}}`,
		`{"\u006bind":"simulate",` + h + `}`,
		`{"kind":"sweep","circuit":{"qubits":1,"ops":[{"gate":"ry","qubits":[0],"params":[-0]}]},"points":[[-0],[1e308],[-1e-400],[null]],"shots":1}`,
		`{"kind":"simulate","circuit":{"qubits":1,"ops":[{"gate":"ry","qubits":[0],"params":[1e400]}]}}`,
		`{"kind":"simulate","shots":1.0,` + h + `}`,
		`{"kind":"simulate","shots":1e2,` + h + `}`,
		`{"kind":"simulate","seed":-1,` + h + `}`,
		`{"kind":"simulate","seed":-0,` + h + `}`,
		`{"kind":"simulate","seed":18446744073709551615,"shots":-0,` + h + `}`,
		`{"kind":null,"circuit":null,"qasm":null,"shots":null,"seed":null,"hamiltonian":null,"points":null,"timeout_ms":null}`,
		`{"kind":"simulate","circuit":{"name":null,"qubits":null,"clbits":null,"ops":null}}`,
		`{"kind":"simulate","circuit":{"qubits":1,"ops":[null,{"gate":null,"qubits":null,"params":null,"clbit":null}]}}`,
		`{"kind":"expectation",` + h + `,"hamiltonian":{"qubits":1,"terms":[null,{"coef":null,"paulis":[null,{"q":null,"p":"z"}]}]}}`,
		`{"kind":"expectation",` + h + `,"hamiltonian":{"qubits":1,"terms":[{"coef":2,"paulis":[]}]}}`,
		`null`,
		` `,
		`{"kind":"simulate","circuit":{"qubits":1,"ops":[{"gate":"h","qubits":[0],}]}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		grew := artifacttest.AllocBytes(func() { _, _ = decodeJob(body) })
		if limit := uint64(32*len(body) + 128<<10); grew > limit {
			t.Fatalf("decoding a %d-byte body allocated %d bytes", len(body), grew)
		}
		newErr, oldErr, diff := decodeBoth(body)
		if (newErr == nil) != (oldErr == nil) {
			t.Fatalf("verdicts differ on %q:\n new: %v\n old: %v", body, newErr, oldErr)
		}
		if diff != "" {
			t.Fatalf("decoded jobs differ on %q: %s", body, diff)
		}
	})
}

// warmAllocs is what one readJob of body allocates once the body pool is
// warm: the least over several calls, since under the race detector
// sync.Pool drops buffers at random. fn runs after each decode.
func warmAllocs(t *testing.T, body []byte, fn func(*submitJob)) (allocs, size uint64) {
	t.Helper()
	rd := bytes.NewReader(body)
	var before, after runtime.MemStats
	allocs, size = math.MaxUint64, math.MaxUint64
	for i := 0; i < 12; i++ {
		rd.Reset(body)
		runtime.ReadMemStats(&before)
		job, err := readJob(rd)
		if err == nil {
			fn(job)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		size = min(size, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, size
}

// arenaBytes is the size of what a decoded envelope owns: the circuit's
// ops and its qubit and parameter arenas, the sweep points, and the wire
// Hamiltonian's terms and factors.
func arenaBytes(job *submitJob) uint64 {
	n := uintptr(len(job.circ.Ops)) * unsafe.Sizeof(circuit.Op{})
	for _, op := range job.circ.Ops {
		n += uintptr(len(op.Qubits))*unsafe.Sizeof(0) + uintptr(len(op.Params))*unsafe.Sizeof(0.0)
	}
	for _, pt := range job.req.Points {
		n += unsafe.Sizeof(pt) + uintptr(len(pt))*unsafe.Sizeof(0.0)
	}
	for _, term := range job.ham.Terms {
		n += unsafe.Sizeof(term) + uintptr(len(term.Paulis))*unsafe.Sizeof(WirePauli{})
	}
	return uint64(n)
}

// TestSubmitDecodeAllocBound: decoding a serve_mix envelope costs a
// fixed handful of allocations — the job, the name, and one arena per
// kind of slice — and bytes close to what the decoded job owns; nothing
// per op, per point or per term.
func TestSubmitDecodeAllocBound(t *testing.T) {
	for _, s := range serveMixShapes(t) {
		job, err := decodeJob(s.body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.circuit(); err != nil {
			t.Fatal(err)
		}
		var hamAllocs uint64
		if job.req.Hamiltonian != nil {
			wire := job.req.Hamiltonian
			hamAllocs = uint64(testing.AllocsPerRun(5, func() { _, _ = wire.ToHamiltonian() }))
		}
		allocs, _ := warmAllocs(t, s.body, func(job *submitJob) {
			if _, err := job.circuit(); err != nil {
				t.Fatal(err)
			}
			if job.req.Hamiltonian != nil {
				if _, err := job.req.Hamiltonian.ToHamiltonian(); err != nil {
					t.Fatal(err)
				}
			}
		})
		_, grew := warmAllocs(t, s.body, func(*submitJob) {})
		own := arenaBytes(job)
		t.Logf("%s: %d-byte body, %d allocations (%d of them ToHamiltonian's), %d bytes for %d owned",
			s.name, len(s.body), allocs, hamAllocs, grew, own)
		if allocs > 8+hamAllocs {
			t.Errorf("%s: %d allocations, want at most 8 + ToHamiltonian's %d", s.name, allocs, hamAllocs)
		}
		if grew > own*3/2 {
			t.Errorf("%s: %d bytes allocated, want at most 1.5 × the %d the decoded job owns", s.name, grew, own)
		}
	}
}

// TestSubmitBodyNotRetained: a decoded job shares no byte with the body
// it came from, so the pooled buffer can be reused at once — checked by
// scribbling over the body, and over pooled buffers while concurrent
// submitters decode.
func TestSubmitBodyNotRetained(t *testing.T) {
	shapes := serveMixShapes(t)
	shapes = append(shapes,
		submitShape{"qasm", []byte(`{"kind":"simulate","qasm":"OPENQASM 2.0;\n// circuit: q\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"}`)},
		submitShape{"escaped", []byte(`{"kind":"expectation","circuit":{"name":"caf\u00e9","qubits":1,"ops":[{"gate":"\u0068","qubits":[0]}]},` +
			`"hamiltonian":{"qubits":1,"terms":[{"coef":1,"paulis":[{"q":0,"p":"\u005a"}]}]}}`)})
	type decoded struct {
		req *SubmitRequest
		c   *circuit.Circuit
	}
	decode := func(body []byte) decoded {
		job, err := decodeJob(body)
		if err != nil {
			t.Fatal(err)
		}
		c, err := job.circuit()
		if err != nil {
			t.Fatal(err)
		}
		return decoded{&job.req, c}
	}
	want := make([]decoded, len(shapes))
	for i, s := range shapes {
		want[i] = decode(s.body)
		scratch := bytes.Clone(s.body)
		got := decode(scratch)
		for k := range scratch {
			scratch[k] = 0xFF
		}
		if d := diffJob(got.req, want[i].req, got.c, want[i].c); d != "" {
			t.Fatalf("%s: overwriting the body changed the decoded job: %s", s.name, d)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				i := (g + n) % len(shapes)
				job, err := readJob(bytes.NewReader(shapes[i].body))
				if err != nil {
					errs <- err
					return
				}
				buf := submitBufs.Get().(*bytes.Buffer)
				b := buf.Bytes()
				b = b[:cap(b)]
				for k := range b {
					b[k] = 0xFF
				}
				submitBufs.Put(buf)
				c, err := job.circuit()
				if err == nil {
					if d := diffJob(&job.req, want[i].req, c, want[i].c); d != "" {
						err = fmt.Errorf("%s: %s", shapes[i].name, d)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// spaceReader is an endless body of JSON whitespace.
type spaceReader struct{}

func (spaceReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestHTTPBodyTooLarge: one byte over maxSubmitBytes is 413 too_large,
// whether the client declares the length or streams the body chunked;
// a body of exactly the limit is read and judged on its content.
func TestHTTPBodyTooLarge(t *testing.T) {
	_, ts := newHTTPServer(t, Config{})
	for _, tc := range []struct {
		name    string
		size    int64
		chunked bool
		status  int
		code    string
	}{
		{"content-length", maxSubmitBytes + 1, false, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"chunked", maxSubmitBytes + 1, true, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"at the limit", maxSubmitBytes, false, http.StatusBadRequest, CodeInvalidRequest},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", io.LimitReader(spaceReader{}, tc.size))
		if err != nil {
			t.Fatal(err)
		}
		if tc.chunked {
			req.TransferEncoding = []string{"chunked"}
		} else {
			req.ContentLength = tc.size
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		e := decodeError(t, resp)
		resp.Body.Close()
		if resp.StatusCode != tc.status || e.Error.Code != tc.code {
			t.Errorf("%s: HTTP %d %q, want %d %q (%s)", tc.name, resp.StatusCode, e.Error.Code, tc.status, tc.code, e.Error.Message)
		}
	}
}

// BenchmarkSubmitDecode reads and decodes each serve_mix envelope shape
// through the pooled buffer, as handleJobs does, and the simulate shape
// once more indented as json.MarshalIndent or Python's json.dumps with
// indent=2 writes it: whitespace between every token. Compare its ns/op,
// not its MB/s, with the compact shape's; the whitespace counts as bytes.
func BenchmarkSubmitDecode(b *testing.B) {
	shapes := serveMixShapes(b)
	var indented bytes.Buffer
	if err := json.Indent(&indented, shapes[0].body, "", "  "); err != nil {
		b.Fatal(err)
	}
	for _, s := range append(shapes, submitShape{"simulate_indented", indented.Bytes()}) {
		b.Run(s.name, func(b *testing.B) {
			rd := bytes.NewReader(s.body)
			b.ReportAllocs()
			b.SetBytes(int64(len(s.body)))
			for i := 0; i < b.N; i++ {
				rd.Reset(s.body)
				if _, err := readJob(rd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
