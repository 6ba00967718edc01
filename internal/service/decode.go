package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/qasm"
)

// maxPooledSubmitBuf is the largest body buffer returned to submitBufs,
// so one huge submission does not stay pinned in the pool.
const maxPooledSubmitBuf = 1 << 20

// submitBufs recycles POST /v1/jobs body buffers. Nothing decoded from a
// body points into it, so a buffer is free once its body is decoded.
var submitBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readJob reads one POST /v1/jobs body from r into a pooled buffer and
// decodes it; errors.As still finds a read error's *http.MaxBytesError.
func readJob(r io.Reader) (*submitJob, error) {
	buf := submitBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(r)
	var job *submitJob
	if err != nil {
		err = fmt.Errorf("reading request: %w", err)
	} else if job, err = decodeJob(buf.Bytes()); err != nil {
		err = fmt.Errorf("decoding request: %w", err)
	}
	if buf.Cap() <= maxPooledSubmitBuf {
		submitBufs.Put(buf)
	}
	return job, err
}

// submitJob is one decoded envelope in one allocation: the request and the
// circuit and wire Hamiltonian it decodes into (req.Circuit stays nil).
type submitJob struct {
	req        SubmitRequest
	circ       circuit.Circuit
	ham        WireHamiltonian
	hasCircuit bool
	circErr    error // the first unknown gate name, reported where ToCircuit reports it
}

// circuit is the envelope's circuit: the "circuit" member checked as
// ToCircuit checks it, or the "qasm" text parsed. Exactly one must be set.
func (j *submitJob) circuit() (*circuit.Circuit, error) {
	switch {
	case !j.hasCircuit && j.req.QASM != "":
		return qasm.Parse(j.req.QASM)
	case !j.hasCircuit:
		return nil, errors.New("missing circuit")
	case j.req.QASM != "":
		return nil, errors.New("set exactly one of circuit and qasm")
	case j.circErr != nil:
		return nil, j.circErr
	}
	return &j.circ, j.circ.Validate()
}

// arena is one backing array of a decoded job: the first pass counts its
// elements, the second allocates it at that size and carves it.
type arena[T any] struct {
	s []T
	n int
}

// add counts v on the counting pass and appends it on the fill pass.
func (a *arena[T]) add(fill bool, v T) {
	if fill {
		a.s = append(a.s, v)
	} else {
		a.n++
	}
}

// next adds a zero element and returns it to be read into: on the fill
// pass the arena's, on the counting pass one that is thrown away.
func (a *arena[T]) next(fill bool) *T {
	if !fill {
		a.n++
		return new(T)
	}
	a.s = append(a.s, *new(T))
	return &a.s[len(a.s)-1]
}

// since carves what was added from start on: nil when nothing was, as
// circuit.Carve leaves an empty slice.
func (a *arena[T]) since(start int) []T {
	if end := len(a.s); end > start {
		return a.s[start:end:end]
	}
	return nil
}

// gateNames lists every gate's wire name, indexed by its type.
var gateNames = func() []string {
	var names []string
	for g := gate.Type(0); g.Valid(); g++ {
		names = append(names, g.String())
	}
	return names
}()

// lookupGate is gate.Parse for a name in the body: no string made, no
// hash taken.
func lookupGate(name []byte) (gate.Type, bool) {
	for g, n := range gateNames {
		if len(n) == len(name) && n[0] == name[0] && string(name) == n {
			return gate.Type(g), true
		}
	}
	return 0, false
}

// jobDecoder reads the envelope SubmitRequest describes, each value as
// encoding/json reads it, but refuses repeated keys, keys matching a field
// only after case folding, and anything after the envelope. It reads the
// body twice with the same code: the first pass checks the syntax and
// counts, the second fills arenas of exactly the counted sizes and parses
// each number, once. Every reader takes the cursor and returns it past
// what it read; a reader that fails records the error and returns the end
// of the body, where every reader stops.
type jobDecoder struct {
	b    []byte
	fill bool
	err  error // the first failure
	job  *submitJob

	ops    arena[circuit.Op]
	qubits arena[int]
	floats arena[float64] // op parameters, then sweep points
	points arena[[]float64]
	terms  arena[WireTerm]
	paulis arena[WirePauli]
}

// The fields of each object of the envelope, in the order its reader
// switches on them.
var (
	envelopeFields    = []string{"kind", "circuit", "qasm", "shots", "seed", "hamiltonian", "points", "timeout_ms"}
	circuitFields     = []string{"name", "qubits", "clbits", "ops"}
	opFields          = []string{"gate", "qubits", "params", "clbit"}
	hamiltonianFields = []string{"qubits", "terms"}
	termFields        = []string{"coef", "paulis"}
	pauliFields       = []string{"q", "p"}
)

// decodeJob decodes one envelope; the result shares no memory with body.
func decodeJob(body []byte) (*submitJob, error) {
	d := jobDecoder{b: body, job: new(submitJob)}
	d.pass()
	if d.err == nil {
		d.fill, *d.job = true, submitJob{}
		d.ops.s = make([]circuit.Op, 0, d.ops.n)
		d.qubits.s = make([]int, 0, d.qubits.n)
		d.floats.s = make([]float64, 0, d.floats.n)
		d.points.s = make([][]float64, 0, d.points.n)
		d.terms.s = make([]WireTerm, 0, d.terms.n)
		d.paulis.s = make([]WirePauli, 0, d.paulis.n)
		d.pass()
	}
	if d.err != nil {
		return nil, d.err
	}
	return d.job, nil
}

// pass reads the whole body: one envelope or null, then only whitespace.
func (d *jobDecoder) pass() {
	if i := ws(d.b, d.envelope(0)); i < len(d.b) {
		d.fail(fmt.Errorf("invalid character %q at offset %d after the envelope", d.b[i], i))
	}
}

func (d *jobDecoder) envelope(i int) int {
	req := &d.job.req
	i, ok := d.open(i, '{')
	var seen uint32
	for n := 0; ok; n++ {
		var f int
		switch i, f = d.member(i, n, &seen, envelopeFields); f {
		case -1:
			ok = false
		case 0:
			i = d.readText(i, &req.Kind)
		case 1:
			i, d.job.hasCircuit = d.circuit(i)
		case 2:
			i = d.readText(i, &req.QASM)
		case 3:
			i = d.readInt(i, &req.Shots)
		case 4:
			i = d.readUint(i, &req.Seed)
		case 5:
			var has bool
			if i, has = d.hamiltonian(i); has {
				req.Hamiltonian = &d.job.ham
			}
		case 6:
			req.Points, i = d.pointList(i)
		case 7:
			i = d.readInt(i, &req.TimeoutMs)
		}
	}
	return i
}

// circuit reads the "circuit" member, or null, and reports whether there
// was one.
func (d *jobDecoder) circuit(i int) (int, bool) {
	c := &d.job.circ
	i, has := d.open(i, '{')
	var seen uint32
	for n, ok := 0, has; ok; n++ {
		var f int
		switch i, f = d.member(i, n, &seen, circuitFields); f {
		case -1:
			ok = false
		case 0:
			i = d.readText(i, &c.Name)
		case 1:
			i = d.readInt(i, &c.NumQubits)
		case 2:
			i = d.readInt(i, &c.NumClbits)
		case 3:
			c.Ops, i = d.opList(i)
		}
	}
	return i, has
}

func (d *jobDecoder) opList(i int) ([]circuit.Op, int) {
	start := len(d.ops.s)
	i, ok := d.open(i, '[')
	for n := 0; ok; n++ {
		if i, ok = d.more(i, n, ']'); ok {
			i = d.op(i, d.ops.next(d.fill))
		}
	}
	return d.ops.since(start), i
}

// op reads one op into dst, in any form encoding/json reads. A missing
// or null gate name is the empty one, which the fill pass refuses as
// ToCircuit does.
func (d *jobDecoder) op(i int, dst *circuit.Op) int {
	var name []byte
	i, ok := d.open(i, '{')
	var seen uint32
	for n := 0; ok; n++ {
		var f int
		switch i, f = d.member(i, n, &seen, opFields); f {
		case -1:
			ok = false
		case 0:
			name, i = d.str(i)
		case 1:
			dst.Qubits, i = d.intList(i)
		case 2:
			dst.Params, i = d.floatList(i)
		case 3:
			i = d.readInt(i, &dst.Clbit)
		}
	}
	if !d.fill || d.err != nil {
		return i
	}
	g, known := lookupGate(name)
	if !known && d.job.circErr == nil {
		_, perr := gate.Parse(string(name))
		d.job.circErr = fmt.Errorf("op %d: %w", len(d.ops.s)-1, perr)
	}
	dst.Gate = g
	return i
}

func (d *jobDecoder) intList(i int) ([]int, int) {
	start := len(d.qubits.s)
	i, ok := d.open(i, '[')
	for n := 0; ok; n++ {
		if i, ok = d.more(i, n, ']'); ok {
			var q int
			i = d.readInt(i, &q)
			d.qubits.add(d.fill, q)
		}
	}
	return d.qubits.since(start), i
}

func (d *jobDecoder) floatList(i int) ([]float64, int) {
	start := len(d.floats.s)
	i, ok := d.open(i, '[')
	for n := 0; ok; n++ {
		if i, ok = d.more(i, n, ']'); ok {
			var v float64
			i = d.readFloat(i, &v)
			d.floats.add(d.fill, v)
		}
	}
	return d.floats.since(start), i
}

func (d *jobDecoder) pointList(i int) ([][]float64, int) {
	start := len(d.points.s)
	i, ok := d.open(i, '[')
	for n := 0; ok; n++ {
		if i, ok = d.more(i, n, ']'); ok {
			var pt []float64
			pt, i = d.floatList(i)
			d.points.add(d.fill, pt)
		}
	}
	return d.points.since(start), i
}

// hamiltonian reads the "hamiltonian" member, or null, and reports
// whether there was one.
func (d *jobDecoder) hamiltonian(i int) (int, bool) {
	h := &d.job.ham
	i, has := d.open(i, '{')
	var seen uint32
	for n, ok := 0, has; ok; n++ {
		var f int
		switch i, f = d.member(i, n, &seen, hamiltonianFields); f {
		case -1:
			ok = false
		case 0:
			i = d.readInt(i, &h.Qubits)
		case 1:
			h.Terms, i = d.termList(i)
		}
	}
	return i, has
}

func (d *jobDecoder) termList(i int) ([]WireTerm, int) {
	start := len(d.terms.s)
	i, ok := d.open(i, '[')
	for n := 0; ok; n++ {
		if i, ok = d.more(i, n, ']'); ok {
			var t WireTerm
			t, i = d.term(i)
			d.terms.add(d.fill, t)
		}
	}
	return d.terms.since(start), i
}

func (d *jobDecoder) term(i int) (t WireTerm, _ int) {
	i, ok := d.open(i, '{')
	var seen uint32
	for n := 0; ok; n++ {
		var f int
		switch i, f = d.member(i, n, &seen, termFields); f {
		case -1:
			ok = false
		case 0:
			i = d.readFloat(i, &t.Coef)
		case 1:
			t.Paulis, i = d.pauliList(i)
		}
	}
	return t, i
}

func (d *jobDecoder) pauliList(i int) ([]WirePauli, int) {
	start := len(d.paulis.s)
	i, ok := d.open(i, '[')
	for n := 0; ok; n++ {
		if i, ok = d.more(i, n, ']'); ok {
			var p WirePauli
			p, i = d.pauli(i)
			d.paulis.add(d.fill, p)
		}
	}
	return d.paulis.since(start), i
}

func (d *jobDecoder) pauli(i int) (p WirePauli, _ int) {
	i, ok := d.open(i, '{')
	var seen uint32
	for n := 0; ok; n++ {
		var f int
		switch i, f = d.member(i, n, &seen, pauliFields); f {
		case -1:
			ok = false
		case 0:
			i = d.readInt(i, &p.Q)
		case 1:
			i = d.readText(i, &p.P)
		}
	}
	return p, i
}

// open reads the opening bracket c of an object or array, or null, and
// reports whether there was one.
func (d *jobDecoder) open(i int, c byte) (int, bool) {
	switch i = ws(d.b, i); {
	case i < len(d.b) && d.b[i] == c:
		return i + 1, true
	case isNull(d.b, i):
		return i + len("null"), false
	}
	return d.want(i, strconv.QuoteRune(rune(c))), false
}

// more reports whether another member or element follows in the object
// or array open at i, n of them read so far, reading the comma before it
// or the closing bracket after the last.
func (d *jobDecoder) more(i, n int, close byte) (int, bool) {
	i = ws(d.b, i)
	switch {
	case i >= len(d.b):
	case d.b[i] == close:
		return i + 1, false
	case n == 0:
		return i, true
	case d.b[i] == ',':
		return i + 1, true
	}
	if n == 0 {
		return i, true // the first element's reader reports the end
	}
	return d.want(i, "',' or "+strconv.QuoteRune(rune(close))), false
}

// member reads the next member's key and colon in the object open at i,
// n members read so far, and returns the key's index in names: -1 once
// the object has closed. A key that is not exactly one of names, or that
// seen already holds, is an error.
func (d *jobDecoder) member(i, n int, seen *uint32, names []string) (int, int) {
	i, more := d.more(i, n, '}')
	if !more {
		return i, -1
	}
	var key []byte
	if key, i = d.str(i); d.err != nil {
		return i, -1
	}
	f := 0
	for f < len(names) && string(key) != names[f] {
		f++
	}
	if f == len(names) || *seen&(1<<f) != 0 {
		return d.fail(fmt.Errorf("unknown or repeated field %q", key)), -1
	}
	*seen |= 1 << f
	if i = ws(d.b, i); i >= len(d.b) || d.b[i] != ':' {
		return d.want(i, "':'"), -1
	}
	return i + 1, f
}

// ws returns the index of the first byte at or after i that is not JSON
// whitespace.
func ws(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// isNull reports whether a null literal starts at b[i]: as with
// encoding/json, a null value leaves its field as it is.
func isNull(b []byte, i int) bool {
	return i+4 <= len(b) && string(b[i:i+4]) == "null"
}

// fail records err unless an earlier failure is recorded, and returns the
// end of the body.
func (d *jobDecoder) fail(err error) int {
	if d.err == nil {
		d.err = err
	}
	return len(d.b)
}

// want fails with a syntax error at b[i]: what was wanted there.
func (d *jobDecoder) want(i int, what string) int {
	if i >= len(d.b) {
		return d.fail(fmt.Errorf("unexpected end of JSON input, want %s", what))
	}
	return d.fail(fmt.Errorf("invalid character %q at offset %d, want %s", d.b[i], i, what))
}

// str reads a string literal, or null (nil), and returns the bytes between
// its quotes, or when they hold an escape or a byte ≥ 0x80 what
// json.Unmarshal makes of it: escapes, surrogates and U+FFFD as encoding/json.
func (d *jobDecoder) str(i int) ([]byte, int) {
	b := d.b
	if i = ws(b, i); i >= len(b) || b[i] != '"' {
		if isNull(b, i) {
			return nil, i + len("null")
		}
		return nil, d.want(i, "string")
	}
	i++
	start, plain := i, true
	for ; i < len(b) && b[i] != '"'; i++ {
		switch c := b[i]; {
		case c >= 0x20 && c < 0x80 && c != '\\':
		case c < 0x20:
			return nil, d.want(i, "string character")
		case c == '\\':
			plain = false
			i++ // the escaped byte
		default:
			plain = false
		}
	}
	if i >= len(b) {
		return nil, d.want(i, "'\"'")
	}
	if plain {
		return b[start:i], i + 1
	}
	var s string
	if err := json.Unmarshal(b[start-1:i+1], &s); err != nil {
		return nil, d.fail(err)
	}
	return []byte(s), i + 1
}

// readText copies a string out of the body into dst. A kind name is stored
// as the kinds table's own string: no allocation.
func (d *jobDecoder) readText(i int, dst *string) int {
	b, i := d.str(i)
	if !d.fill || b == nil {
		return i
	}
	for k := range kinds {
		if kinds[k].name == string(b) {
			*dst = kinds[k].name
			return i
		}
	}
	*dst = string(b)
	return i
}

// number reads a JSON number, or null (nil), and returns its literal.
// Both passes check its syntax; only the fill pass parses it.
func (d *jobDecoder) number(i int) ([]byte, int) {
	b := d.b
	start := ws(b, i)
	i, ok := numberEnd(b, start)
	switch {
	case ok:
		return b[start:i], i
	case i == start && isNull(b, i):
		return nil, i + len("null")
	}
	return nil, d.want(i, "number")
}

// numberEnd scans the JSON number syntax at b[i:] and returns where it
// ends, or where it breaks and false.
func numberEnd(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	ok := i < len(b) && b[i] == '0' // a leading zero is the whole integer part
	if ok {
		i++
	} else {
		i, ok = digits(b, i)
	}
	if ok && i < len(b) && b[i] == '.' {
		i, ok = digits(b, i+1)
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok = digits(b, i)
	}
	return i, ok
}

// readInt reads a number, or null, into dst as encoding/json reads one
// into an int: no fraction, no exponent, within the int's range; -0 is 0.
func (d *jobDecoder) readInt(i int, dst *int) int {
	lit, i := d.number(i)
	if !d.fill || lit == nil {
		return i
	}
	neg := lit[0] == '-'
	digits := lit
	if neg {
		digits = lit[1:]
	}
	v, ok := decimal(digits)
	switch {
	case ok && !neg && v <= math.MaxInt:
		*dst = int(v)
	case ok && neg && v <= -math.MinInt:
		*dst = int(-v)
	default:
		return d.fail(fmt.Errorf("number %s does not fit an int", lit))
	}
	return i
}

// readUint reads a number, or null, into dst as encoding/json reads one
// into a uint64: digits only, so -0 is refused as -1 is.
func (d *jobDecoder) readUint(i int, dst *uint64) int {
	lit, i := d.number(i)
	if !d.fill || lit == nil {
		return i
	}
	v, ok := decimal(lit)
	if !ok {
		return d.fail(fmt.Errorf("number %s does not fit a uint64", lit))
	}
	*dst = v
	return i
}

// readFloat reads a number, or null, into dst under strconv's rules, as
// encoding/json does: 1e400 is refused and -0 keeps its sign.
func (d *jobDecoder) readFloat(i int, dst *float64) int {
	lit, i := d.number(i)
	if !d.fill || lit == nil {
		return i
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return d.fail(err)
	}
	*dst = v
	return i
}

// decimal parses lit as an unsigned decimal integer: false when it holds
// anything but digits or exceeds a uint64.
func decimal(lit []byte) (uint64, bool) {
	var v uint64
	for _, c := range lit {
		c -= '0'
		if c > 9 || v > (math.MaxUint64-uint64(c))/10 {
			return 0, false
		}
		v = v*10 + uint64(c)
	}
	return v, true
}

// digits skips the run of decimal digits at b[i:] and reports whether
// there was one.
func digits(b []byte, i int) (int, bool) {
	start := i
	for ; i+8 <= len(b); i += 8 { // eight bytes at a time while all are digits
		if w := binary.LittleEndian.Uint64(b[i:]); w&0xF0F0F0F0F0F0F0F0|(w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
			break
		}
	}
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i, i > start
}
