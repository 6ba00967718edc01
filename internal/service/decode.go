package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
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

// jobDecoder reads the envelope SubmitRequest describes, each value as
// encoding/json reads it, but refuses repeated keys, keys matching a field
// only after case folding, and anything after the envelope. It reads the
// body twice with the same code: the first pass checks everything and
// counts, the second fills arenas of exactly the counted sizes.
type jobDecoder struct {
	b    []byte
	i    int
	fill bool
	job  *submitJob

	ops    arena[circuit.Op]
	qubits arena[int]
	floats arena[float64] // op parameters, then sweep points
	points arena[[]float64]
	terms  arena[WireTerm]
	paulis arena[WirePauli]
}

// decodeJob decodes one envelope; the result shares no memory with body.
func decodeJob(body []byte) (*submitJob, error) {
	d := jobDecoder{b: body, job: new(submitJob)}
	err := d.pass()
	if err == nil {
		d.i, d.fill, *d.job = 0, true, submitJob{}
		d.ops.s = make([]circuit.Op, 0, d.ops.n)
		d.qubits.s = make([]int, 0, d.qubits.n)
		d.floats.s = make([]float64, 0, d.floats.n)
		d.points.s = make([][]float64, 0, d.points.n)
		d.terms.s = make([]WireTerm, 0, d.terms.n)
		d.paulis.s = make([]WirePauli, 0, d.paulis.n)
		err = d.pass()
	}
	if err != nil {
		return nil, err
	}
	return d.job, nil
}

// pass reads the whole body: one envelope or null, then only whitespace.
func (d *jobDecoder) pass() error {
	req := &d.job.req
	_, err := d.object([]string{"kind", "circuit", "qasm", "shots", "seed", "hamiltonian", "points", "timeout_ms"}, func(f string) error {
		switch f {
		case "kind":
			return d.readText(&req.Kind)
		case "circuit":
			c := &d.job.circ
			ok, err := d.object([]string{"name", "qubits", "clbits", "ops"}, func(f string) error {
				switch f {
				case "name":
					return d.readText(&c.Name)
				case "qubits":
					return d.readNumber(&c.NumQubits)
				case "clbits":
					return d.readNumber(&c.NumClbits)
				}
				return arrayInto(d, &d.ops, &c.Ops, d.op)
			})
			d.job.hasCircuit = ok
			return err
		case "qasm":
			return d.readText(&req.QASM)
		case "shots":
			return d.readNumber(&req.Shots)
		case "seed":
			return d.readNumber(&req.Seed)
		case "hamiltonian":
			h := &d.job.ham
			ok, err := d.object([]string{"qubits", "terms"}, func(f string) error {
				if f == "qubits" {
					return d.readNumber(&h.Qubits)
				}
				return arrayInto(d, &d.terms, &h.Terms, d.term)
			})
			if ok {
				req.Hamiltonian = h
			}
			return err
		case "points":
			return arrayInto(d, &d.points, &req.Points, func() (pt []float64, err error) {
				err = d.floatArray(&pt)
				return
			})
		}
		return d.readNumber(&req.TimeoutMs)
	})
	if d.ws(); err == nil && d.i < len(d.b) {
		err = fmt.Errorf("invalid character %q at offset %d after the envelope", d.b[d.i], d.i)
	}
	return err
}

// op reads one op. A missing or null gate name is the empty one, which
// the fill pass refuses as ToCircuit does.
func (d *jobDecoder) op() (op circuit.Op, err error) {
	var name []byte
	_, err = d.object([]string{"gate", "qubits", "params", "clbit"}, func(f string) (err error) {
		switch f {
		case "gate":
			name, err = d.str()
			return err
		case "qubits":
			return arrayInto(d, &d.qubits, &op.Qubits, func() (q int, err error) {
				err = d.readNumber(&q)
				return
			})
		case "params":
			return d.floatArray(&op.Params)
		}
		return d.readNumber(&op.Clbit)
	})
	if err != nil || !d.fill {
		return op, err
	}
	g := gate.Type(0) // a byte-keyed lookup: gate.Parse(string(name)) allocates
	for g.Valid() && g.String() != string(name) {
		g++
	}
	if !g.Valid() && d.job.circErr == nil {
		_, perr := gate.Parse(string(name))
		d.job.circErr = fmt.Errorf("op %d: %w", len(d.ops.s), perr)
	}
	op.Gate = g
	return op, nil
}

func (d *jobDecoder) floatArray(dst *[]float64) error {
	return arrayInto(d, &d.floats, dst, func() (v float64, err error) {
		err = d.readNumber(&v)
		return
	})
}

func (d *jobDecoder) term() (t WireTerm, err error) {
	_, err = d.object([]string{"coef", "paulis"}, func(f string) error {
		if f == "coef" {
			return d.readNumber(&t.Coef)
		}
		return arrayInto(d, &d.paulis, &t.Paulis, func() (p WirePauli, err error) {
			_, err = d.object([]string{"q", "p"}, func(f string) error {
				if f == "q" {
					return d.readNumber(&p.Q)
				}
				return d.readText(&p.P)
			})
			return
		})
	})
	return
}

// arrayInto reads an array, or null, of elements read decodes into the
// next carve of a: nil when empty, as circuit.Carve leaves it.
func arrayInto[T any](d *jobDecoder, a *arena[T], dst *[]T, read func() (T, error)) error {
	start := len(a.s)
	_, err := d.seq('[', ']', func() error {
		v, err := read()
		if d.fill {
			a.s = append(a.s, v)
		} else {
			a.n++
		}
		return err
	})
	if end := len(a.s); end > start {
		*dst = a.s[start:end:end]
	}
	return err
}

// object reads an object, or null, calling read at each member's value
// with its key out of fields, and reports whether there was an object. A
// key that is not exactly one of fields, or that repeats, is an error.
func (d *jobDecoder) object(fields []string, read func(f string) error) (bool, error) {
	var seen uint32
	return d.seq('{', '}', func() error {
		key, err := d.str()
		if err != nil {
			return err
		}
		k := slices.Index(fields, string(key))
		if k < 0 || seen&(1<<k) != 0 {
			return fmt.Errorf("unknown or repeated field %q", key)
		}
		seen |= 1 << k
		if d.ws(); !d.eat(':') {
			return d.fail("':'")
		}
		return read(fields[k])
	})
}

// seq reads an object or an array, or null, calling read with the cursor
// at each member or element, and reports whether there was one.
func (d *jobDecoder) seq(open, close byte, read func() error) (bool, error) {
	if d.null() {
		return false, nil
	}
	if !d.eat(open) {
		return false, d.fail(strconv.QuoteRune(rune(open)))
	}
	for n := 0; ; n++ {
		if d.ws(); d.eat(close) {
			return true, nil
		}
		if n > 0 && !d.eat(',') {
			return true, d.fail("',' or " + strconv.QuoteRune(rune(close)))
		}
		if err := read(); err != nil {
			return true, err
		}
	}
}

func (d *jobDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *jobDecoder) ws() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// null skips whitespace and then a null literal if one is next: as with
// encoding/json, a null value leaves its field as it is.
func (d *jobDecoder) null() bool {
	if d.ws(); d.i+4 <= len(d.b) && d.b[d.i] == 'n' && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

func (d *jobDecoder) fail(want string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.b[d.i], d.i, want)
}

// str reads a string literal, or null (nil), and returns the bytes between
// its quotes, or when they hold an escape or a byte ≥ 0x80 what
// json.Unmarshal makes of it: escapes, surrogates and U+FFFD as encoding/json.
func (d *jobDecoder) str() ([]byte, error) {
	if d.null() {
		return nil, nil
	}
	if !d.eat('"') {
		return nil, d.fail("string")
	}
	start, plain := d.i, true
	for ; d.i < len(d.b) && d.b[d.i] != '"'; d.i++ {
		switch c := d.b[d.i]; {
		case c < 0x20:
			return nil, d.fail("string character")
		case c == '\\':
			plain = false
			d.i++ // the escaped byte
		case c >= 0x80:
			plain = false
		}
	}
	if !d.eat('"') {
		return nil, d.fail("'\"'")
	}
	if plain {
		return d.b[start : d.i-1], nil
	}
	var s string
	err := json.Unmarshal(d.b[start-1:d.i], &s)
	return []byte(s), err
}

// readText copies a string out of the body into dst. A kind name is stored
// as the kinds table's own string: no allocation.
func (d *jobDecoder) readText(dst *string) error {
	b, err := d.str()
	if err != nil || !d.fill {
		return err
	}
	for k := range kinds {
		if kinds[k].name == string(b) {
			*dst = kinds[k].name
			return nil
		}
	}
	*dst = string(b)
	return nil
}

// readNumber reads a JSON number, or null, into *int, *uint64 or *float64
// under strconv's rules for that type, as encoding/json does: 1.0, 1e2 and
// -1 are not a uint64, 1e400 is not a float64, and -0 keeps its sign.
func (d *jobDecoder) readNumber(dst any) error {
	if d.null() {
		return nil
	}
	start := d.i
	d.eat('-')
	ok := d.eat('0') || d.digits()
	if ok && d.eat('.') {
		ok = d.digits()
	}
	if ok && (d.eat('e') || d.eat('E')) {
		if !d.eat('+') {
			d.eat('-')
		}
		ok = d.digits()
	}
	if !ok {
		return d.fail("number")
	}
	lit := string(d.b[start:d.i])
	var err error
	switch p := dst.(type) {
	case *int:
		var v int64
		v, err = strconv.ParseInt(lit, 10, strconv.IntSize)
		*p = int(v)
	case *uint64:
		*p, err = strconv.ParseUint(lit, 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(lit, 64)
	}
	return err
}

// digits consumes a run of decimal digits and reports whether it was one.
func (d *jobDecoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}
