// Package artifact is the one on-disk envelope and the one primitive
// codec of this repository: every persisted hand-off of the paper's
// pipeline (Fig. 2c) — circuit lists, circuit tensors, kernels,
// compiled plans, results — is a payload built with Writer, sealed in
// the envelope below, and read back through Open, which verifies the
// checksum over the whole artifact before a single payload field is
// parsed.
//
//	offset  size  field
//	0       4     kind magic (one of the Kind constants)
//	4       2     version of the kind's payload layout
//	6       2     flags (bit 0: the stored payload is one deflate stream)
//	8       8     stored payload length in bytes
//	16      8     payload length after inflation (= stored when not deflated)
//	24      4     CRC-32 (IEEE) of bytes [0, 24) followed by the stored payload
//	28      …     stored payload
//
// All integers are little-endian. Payloads are flat sequences of the
// Writer primitives; every count a Reader hands out is bounded by the
// bytes that remain divided by the smallest encoding of one element,
// so no length field — flipped or crafted — can demand an allocation
// larger than a constant times the input.
package artifact

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// Kind is an artifact's four-byte magic.
type Kind string

// Every artifact kind in the tree. The payload layouts and their
// versions live with the package that owns the value (README, "On-disk
// formats").
const (
	KindPlan      Kind = "QGTP" // kernel.EncodePlan
	KindCompiled  Kind = "QGCM" // (*backend.Compiled).Encode
	KindStorePlan Kind = "QGSP" // store.SavePlan
	KindResult    Kind = "QGRS" // store.SaveResult
	KindCircuits  Kind = "QGCL" // qpy.Marshal
	KindTensors   Kind = "QGTN" // (*tensorenc.Encoding).Marshal
)

const (
	headerLen   = 28
	flagDeflate = 1
	// maxInflate is deflate's best possible ratio (258 bytes from two
	// bits); a recorded inflated length beyond it is a lie.
	maxInflate = 1032
	// maxPooledDeflate is the largest compressed-payload buffer a pooled
	// compressor keeps, so one huge artifact does not stay pinned.
	maxPooledDeflate = 4 << 20
)

var le = binary.LittleEndian

// compressor is a BestSpeed deflate writer and the buffer it writes
// into. A flate.Writer carries about 1 MiB of hash tables, window and
// token buffer — more than most artifacts — so Seal borrows one from
// compressors instead of building it; Reset makes it emit exactly the
// stream a new writer would.
type compressor struct {
	fw  *flate.Writer
	out bytes.Buffer
}

var compressors = sync.Pool{New: func() any {
	c := new(compressor)
	c.fw, _ = flate.NewWriter(&c.out, flate.BestSpeed) // a valid level: no error
	return c
}}

// decompressor is an inflater and the reader it pulls a stored payload
// from, pooled like compressor: a new inflater is a 32 KiB window and
// its code tables.
type decompressor struct {
	src  bytes.Reader
	fr   inflater
	tail [1]byte
}

// inflater is what flate.NewReader returns.
type inflater interface {
	io.Reader
	flate.Resetter
}

var decompressors = sync.Pool{New: func() any {
	d := new(decompressor)
	d.fr = flate.NewReader(&d.src).(inflater)
	return d
}}

// Writer appends little-endian primitives to an in-memory payload. Its
// failures — a count that does not fit its field, an encoder's own
// Failf — are sticky and reported by Seal.
type Writer struct {
	buf   []byte // headerLen reserved bytes, then the payload
	marks []int  // Section boundaries, as offsets into buf
	err   error
}

// NewWriter returns a Writer with room for a payload of sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, headerLen, headerLen+sizeHint)}
}

func (w *Writer) U8(v uint8)        { w.buf = append(w.buf, v) }
func (w *Writer) U32(v uint32)      { w.buf = le.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64)      { w.buf = le.AppendUint64(w.buf, v) }
func (w *Writer) I64(v int64)       { w.U64(uint64(v)) }
func (w *Writer) Int(v int)         { w.U64(uint64(int64(v))) }
func (w *Writer) F64(v float64)     { w.U64(math.Float64bits(v)) }
func (w *Writer) C128(v complex128) { w.F64(real(v)); w.F64(imag(v)) }

// Bool writes one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Count writes a length field (the mirror of Reader.Count).
func (w *Writer) Count(n int) {
	if uint64(n) > math.MaxUint32 {
		w.Failf("count %d does not fit a length field", n)
	}
	w.U32(uint32(n))
}

// Failf records that the value being written cannot be encoded.
func (w *Writer) Failf(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("artifact: "+format, args...)
	}
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Count(len(s))
	w.buf = append(w.buf, s...)
}

// F64s writes a length-prefixed float64 vector, bit for bit.
func (w *Writer) F64s(v []float64) {
	w.Count(len(v))
	for _, x := range v {
		w.F64(x)
	}
}

// I64s writes a length-prefixed int64 vector.
func (w *Writer) I64s(v []int64) {
	w.Count(len(v))
	for _, x := range v {
		w.I64(x)
	}
}

// Section marks a boundary the deflate stream starts a new block at. A
// payload that puts an incompressible vector (a probability vector of
// a random state) between compressible neighbours brackets it with
// Section, so the compressor stores that block as it is instead of
// dragging it through the Huffman coder — which inflates several times
// slower. It changes nothing about the payload or how it is read.
func (w *Writer) Section() { w.marks = append(w.marks, len(w.buf)) }

// Raw appends bytes with no length prefix.
func (w *Writer) Raw(p []byte) { w.buf = append(w.buf, p...) }

// Seal wraps the payload written so far in the envelope and returns
// the finished artifact. With deflate the payload is stored as one
// deflate stream, in a buffer allocated once at the artifact's length;
// otherwise the returned slice is the Writer's own buffer, which must
// not be written to again.
func (w *Writer) Seal(kind Kind, version uint16, deflate bool) ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	out, raw, flags := w.buf, len(w.buf)-headerLen, uint16(0)
	if deflate {
		var err error
		if out, err = w.deflate(); err != nil {
			return nil, fmt.Errorf("artifact: deflate: %w", err)
		}
		flags = flagDeflate
	}
	copy(out[:4], kind)
	le.PutUint16(out[4:], version)
	le.PutUint16(out[6:], flags)
	le.PutUint64(out[8:], uint64(len(out)-headerLen))
	le.PutUint64(out[16:], uint64(raw))
	le.PutUint32(out[24:], checksum(out))
	return out, nil
}

// deflate compresses the payload through a pooled compressor, starting
// a block at every Section mark, and returns it behind headerLen bytes
// left for the header.
func (w *Writer) deflate() ([]byte, error) {
	c := compressors.Get().(*compressor)
	defer func() {
		if c.out.Cap() > maxPooledDeflate {
			c.out = bytes.Buffer{}
		}
		compressors.Put(c)
	}()
	c.out.Reset()
	c.fw.Reset(&c.out)
	prev := headerLen
	for _, m := range w.marks {
		if _, err := c.fw.Write(w.buf[prev:m]); err != nil {
			return nil, err
		}
		if err := c.fw.Flush(); err != nil {
			return nil, err
		}
		prev = m
	}
	if _, err := c.fw.Write(w.buf[prev:]); err != nil {
		return nil, err
	}
	if err := c.fw.Close(); err != nil {
		return nil, err
	}
	out := make([]byte, headerLen+c.out.Len())
	copy(out[headerLen:], c.out.Bytes())
	return out, nil
}

// SealTo seals the artifact and writes it to dst.
func (w *Writer) SealTo(dst io.Writer, kind Kind, version uint16, deflate bool) error {
	data, err := w.Seal(kind, version, deflate)
	if err == nil {
		_, err = dst.Write(data)
	}
	return err
}

// checksum covers the header up to the checksum field and the stored
// payload, so a flipped version, flag or length is caught like a
// flipped payload byte.
func checksum(data []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(data[:24]), crc32.IEEETable, data[headerLen:])
}

// Open verifies data as one whole artifact of the given kind and
// version — magic, version, flags, exact length, checksum, in that
// order — and only then returns a Reader over its (inflated) payload.
func Open(kind Kind, version uint16, data []byte) (*Reader, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("artifact: %d bytes is shorter than the %d-byte header", len(data), headerLen)
	}
	if string(data[:4]) != string(kind) {
		return nil, fmt.Errorf("artifact: magic %q, want %q", data[:4], string(kind))
	}
	if v := le.Uint16(data[4:]); v != version {
		return nil, fmt.Errorf("artifact: %s version %d, this build reads %d", kind, v, version)
	}
	flags, stored, raw := le.Uint16(data[6:]), le.Uint64(data[8:]), le.Uint64(data[16:])
	if flags&^flagDeflate != 0 {
		return nil, fmt.Errorf("artifact: unknown flags %#x", flags)
	}
	if stored != uint64(len(data)-headerLen) {
		return nil, fmt.Errorf("artifact: header records %d payload bytes, %d present", stored, len(data)-headerLen)
	}
	if want, sum := le.Uint32(data[24:]), checksum(data); sum != want {
		return nil, fmt.Errorf("artifact: checksum mismatch (recorded %08x, computed %08x)", want, sum)
	}
	payload := data[headerLen:]
	if flags&flagDeflate == 0 {
		if raw != stored {
			return nil, fmt.Errorf("artifact: stored payload of %d bytes records length %d", stored, raw)
		}
		return &Reader{b: payload}, nil
	}
	if raw/maxInflate > stored {
		return nil, fmt.Errorf("artifact: %d stored bytes cannot inflate to %d", stored, raw)
	}
	inflated := make([]byte, raw)
	if err := inflate(inflated, payload); err != nil {
		return nil, err
	}
	return &Reader{b: inflated}, nil
}

// inflate decompresses the deflate stream src through a pooled
// decompressor into dst, which the stream must fill exactly.
func inflate(dst, src []byte) error {
	d := decompressors.Get().(*decompressor)
	defer func() {
		d.src.Reset(nil) // the pool must not pin the caller's bytes
		decompressors.Put(d)
	}()
	d.src.Reset(src)
	if err := d.fr.Reset(&d.src, nil); err != nil {
		return fmt.Errorf("artifact: inflate: %w", err)
	}
	if _, err := io.ReadFull(d.fr, dst); err != nil {
		return fmt.Errorf("artifact: inflate: %w", err)
	}
	if n, err := d.fr.Read(d.tail[:]); n != 0 || err != io.EOF {
		return errors.New("artifact: deflate stream runs past its recorded length")
	}
	return nil
}

// Read is Open over everything r delivers.
func Read(r io.Reader, kind Kind, version uint16) (*Reader, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	return Open(kind, version, data)
}

// Reader consumes a verified payload. The first failure — running out
// of bytes, an over-long count, or a Failf from the decoder — is
// sticky: every later read returns zero, so decoders check once, at
// Close.
type Reader struct {
	b   []byte // the unread remainder
	err error
}

func (r *Reader) take(n int) []byte {
	if r.err == nil && n > len(r.b) {
		r.err = fmt.Errorf("artifact: payload ends %d bytes into a %d-byte field", len(r.b), n)
	}
	if r.err != nil {
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *Reader) U8() uint8 {
	if p := r.take(1); len(p) == 1 {
		return p[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.take(4); len(p) == 4 {
		return le.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.take(8); len(p) == 8 {
		return le.Uint64(p)
	}
	return 0
}

func (r *Reader) I64() int64       { return int64(r.U64()) }
func (r *Reader) Int() int         { return int(r.I64()) }
func (r *Reader) F64() float64     { return math.Float64frombits(r.U64()) }
func (r *Reader) C128() complex128 { re := r.F64(); return complex(re, r.F64()) }

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Failf("boolean byte is %d", v)
	}
	return v == 1
}

// Count reads a length field for elements that each occupy at least
// minSize encoded bytes, and fails when that many cannot remain.
func (r *Reader) Count(minSize int) int {
	n := uint64(r.U32())
	if n*uint64(minSize) > uint64(len(r.b)) {
		r.Failf("count %d × %d bytes exceeds the %d bytes that remain", n, minSize, len(r.b))
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.take(r.Count(1))) }

// F64s reads a length-prefixed float64 vector; nil when empty.
func (r *Reader) F64s() []float64 {
	p := r.take(8 * r.Count(8))
	if len(p) == 0 {
		return nil
	}
	out := make([]float64, len(p)/8)
	for i := range out {
		out[i] = math.Float64frombits(le.Uint64(p[8*i:]))
	}
	return out
}

// I64s reads a length-prefixed int64 vector; nil when empty.
func (r *Reader) I64s() []int64 {
	p := r.take(8 * r.Count(8))
	if len(p) == 0 {
		return nil
	}
	out := make([]int64, len(p)/8)
	for i := range out {
		out[i] = int64(le.Uint64(p[8*i:]))
	}
	return out
}

// Skip consumes n bytes unread.
func (r *Reader) Skip(n int) { r.take(n) }

// Rest consumes and returns every unread byte.
func (r *Reader) Rest() []byte { return r.take(len(r.b)) }

// Failf records a decoder's own validation failure.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("artifact: "+format, args...)
	}
}

// Err reports the first failure so far.
func (r *Reader) Err() error { return r.err }

// Close reports the first failure, or bytes the decoder left unread.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("artifact: %d trailing payload bytes", len(r.b))
	}
	return r.err
}
