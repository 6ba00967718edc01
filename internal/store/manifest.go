package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strings"
	"sync"

	"qgear/internal/faultfs"
)

// The manifest journal is an append-only, CRC-framed record of index
// add/drop operations, kept at the store root. A warm boot replays it
// with one file read — O(entries in one file) — instead of
// ReadDir-scanning the whole artifact tree.
//
// Layout: header "QGMAN1\n" + uint16 FormatVersion, then frames of
//
//	[4B little-endian payload len][4B crc32(payload)][payload]
//
// with payload
//
//	[1B op][1B kind][4B stem len][stem][8B size][8B cost float bits]
//
// Failure taxonomy mirrors the artifacts': a truncated final frame is
// a torn append (crash mid-write) — the valid prefix is trusted and
// the journal rewritten clean; a CRC mismatch on a complete frame, a
// bad header, or an implausible field is corruption — the whole
// journal is distrusted, the store falls back to the full directory
// scan, and the manifest is rewritten from the scan (self-healing).
const manifestName = "manifest.qgm"

var manifestMagic = []byte("QGMAN1\n")

// errOtherFormat marks a sound header stamped with a FormatVersion this
// build does not read: the directory was written by another build.
var errOtherFormat = errors.New("not this build's on-disk format")

// maxManifestFrame bounds a frame's payload; anything larger is
// corruption, not a record (stems are key-sized, well under this).
const maxManifestFrame = 1 << 20

type manOp uint8

const (
	manAdd  manOp = 1
	manDrop manOp = 2
)

// manRecord is one journal record.
type manRecord struct {
	op   manOp
	kind kind
	stem string
	size int64
	cost float64
	// ikey is a decoded record's index key, built in the stem's
	// allocation (stem is ikey[2:]); encoding reads kind and stem.
	ikey string
}

// manifest owns the journal file. Appends are serialized and fsynced;
// a failed append marks the journal dirty so the next compaction
// rewrites it whole. The in-memory index is the source of truth
// between boots — a lost append costs a scan-boot at worst, never a
// wrong answer.
type manifest struct {
	path string
	fsys faultfs.FS

	mu sync.Mutex
	// records appended since the last rewrite (seeded by replay).
	records      uint64
	compactions  uint64
	appendErrors uint64
	dirty        bool
}

func encodeRecord(buf *bytes.Buffer, r manRecord) {
	var payload bytes.Buffer
	payload.WriteByte(byte(r.op))
	payload.WriteByte(byte(r.kind))
	var n [8]byte
	binary.LittleEndian.PutUint32(n[:4], uint32(len(r.stem)))
	payload.Write(n[:4])
	payload.WriteString(r.stem)
	binary.LittleEndian.PutUint64(n[:], uint64(r.size))
	payload.Write(n[:])
	binary.LittleEndian.PutUint64(n[:], math.Float64bits(r.cost))
	payload.Write(n[:])

	binary.LittleEndian.PutUint32(n[:4], uint32(payload.Len()))
	buf.Write(n[:4])
	binary.LittleEndian.PutUint32(n[:4], crc32.ChecksumIEEE(payload.Bytes()))
	buf.Write(n[:4])
	buf.Write(payload.Bytes())
}

// encodeManifest renders a complete journal (header + one frame per
// record).
func encodeManifest(recs []manRecord) []byte {
	var buf bytes.Buffer
	buf.Write(manifestMagic)
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], FormatVersion)
	buf.Write(v[:])
	for _, r := range recs {
		encodeRecord(&buf, r)
	}
	return buf.Bytes()
}

func decodeRecordPayload(p []byte) (manRecord, error) {
	var r manRecord
	if len(p) < 2+4 {
		return r, errors.New("short record")
	}
	r.op = manOp(p[0])
	r.kind = kind(p[1])
	if r.op != manAdd && r.op != manDrop {
		return r, fmt.Errorf("unknown op %d", r.op)
	}
	if r.kind != kindResult && r.kind != kindPlan {
		return r, fmt.Errorf("unknown kind %d", r.kind)
	}
	stemLen := binary.LittleEndian.Uint32(p[2:6])
	rest := p[6:]
	if uint32(len(rest)) < stemLen || len(rest)-int(stemLen) != 16 {
		return r, errors.New("bad record layout")
	}
	var b strings.Builder
	b.Grow(2 + int(stemLen))
	b.WriteString(r.kind.prefix())
	b.Write(rest[:stemLen])
	r.ikey = b.String()
	r.stem = r.ikey[2:]
	r.size = int64(binary.LittleEndian.Uint64(rest[stemLen:]))
	r.cost = math.Float64frombits(binary.LittleEndian.Uint64(rest[stemLen+8:]))
	if r.stem == "" || r.size < 0 {
		return r, errors.New("implausible record")
	}
	return r, nil
}

// parseManifest decodes a journal. torn reports a truncated final
// frame (the valid prefix is still returned); a non-nil error means
// the journal is corrupt and must not be trusted at all.
func parseManifest(raw []byte) (recs []manRecord, torn bool, err error) {
	if len(raw) < len(manifestMagic)+2 || !bytes.Equal(raw[:len(manifestMagic)], manifestMagic) {
		return nil, false, errors.New("store: manifest: bad header")
	}
	if v := binary.LittleEndian.Uint16(raw[len(manifestMagic):]); v != FormatVersion {
		return nil, false, fmt.Errorf("store: manifest: format version %d: %w", v, errOtherFormat)
	}
	off := len(manifestMagic) + 2
	for off < len(raw) {
		if off+8 > len(raw) {
			return recs, true, nil
		}
		plen := binary.LittleEndian.Uint32(raw[off:])
		want := binary.LittleEndian.Uint32(raw[off+4:])
		if plen > maxManifestFrame {
			return nil, false, fmt.Errorf("store: manifest: implausible frame length %d", plen)
		}
		end := off + 8 + int(plen)
		if end > len(raw) {
			return recs, true, nil
		}
		payload := raw[off+8 : end]
		if crc32.ChecksumIEEE(payload) != want {
			// The frame is fully present yet fails its checksum:
			// mid-file corruption, not a torn tail.
			return nil, false, errors.New("store: manifest: frame checksum mismatch")
		}
		r, derr := decodeRecordPayload(payload)
		if derr != nil {
			return nil, false, fmt.Errorf("store: manifest: %w", derr)
		}
		recs = append(recs, r)
		off = end
	}
	return recs, false, nil
}

// append journals records at the tail and fsyncs the file. Errors are
// absorbed (journal marked dirty for rewrite): persistence of the
// journal is an optimization, the index stays correct regardless.
func (m *manifest) append(recs ...manRecord) {
	if len(recs) == 0 {
		return
	}
	var buf bytes.Buffer
	for _, r := range recs {
		encodeRecord(&buf, r)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fsys.AppendFile(m.path, buf.Bytes(), 0o644); err != nil {
		m.appendErrors++
		m.dirty = true
		return
	}
	if err := m.fsys.Sync(m.path); err != nil {
		m.appendErrors++
		m.dirty = true
		return
	}
	m.records += uint64(len(recs))
}

// needsCompact decides whether the journal has outgrown the live
// index (or a failed append left it stale).
func (m *manifest) needsCompact(live uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirty {
		return true
	}
	threshold := uint64(1024)
	if 4*live > threshold {
		threshold = 4 * live
	}
	return m.records > threshold
}

// counts snapshots (records, compactions) for Stats.
func (m *manifest) counts() (uint64, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.records, m.compactions
}

// appendManifest journals records and compacts the journal when it
// has grown well past the live index or a prior append failed.
func (st *Store) appendManifest(recs ...manRecord) {
	if len(recs) == 0 {
		return
	}
	st.man.append(recs...)
	st.mu.Lock()
	live := uint64(st.index.Len())
	st.mu.Unlock()
	if st.man.needsCompact(live) {
		st.compactManifest()
	}
}

// compactManifest atomically rewrites the journal as one add record
// per live entry. Deterministic order (kind, then stem) so identical
// indexes produce byte-identical journals. st.mu is held for the
// whole rewrite — snapshot through write — so a save's append+publish
// (also under st.mu) can never fall between the snapshot and the
// rewrite and lose its record. Lock order is st.mu → m.mu; nothing
// takes them in reverse.
func (st *Store) compactManifest() {
	st.mu.Lock()
	defer st.mu.Unlock()
	ents := st.index.Entries()
	recs := make([]manRecord, len(ents))
	for i, e := range ents {
		recs[i] = manRecord{op: manAdd, kind: e.Val, stem: e.Key[2:], size: e.Bytes, cost: e.Cost}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].kind != recs[j].kind {
			return recs[i].kind < recs[j].kind
		}
		return recs[i].stem < recs[j].stem
	})
	data := encodeManifest(recs)
	m := st.man
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := st.writeAtomic(m.path, data); err != nil {
		// Leave (or mark) dirty; a later append retriggers compaction,
		// and the worst case is a scan on the next boot.
		m.dirty = true
		return
	}
	m.records = uint64(len(recs))
	m.compactions++
	m.dirty = false
}
