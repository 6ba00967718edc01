package artifact_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"sync"
	"testing"

	"qgear/internal/artifact"
	"qgear/internal/artifact/artifacttest"
)

const testKind artifact.Kind = "QGXX"

// sample writes one of everything and returns the sealed artifact.
func sample(t testing.TB, deflate bool) []byte {
	t.Helper()
	w := artifact.NewWriter(0)
	w.U8(7)
	w.U32(1 << 31)
	w.U64(1 << 63)
	w.I64(-5)
	w.Int(-6)
	w.F64(math.Copysign(0, -1))
	w.C128(complex(1.5, math.Inf(-1)))
	w.Bool(true)
	w.Str("héllo")
	w.F64s([]float64{0.25, math.SmallestNonzeroFloat64})
	w.I64s([]int64{-1, math.MaxInt64})
	w.F64s(nil)
	w.Section()
	w.Raw(bytes.Repeat([]byte{0xAB}, 300))
	data, err := w.Seal(testKind, 3, deflate)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRoundTrip: every primitive comes back bit for bit, stored raw or
// deflated, and Close accepts a fully consumed payload.
func TestRoundTrip(t *testing.T) {
	for _, deflate := range []bool{false, true} {
		r, err := artifact.Open(testKind, 3, sample(t, deflate))
		if err != nil {
			t.Fatal(err)
		}
		ok := r.U8() == 7 && r.U32() == 1<<31 && r.U64() == 1<<63 && r.I64() == -5 && r.Int() == -6 &&
			math.Float64bits(r.F64()) == 1<<63
		c := r.C128()
		ok = ok && real(c) == 1.5 && math.IsInf(imag(c), -1) && r.Bool() && r.Str() == "héllo"
		f, i := r.F64s(), r.I64s()
		ok = ok && len(f) == 2 && f[0] == 0.25 && f[1] == math.SmallestNonzeroFloat64 &&
			len(i) == 2 && i[0] == -1 && i[1] == math.MaxInt64 && r.F64s() == nil && len(r.Rest()) == 300
		if err := r.Close(); err != nil || !ok {
			t.Fatalf("deflate=%v: round trip failed (err %v)", deflate, err)
		}
	}
	if raw, z := sample(t, false), sample(t, true); len(z) >= len(raw) {
		t.Fatalf("deflated artifact is %d bytes, stored one %d", len(z), len(raw))
	}
}

// TestSectionKeepsThePayload: Section only tells the compressor where
// to start a block. The payload read back is the same with or without
// it, a stored artifact is the same bytes, and an incompressible
// section between compressible ones no longer costs its neighbours
// their compression.
func TestSectionKeepsThePayload(t *testing.T) {
	noise, x := make([]byte, 32<<10), uint32(2463534242)
	for i := range noise {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		noise[i] = byte(x >> 9)
	}
	build := func(sections, deflate bool) []byte {
		w := artifact.NewWriter(0)
		w.Raw(bytes.Repeat([]byte{1, 0, 0, 0}, 2000))
		if sections {
			w.Section()
		}
		w.Raw(noise)
		if sections {
			w.Section()
		}
		w.Raw(bytes.Repeat([]byte{2, 0, 0, 0}, 2000))
		data, err := w.Seal(testKind, 1, deflate)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(build(true, false), build(false, false)) {
		t.Fatal("Section changed a stored artifact")
	}
	with, without := build(true, true), build(false, true)
	if !bytes.Equal(artifacttest.Payload(t, with), artifacttest.Payload(t, without)) {
		t.Fatal("Section changed the payload")
	}
	if len(with) > len(without)+64 {
		t.Fatalf("sectioned stream is %d bytes, unsectioned %d", len(with), len(without))
	}
}

// minAlloc is the least fn allocated over several calls: under the race
// detector sync.Pool drops items at random, so one call may rebuild.
func minAlloc(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 12; i++ {
		least = min(least, artifacttest.AllocBytes(fn))
	}
	return least
}

// TestWarmCodecAllocatesWhatItReturns: once the codec pools are warm, a
// deflated Seal allocates the artifact it returns, and Open the payload
// it inflates, plus small change — never a compressor's tables (about
// 1 MiB) or a decompressor's 32 KiB window.
func TestWarmCodecAllocatesWhatItReturns(t *testing.T) {
	noise, x := make([]byte, 64<<10), uint32(88172645)
	for i := range noise {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		noise[i] = byte(x)
	}
	w := artifact.NewWriter(0)
	w.Raw(bytes.Repeat([]byte{3, 0, 0, 0}, 16<<10))
	w.Section()
	w.Raw(noise)
	w.Section()
	w.Raw(bytes.Repeat([]byte{4, 0, 0, 0}, 16<<10))
	var data []byte
	var err error
	sealed := minAlloc(func() { data, err = w.Seal(testKind, 1, true) })
	if err != nil {
		t.Fatal(err)
	}
	if sealed > uint64(len(data))+8<<10 { // page rounding of a large buffer
		t.Errorf("a warm deflated seal of a %d-byte artifact allocated %d bytes", len(data), sealed)
	}
	if cap(data) != len(data) {
		t.Errorf("a %d-byte artifact came back in a %d-byte buffer", len(data), cap(data))
	}
	payload := artifacttest.Payload(t, data)
	var r *artifact.Reader
	opened := minAlloc(func() { r, err = artifact.Open(testKind, 1, data) })
	if err != nil {
		t.Fatal(err)
	}
	if opened > uint64(len(payload))+16<<10 {
		t.Errorf("a warm open of a %d-byte payload allocated %d bytes", len(payload), opened)
	}
	if !bytes.Equal(r.Rest(), payload) {
		t.Fatal("the payload changed across a warm open")
	}
}

// TestCodecConcurrentUse: seals and opens running at once share the
// pooled compressors and decompressors but never each other's bytes —
// every artifact opens to its own payload, and one sealed first is not
// touched by any seal after it.
func TestCodecConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var first, firstCopy []byte
			for i := 0; i < 40; i++ {
				payload := bytes.Repeat([]byte{byte(g), byte(i), byte(g * i)}, 500+97*i)
				w := artifact.NewWriter(len(payload))
				w.Raw(payload[:len(payload)/2])
				w.Section()
				w.Raw(payload[len(payload)/2:])
				data, err := w.Seal(testKind, 1, true)
				if err != nil {
					t.Error(err)
					return
				}
				if i == 0 {
					first, firstCopy = data, append([]byte(nil), data...)
				}
				r, err := artifact.Open(testKind, 1, data)
				if err != nil || !bytes.Equal(r.Rest(), payload) {
					t.Errorf("goroutine %d, artifact %d: opened to another payload (err %v)", g, i, err)
					return
				}
			}
			if !bytes.Equal(first, firstCopy) {
				t.Errorf("goroutine %d: a later seal wrote into an artifact already returned", g)
			}
		}(g)
	}
	wg.Wait()
}

// TestOpenRejects walks the verification order: every tampering is an
// error, and the ones ahead of the checksum are named for what they are.
func TestOpenRejects(t *testing.T) {
	good := sample(t, false)
	reseal := func(edit func(b []byte)) []byte { // a valid checksum over an edited header
		b := append([]byte(nil), good...)
		edit(b)
		return fixChecksum(b)
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"empty":            {nil, "shorter"},
		"header only cut":  {good[:20], "shorter"},
		"magic":            {append([]byte("QGYY"), good[4:]...), "magic"},
		"version":          {reseal(func(b []byte) { b[4] = 9 }), "version"},
		"unknown flag":     {reseal(func(b []byte) { b[6] = 2 }), "flags"},
		"truncated":        {good[:len(good)-1], "payload bytes"},
		"trailing":         {append(append([]byte(nil), good...), 0), "payload bytes"},
		"payload flip":     {flip(good, len(good)-5), "checksum"},
		"checksum flip":    {flip(good, 25), "checksum"},
		"raw length lie":   {reseal(func(b []byte) { b[16]++ }), "records length"},
		"not deflate":      {reseal(func(b []byte) { b[6] = 1 }), "inflate"},
		"inflate bomb":     {reseal(func(b []byte) { b[6] = 1; binary.LittleEndian.PutUint64(b[16:], 1<<40) }), "cannot inflate"},
		"deflate too long": {resealDeflated(t, func(b []byte) { b[16]-- }), "past its recorded length"},
		"deflate short":    {resealDeflated(t, func(b []byte) { b[16]++ }), "inflate"},
	} {
		var err error
		grew := artifacttest.AllocBytes(func() { _, err = artifact.Open(testKind, 3, tc.data) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
		if grew > 1<<20 {
			t.Errorf("%s: rejected after allocating %d bytes", name, grew)
		}
	}
}

func flip(data []byte, i int) []byte {
	b := append([]byte(nil), data...)
	b[i] ^= 0xFF
	return b
}

// fixChecksum recomputes the envelope checksum in place, the way a
// crafted (rather than damaged) artifact would carry it.
func fixChecksum(b []byte) []byte {
	sum := crc32.Update(crc32.ChecksumIEEE(b[:24]), crc32.IEEETable, b[28:])
	binary.LittleEndian.PutUint32(b[24:], sum)
	return b
}

func resealDeflated(t *testing.T, edit func(b []byte)) []byte {
	b := sample(t, true)
	edit(b)
	return fixChecksum(b)
}

// TestCountBoundedByRemaining: a maximal count in a checksum-valid
// artifact fails at the count, before anything is allocated from it.
func TestCountBoundedByRemaining(t *testing.T) {
	w := artifact.NewWriter(0)
	w.U32(math.MaxUint32)
	w.U64(0)
	data, err := w.Seal(testKind, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func(r *artifact.Reader){
		"Count": func(r *artifact.Reader) { _ = make([]uint64, r.Count(8)) },
		"Str":   func(r *artifact.Reader) { _ = r.Str() },
		"F64s":  func(r *artifact.Reader) { _ = r.F64s() },
		"I64s":  func(r *artifact.Reader) { _ = r.I64s() },
	} {
		r, err := artifact.Open(testKind, 1, data)
		if err != nil {
			t.Fatal(err)
		}
		if grew := artifacttest.AllocBytes(func() { read(r) }); grew > 1<<16 {
			t.Errorf("%s: allocated %d bytes from an 8-byte remainder", name, grew)
		}
		if r.Err() == nil || r.U64() != 0 || r.Close() == nil {
			t.Errorf("%s: over-long count not a sticky failure (err %v)", name, r.Err())
		}
	}
	// The bound is exact: one element that fits is accepted.
	w = artifact.NewWriter(0)
	w.F64s([]float64{1})
	if data, err = w.Seal(testKind, 1, false); err != nil {
		t.Fatal(err)
	}
	r, err := artifact.Open(testKind, 1, data)
	if err != nil || len(r.F64s()) != 1 || r.Close() != nil {
		t.Fatalf("a count that fits exactly was refused: %v", err)
	}
}

// TestCloseReportsTrailingBytes: a decoder that stops early is told.
func TestCloseReportsTrailingBytes(t *testing.T) {
	r, err := artifact.Open(testKind, 3, sample(t, true))
	if err != nil {
		t.Fatal(err)
	}
	r.U8()
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Close = %v, want trailing bytes", err)
	}
	r, _ = artifact.Open(testKind, 3, sample(t, false))
	if r.Bool(); r.Err() == nil { // the first byte is 7
		t.Fatal("boolean byte 7 accepted")
	}
	r.Failf("second failure")
	if !strings.Contains(r.Close().Error(), "boolean") {
		t.Fatal("the first failure was overwritten")
	}
}

// TestWriterFailuresSurfaceAtSeal: a count that cannot be encoded, or
// an encoder's own Failf, is reported by Seal and SealTo — the first one.
func TestWriterFailuresSurfaceAtSeal(t *testing.T) {
	w := artifact.NewWriter(0)
	w.Count(math.MaxUint32 + 1)
	w.Failf("second failure")
	if _, err := w.Seal(testKind, 1, false); err == nil || !strings.Contains(err.Error(), "count") {
		t.Fatalf("a count of 2^32 was sealed (err %v)", err)
	}
	var sink bytes.Buffer
	if err := w.SealTo(&sink, testKind, 1, false); err == nil || sink.Len() != 0 {
		t.Fatalf("SealTo wrote %d bytes of a failed artifact (err %v)", sink.Len(), err)
	}
}

// FuzzOpen: Open never panics, never allocates more than deflate's best
// ratio allows for the input it was given, and whatever it accepts
// seals back to the same payload (the same bytes, when stored raw).
// With crafted set the input's checksum is recomputed first, so
// mutations of the flags, the lengths and the deflate stream are not
// all stopped at the checksum.
func FuzzOpen(f *testing.F) {
	f.Add(sample(f, false), false)
	f.Add(sample(f, true), true)
	f.Add([]byte("QGXX"), false)
	f.Fuzz(func(t *testing.T, data []byte, crafted bool) {
		if crafted && len(data) >= 28 {
			data = fixChecksum(append([]byte(nil), data...))
		}
		var r *artifact.Reader
		var err error
		grew := artifacttest.AllocBytes(func() { r, err = artifact.Open(testKind, 3, data) })
		if limit := uint64(1100*len(data) + 256<<10); grew > limit {
			t.Fatalf("Open allocated %d bytes for a %d-byte input", grew, len(data))
		}
		if err != nil {
			return
		}
		payload := r.Rest()
		deflated := data[6]&1 != 0
		w := artifact.NewWriter(len(payload))
		w.Raw(payload)
		again, err := w.Seal(testKind, 3, deflated)
		if err != nil {
			t.Fatal(err)
		}
		if !deflated && !bytes.Equal(again, data) {
			t.Fatal("an accepted stored artifact does not seal back to its own bytes")
		}
		if !bytes.Equal(artifacttest.Payload(t, again), payload) {
			t.Fatal("payload changed across a re-seal")
		}
	})
}
