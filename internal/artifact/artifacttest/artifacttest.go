// Package artifacttest holds what the decoder tests of every artifact
// kind share: forging a checksum-valid envelope around arbitrary
// payload bytes (so fuzzing and crafted-count tests reach the payload
// parser instead of dying at the checksum), reading a payload back out,
// measuring what a decode allocates, the fuzz-target body and its seed
// circuits, and golden files.
package artifacttest

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"runtime"
	"testing"

	"qgear/internal/artifact"
	"qgear/internal/circuit"
	"qgear/internal/qcrank"
	"qgear/internal/qft"
	"qgear/internal/randcirc"
)

var update = flag.Bool("update-golden", false, "rewrite golden artifact files from the encoders' current output")

// SeedCircuits returns one small circuit of each workload family the
// paper evaluates — a random CX-block unitary, a QFT and a QCrank image
// encoding, all measured — so fuzz corpora start from what the encoders
// really write.
func SeedCircuits(tb testing.TB) []*circuit.Circuit {
	tb.Helper()
	rc, err := randcirc.Generate(randcirc.Spec{Qubits: 5, Blocks: 4, Seed: 3, Measure: true})
	if err != nil {
		tb.Fatal(err)
	}
	qc, err := qft.Circuit(5, true)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := qcrank.NewPlan(8, 2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cc, err := qcrank.Encode([]float64{-1, -0.5, -0.25, 0, 0.25, 0.5, 0.75, 1}, plan, true)
	if err != nil {
		tb.Fatal(err)
	}
	return []*circuit.Circuit{rc, qc, cc}
}

// WriteExchangePlan appends a plan payload as builds that batched
// rank-bit targets into exchange segments wrote one, for the stores and
// compiled artifacts that still hold such plans: the geometry of an
// n-qubit plan with one rank bit, a single segment of kind 3 (the
// rank-bit target, one op: a 2×2 and its shard-local and rank control
// masks), no final permutation, statistics counting that one segment
// and gate, and no binding sites.
func WriteExchangePlan(w *artifact.Writer, tileBits, n int) {
	w.U32(uint32(tileBits))
	w.U32(uint32(n))
	w.U32(1)
	w.Count(1)
	w.U8(3)
	w.U32(uint32(n - 1))
	w.Count(1)
	for _, m := range [4]complex128{0, 1, 1, 0} {
		w.C128(m)
	}
	w.U64(0)
	w.U64(0)
	w.Count(0)
	for _, v := range [9]int{6: 1, 7: 1} { // the plan statistics; ExchangeSegs and ExchangeGates sit at 6 and 7
		w.Int(v)
	}
	w.Bool(true)
	w.U32(0)
	w.Count(0)
}

// header returns the kind and version a sealed artifact carries.
func header(tb testing.TB, sealed []byte) (artifact.Kind, uint16) {
	tb.Helper()
	if len(sealed) < 6 {
		tb.Fatalf("%d bytes is no artifact", len(sealed))
	}
	return artifact.Kind(sealed[:4]), binary.LittleEndian.Uint16(sealed[4:])
}

// Forge seals payload, uncompressed, under the kind and version of the
// sealed artifact like.
func Forge(tb testing.TB, like, payload []byte) []byte {
	tb.Helper()
	kind, version := header(tb, like)
	w := artifact.NewWriter(len(payload))
	w.Raw(payload)
	out, err := w.Seal(kind, version, false)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// Payload returns the (inflated) payload of a sealed artifact.
func Payload(tb testing.TB, sealed []byte) []byte {
	tb.Helper()
	kind, version := header(tb, sealed)
	r, err := artifact.Open(kind, version, sealed)
	if err != nil {
		tb.Fatal(err)
	}
	return r.Rest()
}

// AllocBytes reports the heap bytes fn allocated (TotalAlloc growth;
// background allocation by other goroutines is counted too, so bounds
// need slack).
func AllocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecoder is the body every payload fuzz target shares. payload is
// forged into a checksum-valid artifact like like and handed to decode,
// which returns, when the decoder accepts it, a function that encodes
// the decoded value again. Decoding must not panic, must not allocate
// more than a constant times the input, and what it accepts must
// re-encode to the payload it was decoded from.
func FuzzDecoder(t *testing.T, like, payload []byte, decode func(sealed []byte) (encode func() ([]byte, error), err error)) {
	t.Helper()
	sealed := Forge(t, like, payload)
	var encode func() ([]byte, error)
	var err error
	grew := AllocBytes(func() { encode, err = decode(sealed) })
	if limit := uint64(256*len(sealed) + 128<<10); grew > limit {
		t.Fatalf("decoding a %d-byte artifact allocated %d bytes", len(sealed), grew)
	}
	if err != nil {
		return
	}
	again, err := encode()
	if err != nil {
		t.Fatalf("an accepted artifact does not encode again: %v", err)
	}
	if !bytes.Equal(Payload(t, again), payload) {
		t.Fatal("an accepted artifact does not re-encode to the payload it was decoded from")
	}
}

// Golden compares got with the committed file at path — the encoders'
// output for a fixed value, so an edit to a payload layout fails here
// until the kind's version is bumped and the file regenerated with
// -update-golden — and returns the file's bytes for the decode half of
// the test. Kind, version and payload are what is compared: the deflate
// stream around a payload may differ between Go releases.
func Golden(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:6], want[:6]) || !bytes.Equal(Payload(t, got), Payload(t, want)) {
		t.Fatalf("%s: the encoder no longer produces the committed payload; a layout change needs a version bump and -update-golden", path)
	}
	return want
}
