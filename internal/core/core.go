// Package core wires the Q-GEAR pipeline together — the paper's
// primary contribution (Fig. 2c): Qiskit-style circuits are saved as
// QPY, read back, tensor-encoded into a tensor file, transformed
// gate-by-gate into CUDA-Q-style kernels, and executed on the selected
// target ("aer", "nvidia", "nvidia-mgpu", "nvidia-mqpu", "pennylane").
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/qpy"
	"qgear/internal/tensorenc"
)

// Options configures the pipeline end to end: the backend's own
// configuration, so the pipeline and the engines can never disagree
// about a field.
type Options = backend.Config

// CacheKey returns the content address of (circuit, options): the
// circuit fingerprint extended with every option that changes the
// simulation output (Options.Signature). Two submissions with equal
// keys are guaranteed to produce identical results, so a result cache
// may serve one from the other. TileBits is folded in conservatively:
// the tiled executor is bit-identical to the per-gate path by
// construction, but the key must stay sound even if a future tile
// compiler relaxes that.
func CacheKey(c *circuit.Circuit, opts Options) string {
	h := sha256.New()
	h.Write([]byte(c.Fingerprint()))
	h.Write([]byte{'|'})
	h.Write([]byte(opts.Signature()))
	return hex.EncodeToString(h.Sum(nil))
}

// Transform converts circuits to kernels with the configured options —
// the Q-GEAR step proper. Per-circuit stats are returned alongside.
func Transform(circuits []*circuit.Circuit, opts Options) ([]*kernel.Kernel, []kernel.Stats, error) {
	kernels := make([]*kernel.Kernel, len(circuits))
	stats := make([]kernel.Stats, len(circuits))
	kopts := kernel.Options{PruneAngle: opts.PruneAngle}
	for i, c := range circuits {
		k, st, err := kernel.FromCircuit(c, kopts)
		if err != nil {
			return nil, nil, fmt.Errorf("core: transforming circuit %d (%q): %w", i, c.Name, err)
		}
		kernels[i] = k
		stats[i] = st
	}
	return kernels, stats, nil
}

// SweepCacheKey returns the content address of a sweep job: the
// *structural* circuit fingerprint (every parameter slot is overridden
// per point, so the skeleton's own values cannot shape the artifact),
// the point matrix bit-for-bit, the optional Hamiltonian hash, and the
// output-shaping options. Hamiltonian sweeps are exact, so Shots/Seed
// normalize away like expectation jobs; sampling sweeps keep both.
func SweepCacheKey(c *circuit.Circuit, h *observable.Hamiltonian, points [][]float64, opts Options) string {
	opts.Workers = 0
	hash := sha256.New()
	hash.Write([]byte(c.StructuralFingerprint()))
	hash.Write([]byte("|sweep|"))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(points)))
	hash.Write(buf[:])
	for _, pt := range points {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(pt)))
		hash.Write(buf[:])
		for _, v := range pt {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			hash.Write(buf[:])
		}
	}
	if h != nil {
		opts.Shots, opts.Seed = 0, 0
		hash.Write([]byte("|h|"))
		hash.Write([]byte(h.Fingerprint()))
	}
	hash.Write([]byte{'|'})
	hash.Write([]byte(opts.Signature()))
	return hex.EncodeToString(hash.Sum(nil))
}

// GradientCacheKey returns the content address of a gradient job: a
// sweep key over the derived base-point singleton under a distinct
// domain tag (the artifact shape differs from a one-point sweep's).
func GradientCacheKey(c *circuit.Circuit, h *observable.Hamiltonian, base []float64, opts Options) string {
	hash := sha256.New()
	hash.Write([]byte("grad|"))
	hash.Write([]byte(SweepCacheKey(c, h, [][]float64{base}, opts)))
	return hex.EncodeToString(hash.Sum(nil))
}

// ExpectationCacheKey returns the content address of an expectation
// job: the circuit fingerprint, the Hamiltonian's canonical hash, and
// every option that could change the value. Shots, seed, and worker
// count are normalized away — expectation jobs are exact and
// deterministic, so neither sampling knob nor parallelism shapes the
// output.
func ExpectationCacheKey(c *circuit.Circuit, h *observable.Hamiltonian, opts Options) string {
	opts.Workers, opts.Shots, opts.Seed = 0, 0, 0
	hash := sha256.New()
	hash.Write([]byte(c.Fingerprint()))
	hash.Write([]byte("|exp|"))
	hash.Write([]byte(h.Fingerprint()))
	hash.Write([]byte{'|'})
	hash.Write([]byte(opts.Signature()))
	return hex.EncodeToString(hash.Sum(nil))
}

// SaveQPY persists a circuit list in the QPY-like format ("Save QPY"
// of Fig. 2c).
func SaveQPY(path string, circuits []*circuit.Circuit) error {
	return qpy.SaveFile(path, circuits)
}

// LoadQPY loads a circuit list back ("Read QPY").
func LoadQPY(path string) ([]*circuit.Circuit, error) {
	return qpy.LoadFile(path)
}

// SaveTensors tensor-encodes circuits (§2.1) and writes the deflated
// tensor file; capacity <= 0 auto-sizes per Lemma B.2.
// Circuits are transpiled to the native basis first when they contain
// gates outside the encodable set.
func SaveTensors(path string, circuits []*circuit.Circuit, capacity int) error {
	prepared := make([]*circuit.Circuit, len(circuits))
	for i, c := range circuits {
		prepared[i] = c
		for _, op := range c.Ops {
			if op.Gate.ParamCount() > 1 {
				prepared[i] = c.Transpile(circuit.BasisNative)
				break
			}
		}
	}
	enc, err := tensorenc.Encode(prepared, capacity)
	if err != nil {
		return err
	}
	return enc.SaveFile(path)
}

// LoadTensors reads a tensor-encoded circuit list back.
func LoadTensors(path string) ([]*circuit.Circuit, error) {
	enc, err := tensorenc.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return enc.Decode()
}
