package store

import (
	"fmt"
	"math"
	"slices"
	"time"

	"qgear/internal/artifact"
	"qgear/internal/backend"
	"qgear/internal/kernel"
	"qgear/internal/sampling"
)

// The two artifact payloads the store writes, both under FormatVersion
// and one checksum each (README, "On-disk formats"). Every artifact
// opens with the cache key and configuration signature it was saved
// under, which loads verify before trusting anything else.
//
// Result (deflated): key, sig; the scalar metadata of a backend.Result
// plus gradient_len; the expectation value's IEEE-754 bits; then the
// vectors, each length-prefixed and empty when the job kind has none —
// probabilities, counts (ascending keys, then their counts), sweep
// values, gradient, and per sweep point one more histogram.
//
// Plan: key, sig, recompute cost, then the backend.Compiled payload.

// encodeResult renders res as a result artifact.
func encodeResult(key, sig string, res *backend.Result) ([]byte, error) {
	w := artifact.NewWriter(256 + len(key) + len(sig) + 8*len(res.Probabilities) + 16*len(res.Counts))
	writeResult(w, key, sig, res, len(res.Gradient))
	return w.Seal(artifact.KindResult, FormatVersion, true)
}

// writeResult appends the result payload. gradientLen is recorded next
// to the gradient vector's own length so a loader can tell a truncated
// or padded vector from the one the job produced.
func writeResult(w *artifact.Writer, key, sig string, res *backend.Result, gradientLen int) {
	w.Str(key)
	w.Str(sig)
	w.Str(string(res.Target))
	w.U32(uint32(res.NumQubits))
	w.I64(res.Duration.Nanoseconds())
	kernel.WriteStats(w, res.KernelStats)
	w.Bool(res.PlanStats != nil)
	if res.PlanStats != nil {
		kernel.WritePlanStats(w, *res.PlanStats)
	}
	w.Int(res.TileBits)
	w.Int(res.Exchanges)
	w.I64(res.BytesSent)
	w.Int(res.AvoidedExchanges)
	w.Int(res.ExpTerms)
	w.Int(res.SweepPoints)
	w.Int(res.Rebinds)
	w.Int(res.SweepCompiles)
	w.Int(gradientLen)
	w.Bool(res.ExpValue != nil)
	if res.ExpValue != nil {
		w.F64(*res.ExpValue)
	}
	w.F64s(res.Probabilities)
	// A random state's vector does not deflate; the histograms behind
	// it do. Apart, the first is stored as it is and inflates at copy
	// speed (a 12-qubit result loads ~4x faster than as one block).
	w.Section()
	writeCounts(w, res.Counts)
	w.F64s(res.SweepValues)
	w.F64s(res.Gradient)
	w.Count(len(res.SweepCounts))
	for _, c := range res.SweepCounts {
		writeCounts(w, c)
	}
}

// writeCounts appends a histogram — its size, the keys in ascending
// order, then their counts in the same order.
func writeCounts(w *artifact.Writer, c sampling.Counts) {
	keys := make([]uint64, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.Count(len(keys))
	for _, k := range keys {
		w.U64(k)
	}
	for _, k := range keys {
		w.Int(c[k])
	}
}

// readCounts reads one histogram, insisting on the ascending key order
// writeCounts produces (so no key can repeat).
func readCounts(r *artifact.Reader) sampling.Counts {
	keys := make([]uint64, r.Count(16))
	for i := range keys {
		keys[i] = r.U64()
		if i > 0 && keys[i] <= keys[i-1] {
			r.Failf("count keys out of order")
		}
	}
	c := make(sampling.Counts, len(keys))
	for _, k := range keys {
		c[k] = r.Int()
	}
	return c
}

// decodeResult verifies and parses a result artifact saved under
// (key, sig).
func decodeResult(data []byte, key, sig string) (*backend.Result, error) {
	r, err := artifact.Open(artifact.KindResult, FormatVersion, data)
	if err != nil {
		return nil, err
	}
	if err := readIdentity(r, key, sig); err != nil {
		return nil, err
	}
	res := &backend.Result{Target: backend.Target(r.Str())}
	res.NumQubits = int(r.U32())
	res.Duration = time.Duration(r.I64())
	res.KernelStats = kernel.ReadStats(r)
	if r.Bool() {
		ps := kernel.ReadPlanStats(r)
		res.PlanStats = &ps
	}
	res.TileBits = r.Int()
	res.Exchanges = r.Int()
	res.BytesSent = r.I64()
	res.AvoidedExchanges = r.Int()
	res.ExpTerms = r.Int()
	res.SweepPoints = r.Int()
	res.Rebinds = r.Int()
	res.SweepCompiles = r.Int()
	gradientLen := r.Int()
	if r.Bool() {
		v := r.F64()
		res.ExpValue = &v
	}
	res.Probabilities = r.F64s()
	if c := readCounts(r); len(c) > 0 {
		res.Counts = c
	}
	res.SweepValues = r.F64s()
	res.Gradient = r.F64s()
	if n := r.Count(4); n > 0 {
		res.SweepCounts = make([]sampling.Counts, n)
		for i := range res.SweepCounts {
			res.SweepCounts[i] = readCounts(r)
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	switch {
	case res.NumQubits > 62:
		return nil, fmt.Errorf("implausible qubit count %d", res.NumQubits)
	case len(res.Probabilities) > 0 && len(res.Probabilities) != 1<<uint(res.NumQubits):
		return nil, fmt.Errorf("%d probabilities for %d qubits", len(res.Probabilities), res.NumQubits)
	case len(res.Probabilities) == 0 && res.ExpValue == nil && res.SweepPoints == 0:
		// Expectation and sweep artifacts legitimately omit the vector;
		// anything else without one is damaged.
		return nil, fmt.Errorf("no probabilities and no expectation value")
	case res.SweepValues != nil && len(res.SweepValues) != res.SweepPoints:
		return nil, fmt.Errorf("%d sweep values for %d points", len(res.SweepValues), res.SweepPoints)
	case res.SweepCounts != nil && len(res.SweepCounts) != res.SweepPoints:
		return nil, fmt.Errorf("%d sweep histograms for %d points", len(res.SweepCounts), res.SweepPoints)
	case len(res.Gradient) != gradientLen:
		return nil, fmt.Errorf("%d gradient values, %d recorded", len(res.Gradient), gradientLen)
	}
	return res, nil
}

// readIdentity checks the key and signature an artifact opens with.
// Stems are injective in the key, so a recorded-key mismatch can only
// be a damaged or misplaced file.
func readIdentity(r *artifact.Reader, key, sig string) error {
	gotKey, gotSig := r.Str(), r.Str()
	if err := r.Err(); err != nil {
		return err
	}
	if gotKey != key {
		return fmt.Errorf("file records key %q", gotKey)
	}
	if gotSig != sig {
		return fmt.Errorf("config signature %q does not match %q", gotSig, sig)
	}
	return nil
}

// resultRecomputeCost models what re-simulating this result would cost
// in the same abstract units the serving layer's caches use (emitted
// kernel ops × state size), so on-disk GC ranks artifacts exactly like
// the in-memory Greedy-Dual-Size cache does.
func resultRecomputeCost(res *backend.Result) float64 {
	size := float64(len(res.Probabilities))
	if size == 0 {
		size = math.Ldexp(1, res.NumQubits)
	}
	return float64(1+res.KernelStats.EmittedOps) * size
}

// encodePlan renders comp as a store plan artifact.
func encodePlan(key, sig string, comp *backend.Compiled, cost float64) ([]byte, error) {
	w := artifact.NewWriter(4 + len(key) + 4 + len(sig) + 8 + comp.EncodedLen())
	w.Str(key)
	w.Str(sig)
	w.F64(cost)
	backend.WriteCompiled(w, comp)
	return w.Seal(artifact.KindStorePlan, FormatVersion, false)
}

// decodePlan verifies and parses a plan artifact saved under
// (key, sig), returning the compiled circuit and its recorded cost.
func decodePlan(data []byte, key, sig string) (*backend.Compiled, float64, error) {
	r, err := artifact.Open(artifact.KindStorePlan, FormatVersion, data)
	if err != nil {
		return nil, 0, err
	}
	if err := readIdentity(r, key, sig); err != nil {
		return nil, 0, err
	}
	cost := r.F64()
	comp := backend.ReadCompiled(r)
	if err := r.Close(); err != nil {
		return nil, 0, err
	}
	return comp, cost, nil
}
