package backend

import (
	"fmt"
	"io"
	"unsafe"

	"qgear/internal/artifact"
	"qgear/internal/kernel"
)

// A Compiled artifact is the payload of the store's plan files
// (store.SavePlan). The payload is the exact kernel + TilePlan encoding
// from internal/kernel, so a decoded Compiled executes
// amplitude-identically to the original.

// compiledVersion tags the Compiled payload layout (3: the shared
// artifact envelope; 2 added binding sites to the plan encoding).
const compiledVersion uint16 = 3

// Encode writes the compiled circuit to w as one sealed artifact.
func (c *Compiled) Encode(w io.Writer) error {
	aw := artifact.NewWriter(c.EncodedLen())
	WriteCompiled(aw, c)
	if err := aw.SealTo(w, artifact.KindCompiled, compiledVersion, false); err != nil {
		return fmt.Errorf("backend: %w", err)
	}
	return nil
}

// DecodeCompiled reads a compiled circuit written by Encode. The
// checksum is verified before a single field is parsed — a truncated or
// bit-flipped file is rejected, never half-decoded.
func DecodeCompiled(r io.Reader) (*Compiled, error) {
	ar, err := artifact.Read(r, artifact.KindCompiled, compiledVersion)
	if err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	comp := ReadCompiled(ar)
	if err := ar.Close(); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	return comp, nil
}

// WriteCompiled appends c's payload encoding — kernel, plan, transform
// stats, tile width — for artifacts that embed it under their own
// checksum (the store's plan files). The layout predates "every Compiled
// carries a plan": the flag is always set, the width repeats the plan's.
func WriteCompiled(w *artifact.Writer, c *Compiled) {
	kernel.WriteKernel(w, c.Kernel)
	w.Bool(true)
	kernel.WritePlan(w, c.Plan)
	kernel.WriteStats(w, c.TransformStats)
	w.Int(c.Plan.TileBits)
}

// ReadCompiled reads a WriteCompiled payload; a failure is left on r. A
// payload without a plan (per-gate execution, once) fails, and so does
// one whose plan's parameter slots are not the kernel's — a sweep could
// not rebind it — so its artifact is quarantined and recompiled.
func ReadCompiled(r *artifact.Reader) *Compiled {
	comp := &Compiled{Kernel: kernel.ReadKernel(r)}
	if !r.Bool() {
		r.Failf("compiled artifact carries no plan")
		return comp
	}
	comp.Plan = kernel.ReadPlan(r)
	if r.Err() == nil && comp.Plan.NumQubits != comp.Kernel.NumQubits {
		r.Failf("compiled plan spans %d qubits, kernel %d", comp.Plan.NumQubits, comp.Kernel.NumQubits)
	}
	if r.Err() == nil && comp.Plan.BindSlots != comp.Kernel.NumParams() {
		r.Failf("compiled plan binds %d parameter slots, kernel has %d", comp.Plan.BindSlots, comp.Kernel.NumParams())
	}
	comp.TransformStats = kernel.ReadStats(r)
	if tb := r.Int(); r.Err() == nil && tb != comp.Plan.TileBits {
		r.Failf("compiled artifact records tile width %d, its plan %d", tb, comp.Plan.TileBits)
	}
	return comp
}

// EncodedLen returns the length of c's WriteCompiled payload: what a
// Writer is sized with (a plan is smaller in memory than on the wire).
func (c *Compiled) EncodedLen() int {
	return c.Kernel.EncodedLen() + 1 + c.Plan.EncodedLen() + 6*8 + 8 // plan flag, transform stats, tile width
}

// SizeBytes returns the compiled circuit's resident memory footprint
// (kernel plus plan, the instructions a width-0 plan shares with the
// kernel counted once) — what a byte-accounted plan cache charges.
func (c *Compiled) SizeBytes() int64 {
	return int64(unsafe.Sizeof(Compiled{})) + c.Kernel.SizeBytes() + c.Plan.SizeBytesBeside(c.Kernel)
}

// countsEntryBytes approximates one Counts map entry's resident
// footprint: 8 B key + 8 B value plus bucket/overflow overhead.
const countsEntryBytes = 48

// SizeBytes returns the result's resident memory footprint. The 2^n
// probability vector dominates (8 bytes per amplitude); sampled counts
// and the plan-stats pointer ride along.
func (r *Result) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(Result{})) + 8*int64(len(r.Probabilities)) + countsEntryBytes*int64(len(r.Counts))
	if r.PlanStats != nil {
		n += int64(unsafe.Sizeof(*r.PlanStats))
	}
	n += 8 * int64(len(r.SweepValues))
	n += 8 * int64(len(r.Gradient))
	for _, c := range r.SweepCounts {
		n += 24 + countsEntryBytes*int64(len(c))
	}
	return n
}
