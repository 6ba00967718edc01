package backend

import (
	"errors"
	"fmt"
	"time"

	"qgear/internal/circuit"
	"qgear/internal/mgpu"
	"qgear/internal/observable"
	"qgear/internal/telemetry"
)

// Observable estimation as a first-class job kind: the compiled
// TilePlan executes exactly once and every Pauli term of the
// Hamiltonian is evaluated against the resident statevector — no
// probability readout, no shot sampling, and a pending permutation
// materialized once in place. The single-process engines, mqpu
// included, hand all terms to one grouped block sweep
// (statevec.PauliEvaluator.ExpPauliGroup) with the canonical chunked
// reduction; the mgpu target runs the same sweep on every rank shard
// into one shared partial slab. All engines return bit-identical ⟨H⟩
// values (the differential suite pins this).

// RunExpectation transforms and compiles the circuit for the
// configured target, executes it once, and returns the exact ⟨H⟩ on
// the final state. Shots and Seed are ignored: expectation jobs are
// exact by construction.
func RunExpectation(c *circuit.Circuit, h *observable.Hamiltonian, cfg Config) (*Result, error) {
	comp, err := Compile(c, cfg)
	if err != nil {
		return nil, err
	}
	return RunExpectationCompiled(comp, h, cfg)
}

// RunExpectationCompiled is RunExpectation for a precompiled circuit —
// the serving layer's path: one cached compile serves any number of
// observables on the same circuit.
func RunExpectationCompiled(comp *Compiled, h *observable.Hamiltonian, cfg Config) (*Result, error) {
	if !cfg.Target.Valid() {
		return nil, fmt.Errorf("backend: unknown target %q", cfg.Target)
	}
	if h == nil {
		return nil, errors.New("backend: nil hamiltonian")
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	n := comp.Kernel.NumQubits
	if h.NumQubits > n {
		return nil, fmt.Errorf("backend: hamiltonian spans %d qubits, circuit has %d", h.NumQubits, n)
	}
	start := time.Now()
	res := comp.newResult(cfg.Target)
	res.ExpTerms = len(h.Terms)
	tr := &telemetry.Trace{}
	cfg.execHook()

	var val float64
	switch cfg.Target {
	case TargetNvidiaMGPU:
		t0 := time.Now()
		out, err := mgpu.ExpectationCompiledCancel(comp.Kernel, comp.Plan, h, cfg.devices(), cfg.workers(), cfg.Cancel)
		if err != nil {
			return nil, err
		}
		val = out.Value
		res.Exchanges = out.Exchanges
		res.BytesSent = out.BytesSent
		// The distributed path executes and reduces inside one mpi.Run;
		// the whole wall is the expectation stage, with the measured
		// exchange share split out.
		addDistSpans(tr, time.Since(t0), out.ExchangeTime)
	case TargetPennylane:
		t0 := time.Now()
		pennylaneTranspile(comp.Kernel)
		tr.Add(telemetry.StageTranspile, time.Since(t0))
		fallthrough
	default: // aer, nvidia, nvidia-mqpu, pennylane: one state, one grouped sweep
		t0 := time.Now()
		s, err := runSingleState(comp, cfg.workers(), cfg.Cancel)
		if err != nil {
			return nil, err
		}
		defer s.Release()
		tr.Add(telemetry.StageExecute, time.Since(t0))
		t1 := time.Now()
		if val, err = h.ExpectationCancel(s, cfg.Cancel); err != nil {
			return nil, err
		}
		tr.Add(telemetry.StageExpectation, time.Since(t1))
	}
	res.ExpValue = &val
	res.Duration = time.Since(start)
	res.Trace = tr
	return res, nil
}
