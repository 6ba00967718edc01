package service

import (
	"errors"
	"fmt"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/core"
)

// jobKind indexes the job-kind table. A job's kind is resolved exactly
// once, in submit, and carried on the job record; everything downstream
// — validation, cache keying, execution, counters, latency keys, metric
// families — is a lookup in kinds. Adding a kind is one constant, one
// table entry and its run function.
type jobKind uint8

const (
	kindSimulate jobKind = iota
	kindExpectation
	kindSweep
	kindGradient
	numKinds
)

// kindSpec is everything the serving path needs to know about one kind.
type kindSpec struct {
	// name is the wire discriminator of the POST /v1/jobs envelope.
	name string
	// stem names the kind on the stats surfaces: the <stem>_jobs and
	// <stem>_executed keys of /v1/stats, the qgear_<stem>_*_total metric
	// families, and the latency-map key. Empty for simulate, which has no
	// per-kind counters and reports latency under the execution target.
	stem string
	// jobsHelp and executedHelp are the HELP texts of the kind's two
	// metric families; an empty text means the family is not exported.
	jobsHelp, executedHelp string
	// counters picks the kind's <stem>_jobs and <stem>_executed fields out
	// of a Stats value; nil for simulate, which has only the totals.
	counters func(st *Stats) (jobs, executed *uint64)
	// wire checks the envelope fields this kind takes or refuses and
	// moves its own into opts.
	wire func(req *SubmitRequest, opts *SubmitOptions) error
	// validate is the kind-specific half of submit validation.
	validate func(s *Server, c *circuit.Circuit, opts SubmitOptions) error
	// key is the kind's content address; kopts is the server's execution
	// configuration with the wall-clock-only fields already zeroed.
	key func(c *circuit.Circuit, opts SubmitOptions, kopts core.Options) string
	// run executes one job alone on its compiled circuit. Nil marks
	// simulate: a batch's simulate jobs of one circuit share one
	// backend.RunCompiled, and each draws its own shots from it.
	run runFunc
	// unbound runs the job from its source circuit, compiling each
	// point afresh. execute takes it instead of a plan when the server's
	// plans cannot be rebound (pruning: the transform depends on the
	// angles), so no plan is compiled that run could not use. Nil for
	// kinds whose one plan serves as is.
	unbound func(j *job, o core.Options) (*backend.Result, error)
}

// runFunc runs one job's compiled circuit: its kind's run, or runShared.
type runFunc func(j *job, comp *backend.Compiled, o core.Options) (*backend.Result, error)

var kinds = [numKinds]kindSpec{
	kindSimulate: {
		name: "simulate",
		wire: func(req *SubmitRequest, _ *SubmitOptions) error {
			if req.Hamiltonian != nil {
				return errors.New("kind simulate does not take a hamiltonian")
			}
			return refusePoints(req)
		},
		validate: func(*Server, *circuit.Circuit, SubmitOptions) error { return nil },
		key: func(c *circuit.Circuit, opts SubmitOptions, kopts core.Options) string {
			// The seed is normalized away when no shots are drawn, so
			// probabilities-only submissions always share a key.
			kopts.Shots = opts.Shots
			if opts.Shots > 0 {
				kopts.Seed = opts.Seed
			}
			return core.CacheKey(c, kopts)
		},
	},
	kindExpectation: {
		name:         "expectation",
		stem:         "expectation",
		jobsHelp:     "Expectation-value jobs submitted.",
		executedHelp: "Expectation-value jobs freshly evaluated.",
		counters: func(st *Stats) (*uint64, *uint64) {
			return &st.ExpectationJobs, &st.ExpectationExecuted
		},
		wire: func(req *SubmitRequest, _ *SubmitOptions) error {
			if req.Hamiltonian == nil {
				return errors.New("kind expectation requires a hamiltonian")
			}
			return refusePoints(req)
		},
		validate: func(_ *Server, c *circuit.Circuit, opts SubmitOptions) error {
			return validateHamiltonian(c, opts)
		},
		key: func(c *circuit.Circuit, opts SubmitOptions, kopts core.Options) string {
			// Shots and seed are normalized away inside (exact results).
			return core.ExpectationCacheKey(c, opts.Hamiltonian, kopts)
		},
		run: func(j *job, comp *backend.Compiled, o core.Options) (*backend.Result, error) {
			return backend.RunExpectationCompiled(comp, j.opts.Hamiltonian, o)
		},
	},
	kindSweep: {
		name:         "sweep",
		stem:         "sweep",
		jobsHelp:     "Sweep jobs submitted.",
		executedHelp: "Sweep jobs freshly executed.",
		counters:     func(st *Stats) (*uint64, *uint64) { return &st.SweepJobs, &st.SweepExecuted },
		wire: func(req *SubmitRequest, opts *SubmitOptions) error {
			if len(req.Points) == 0 {
				return errors.New("kind sweep requires points")
			}
			opts.SweepPoints = req.Points
			return nil
		},
		validate: validateSweep,
		key: func(c *circuit.Circuit, opts SubmitOptions, kopts core.Options) string {
			// Structural shape + the point matrix bit-for-bit. Shots and
			// seed shape sampling sweeps and are normalized away for exact
			// Hamiltonian sweeps inside SweepCacheKey.
			kopts.Shots, kopts.Seed = opts.Shots, opts.Seed
			return core.SweepCacheKey(c, opts.Hamiltonian, opts.SweepPoints, kopts)
		},
		// One compiled() resolution serves every point through rebinds.
		run: func(j *job, comp *backend.Compiled, o core.Options) (*backend.Result, error) {
			o.Shots, o.Seed = j.opts.Shots, j.opts.Seed
			return backend.RunSweepCompiled(comp, j.opts.Hamiltonian, j.opts.SweepPoints, o)
		},
		unbound: func(j *job, o core.Options) (*backend.Result, error) {
			o.Shots, o.Seed = j.opts.Shots, j.opts.Seed
			return backend.RunSweep(j.circ, j.opts.Hamiltonian, j.opts.SweepPoints, o)
		},
	},
	kindGradient: {
		name:     "gradient",
		stem:     "gradient",
		jobsHelp: "Parameter-shift gradient jobs submitted.",
		counters: func(st *Stats) (*uint64, *uint64) { return &st.GradientJobs, &st.GradientExecuted },
		wire: func(req *SubmitRequest, opts *SubmitOptions) error {
			if req.Hamiltonian == nil {
				return errors.New("kind gradient requires a hamiltonian")
			}
			if len(req.Points) > 0 {
				return errors.New("kind gradient derives its own sweep; points are not accepted")
			}
			opts.Gradient = true
			return nil
		},
		validate: func(_ *Server, c *circuit.Circuit, opts SubmitOptions) error {
			if opts.Hamiltonian == nil {
				return errors.New("service: gradient jobs need a hamiltonian")
			}
			if err := validateHamiltonian(c, opts); err != nil {
				return err
			}
			if len(opts.SweepPoints) > 0 {
				return errors.New("service: gradient jobs derive their own sweep; points are not accepted")
			}
			if c.NumParams() == 0 {
				return errors.New("service: gradient of a circuit with no parameterized gates")
			}
			return nil
		},
		key: func(c *circuit.Circuit, opts SubmitOptions, kopts core.Options) string {
			// Structural shape, the base point (the circuit's own
			// parameter values), and the Hamiltonian.
			return core.GradientCacheKey(c, opts.Hamiltonian, c.ParamValues(), kopts)
		},
		run: func(j *job, comp *backend.Compiled, o core.Options) (*backend.Result, error) {
			return backend.RunGradientCompiled(comp, j.opts.Hamiltonian, j.circ.ParamValues(), o)
		},
		unbound: func(j *job, o core.Options) (*backend.Result, error) {
			return backend.RunGradient(j.circ, j.opts.Hamiltonian, j.circ.ParamValues(), o)
		},
	},
}

// resolveKind is the one place a submission's kind is read off its
// options — the Go embedding API carries no explicit discriminator, and
// the HTTP envelope's per-kind wire check fills opts so that this
// resolves to the kind it named.
func resolveKind(opts SubmitOptions) jobKind {
	switch {
	case opts.Gradient:
		return kindGradient
	case len(opts.SweepPoints) > 0:
		return kindSweep
	case opts.Hamiltonian != nil:
		return kindExpectation
	}
	return kindSimulate
}

// kindByName finds the table entry a wire "kind" names.
func kindByName(name string) (*kindSpec, error) {
	for k := range kinds {
		if kinds[k].name == name {
			return &kinds[k], nil
		}
	}
	return nil, fmt.Errorf("unknown job kind %q", name)
}

func refusePoints(req *SubmitRequest) error {
	if len(req.Points) > 0 {
		return errors.New(`sweep points require kind "sweep"`)
	}
	return nil
}

// validateHamiltonian checks the observable of an exact job against its
// circuit.
func validateHamiltonian(c *circuit.Circuit, opts SubmitOptions) error {
	if opts.Shots != 0 {
		return fmt.Errorf("service: expectation jobs are exact; shots (%d) are not supported", opts.Shots)
	}
	if err := opts.Hamiltonian.Validate(); err != nil {
		return fmt.Errorf("service: invalid hamiltonian: %w", err)
	}
	if opts.Hamiltonian.NumQubits > c.NumQubits {
		return fmt.Errorf("service: hamiltonian spans %d qubits, circuit has %d",
			opts.Hamiltonian.NumQubits, c.NumQubits)
	}
	return nil
}

func validateSweep(s *Server, c *circuit.Circuit, opts SubmitOptions) error {
	if opts.Hamiltonian != nil {
		if err := validateHamiltonian(c, opts); err != nil {
			return err
		}
	}
	n := len(opts.SweepPoints)
	if s.cfg.MaxSweepPoints > 0 && n > s.cfg.MaxSweepPoints {
		return fmt.Errorf("service: sweep of %d points exceeds the %d-point bound", n, s.cfg.MaxSweepPoints)
	}
	nParams := c.NumParams()
	for i, pt := range opts.SweepPoints {
		if len(pt) != nParams {
			return fmt.Errorf("service: sweep point %d has %d values, circuit has %d parameter slots", i, len(pt), nParams)
		}
	}
	if opts.Hamiltonian == nil && opts.Shots <= 0 {
		return errors.New("service: a sweep without a hamiltonian must sample (shots > 0); per-point probability vectors are unbounded")
	}
	return nil
}
