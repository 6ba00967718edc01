package main

import (
	"fmt"
	"math"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/qft"
	"qgear/internal/qmath"
	"qgear/internal/sampling"
)

// qftExec is backend.Run, target nvidia, of the QFT (with its
// bit-reversal swaps) on a seed-chosen basis state, measured with
// shots. One state far larger than L2 is swept in a handful of plan
// runs, so statevec execute and readout are nearly all of the op.
//
// Oracle: the QFT of a basis state is uniform in magnitude, so every
// probability is 2^-n within 1e-12; counts sum to the shots; and the
// probability bits of every op equal those of one per-gate aer run done
// in set-up.
type qftExec struct {
	noPrep
	e      env
	n      int
	circ   *circuit.Circuit
	cfg    backend.Config
	ref    []float64       // per-gate aer probabilities
	counts sampling.Counts // the first op's counts; the shot seed is fixed, so every op's

	// The last op's outputs, for Check.
	lastProbs  []float64
	lastCounts sampling.Counts
}

func newQFTExec(seed uint64, e env) *qftExec {
	n := e.Sizes.QFTQubits
	rng := stream(seed, "qft_exec")
	basis := rng.Uint64() & (1<<uint(n) - 1)
	c := circuit.New(n, 0)
	c.Name = fmt.Sprintf("qft_%dq_on_%d", n, basis)
	for q := 0; q < n; q++ {
		if basis>>uint(q)&1 == 1 {
			c.X(q)
		}
	}
	// qft.Circuit only fails for n < 1.
	f, _ := qft.Circuit(n, true)
	c.Ops = append(c.Ops, f.Ops...)
	c.MeasureAll()
	return &qftExec{
		e: e, n: n, circ: c,
		cfg: backend.Config{
			Target: backend.TargetNvidia, Workers: e.W,
			Shots: e.Sizes.QFTShots, Seed: rng.Uint64(),
		},
	}
}

func (q *qftExec) Setup() error {
	ref, err := backend.Run(q.circ, backend.Config{Target: backend.TargetAer, Workers: 1})
	if err != nil {
		return err
	}
	q.ref = ref.Probabilities
	return warmUp(q, q.e.Sizes.WarmupOps)
}

func (q *qftExec) check(probs []float64, counts sampling.Counts) error {
	want := math.Exp2(-float64(q.n))
	for i, p := range probs {
		if math.Abs(p-want) > 1e-12 {
			return fmt.Errorf("probability %d = %g, want 2^-%d", i, p, q.n)
		}
	}
	if err := sameBits(probs, q.ref); err != nil {
		return fmt.Errorf("probabilities differ from the per-gate run: %w", err)
	}
	if counts.Total() != q.cfg.Shots {
		return fmt.Errorf("counts sum to %d, want %d shots", counts.Total(), q.cfg.Shots)
	}
	if q.counts == nil {
		q.counts = counts
		return nil
	}
	if err := sameCounts(counts, q.counts); err != nil {
		return fmt.Errorf("counts differ from the first op: %w", err)
	}
	return nil
}

func (q *qftExec) Round(rec *recorder) time.Duration {
	q.lastProbs, q.lastCounts = nil, nil
	start := time.Now()
	res, err := backend.Run(q.circ, q.cfg)
	d := time.Since(start)
	if err == nil {
		q.lastProbs, q.lastCounts = res.Probabilities, res.Counts
	}
	rec.record(d, err)
	return d
}

func (q *qftExec) Check(rec *recorder) {
	if q.lastProbs == nil {
		return // the op failed and is counted
	}
	if err := q.check(q.lastProbs, q.lastCounts); err != nil {
		rec.lateFail(err)
	}
}

func (q *qftExec) TracedRound(rec *recorder, tr *tracer) time.Duration {
	q.lastProbs, q.lastCounts = nil, nil
	op := tr.nextOp()
	start := time.Now()
	root := tr.begin("op", -1, op)
	var probs []float64
	var counts sampling.Counts
	d, err := executeDecomposed(tr, root, op, q.circ, q.cfg.Workers)
	if err == nil {
		tr.timed("statevec.readout", root, op, func() { probs = d.State.Probabilities() })
		tr.timed("sampling.sample", root, op, func() {
			counts, err = sampling.Sample(probs, q.cfg.Shots, qmath.NewRNG(q.cfg.Seed))
		})
	}
	tr.finish(root)
	wall := time.Since(start)
	if err == nil {
		q.lastProbs, q.lastCounts = probs, counts
	}
	rec.record(wall, err)
	return wall
}

func (q *qftExec) Layers(tr *tracer, ctx layerCtx, m map[string]float64) error {
	comp, err := samePlan(q.circ, q.cfg, kernel.Options{}, 0)
	if err != nil {
		return err
	}
	planCounters(m, planStats(comp), q.n)
	statevecLayers(tr, m, q.n, q.e.W)
	spanMedians(tr, m, "sampling.sample")
	m["sampling.shots_per_s"] = ratio(float64(q.cfg.Shots), m["sampling.sample_s"])
	m["trace.dominant_layer_share"] = layerShare(tr, "statevec.")

	if m["backend.compile_s"], err = medianOf(3, func() error {
		_, err := backend.Compile(q.circ, q.cfg)
		return err
	}); err != nil {
		return err
	}

	// The paper's CPU-vs-GPU-path figure: the same circuit, plain
	// single-thread per-gate.
	aer := q.cfg
	aer.Target, aer.Workers = backend.TargetAer, 1
	if m["backend.aer_baseline_s"], err = medianOf(3, func() error {
		_, err := backend.Run(q.circ, aer)
		return err
	}); err != nil {
		return err
	}
	m["backend.speedup_vs_aer"] = ratio(m["backend.aer_baseline_s"], ctx.UntracedP50)

	// Worker scaling against Workers=1; columns beyond this host's W
	// stay 0 (not measured).
	if q.e.W > 1 {
		at := func(k int) (float64, error) {
			cfg := q.cfg
			cfg.Workers = k
			return medianOf(3, func() error {
				_, err := backend.Run(q.circ, cfg)
				return err
			})
		}
		one, err := at(1)
		if err != nil {
			return err
		}
		for k := 2; k <= q.e.W; k++ {
			tk := ctx.UntracedP50
			if k < q.e.W {
				if tk, err = at(k); err != nil {
					return err
				}
			}
			m[fmt.Sprintf("statevec.scaling_speedup_w%d", k)] = ratio(one, tk)
		}
	}
	return nil
}

func (q *qftExec) Close() {}
