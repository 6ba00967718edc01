package main

import (
	"fmt"
	"math"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/mgpu"
	"qgear/internal/qcrank"
	"qgear/internal/qimage"
	"qgear/internal/qmath"
	"qgear/internal/sampling"
)

// qcrankRanks is the simulated device count: two ranks, one worker
// each, whatever the host.
const qcrankRanks = 2

// qcrankMGPU is backend.Run, target nvidia-mgpu on two ranks, of the
// QCrank encoding of a seeded synthetic image, followed by
// qcrank.DecodeCounts and qimage.Compare. The top data qubit is the
// rank bit, so every gate on it lands in the plan's exchange segment:
// this is the only workload where mgpu and mpi run at all, and the only
// one where sampling (thousands of shots per address) is a visible
// share of the op.
//
// Oracle: DecodeProbs of the probabilities reconstructs the pixels
// within 1e-9; the DecodeCounts reconstruction correlates with the
// image at 0.99 or better; and the probability bits equal those of one
// single-device nvidia run done in set-up.
type qcrankMGPU struct {
	noPrep
	e      env
	plan   qcrank.Plan
	img    *qimage.Image
	circ   *circuit.Circuit
	cfg    backend.Config
	ref    []float64 // single-device probabilities
	counts sampling.Counts

	// The last op's outputs, for Check.
	lastProbs  []float64
	lastCounts sampling.Counts
	lastMet    qimage.Metrics

	correlation float64 // last op's DecodeCounts reconstruction
	maxAbsProbs float64 // last op's DecodeProbs reconstruction error
}

func newQCrankMGPU(seed uint64, e env) *qcrankMGPU {
	rng := stream(seed, "qcrank_mgpu")
	addrs := 1 << uint(e.Sizes.QCrankAddrQubits)
	// Synthetic and NewPlan only fail on non-positive sizes; Encode only
	// on values outside [-1, 1], which Image.Set clamps away.
	img, _ := qimage.Synthetic("zebra", addrs, e.Sizes.QCrankDataQubits, rng.Uint64())
	plan, _ := qcrank.NewPlan(img.Pixels(), e.Sizes.QCrankAddrQubits, e.Sizes.QCrankShotsPerAddr)
	c, _ := qcrank.Encode(img.Pix, plan, true)
	return &qcrankMGPU{
		e: e, plan: plan, img: img, circ: c,
		cfg: backend.Config{
			Target: backend.TargetNvidiaMGPU, Devices: qcrankRanks, Workers: 1,
			Shots: plan.Shots, Seed: rng.Uint64(),
		},
	}
}

// singleDevice is the same circuit on one nvidia device with as many
// workers as the distributed run has ranks, probabilities only.
func (q *qcrankMGPU) singleDevice() (*backend.Result, error) {
	return backend.Run(q.circ, backend.Config{Target: backend.TargetNvidia, Workers: qcrankRanks})
}

func (q *qcrankMGPU) Setup() error {
	ref, err := q.singleDevice()
	if err != nil {
		return err
	}
	q.ref = ref.Probabilities
	return warmUp(q, q.e.Sizes.WarmupOps)
}

// decode is the tail of the op: counts to pixels to reconstruction
// metrics.
func (q *qcrankMGPU) decode(counts sampling.Counts) (qimage.Metrics, error) {
	vals, missing, err := qcrank.DecodeCounts(counts, q.plan)
	if err != nil {
		return qimage.Metrics{}, err
	}
	if len(missing) > 0 {
		return qimage.Metrics{}, fmt.Errorf("%d addresses received no shots", len(missing))
	}
	reco := &qimage.Image{Name: "reco", W: q.img.W, H: q.img.H, Pix: vals}
	return qimage.Compare(q.img, reco)
}

func (q *qcrankMGPU) Round(rec *recorder) time.Duration {
	q.lastProbs = nil
	start := time.Now()
	res, err := backend.Run(q.circ, q.cfg)
	var met qimage.Metrics
	if err == nil {
		met, err = q.decode(res.Counts)
	}
	d := time.Since(start)
	if err == nil {
		q.lastProbs, q.lastCounts, q.lastMet = res.Probabilities, res.Counts, met
	}
	rec.record(d, err)
	return d
}

func (q *qcrankMGPU) Check(rec *recorder) {
	if q.lastProbs == nil {
		return // the op failed and is counted
	}
	if err := q.check(q.lastProbs, q.lastCounts, q.lastMet); err != nil {
		rec.lateFail(err)
	}
}

func (q *qcrankMGPU) check(probs []float64, counts sampling.Counts, met qimage.Metrics) error {
	exact, err := qcrank.DecodeProbs(probs, q.plan)
	if err != nil {
		return err
	}
	q.maxAbsProbs = 0
	for i, v := range exact {
		if d := math.Abs(v - q.img.Pix[i]); d > q.maxAbsProbs {
			q.maxAbsProbs = d
		}
	}
	if q.maxAbsProbs > 1e-9 {
		return fmt.Errorf("DecodeProbs reconstruction off by %g", q.maxAbsProbs)
	}
	q.correlation = met.Correlation
	if met.Correlation < q.e.Sizes.QCrankMinCorrelation {
		return fmt.Errorf("DecodeCounts correlation %g below %g", met.Correlation, q.e.Sizes.QCrankMinCorrelation)
	}
	if err := sameBits(probs, q.ref); err != nil {
		return fmt.Errorf("probabilities differ from the single-device run: %w", err)
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

// transformOptions are what backend.Compile lowers the mgpu target to:
// fusion (off here) would be kept below the rank boundary.
func (q *qcrankMGPU) transformOptions() kernel.Options {
	return kernel.Options{FusionLocalQubits: q.circ.NumQubits - 1}
}

func (q *qcrankMGPU) TracedRound(rec *recorder, tr *tracer) time.Duration {
	q.lastProbs = nil
	op := tr.nextOp()
	start := time.Now()
	root := tr.begin("op", -1, op)
	var (
		k      *kernel.Kernel
		plan   *kernel.TilePlan
		out    *mgpu.Result
		counts sampling.Counts
		met    qimage.Metrics
		err    error
	)
	tr.timed("kernel.transform", root, op, func() {
		k, _, err = kernel.FromCircuit(q.circ, q.transformOptions())
	})
	if err == nil {
		tr.timed("kernel.plan", root, op, func() {
			plan, err = kernel.Plan(k, kernel.PlanConfig{TileBits: kernel.AutoTileBits(), GlobalBits: 1})
		})
	}
	if err == nil {
		sim := tr.begin("mgpu.simulate", root, op)
		simStart := time.Now()
		out, err = mgpu.SimulateCompiled(k, plan, qcrankRanks, 1)
		tr.finish(sim)
		if err == nil {
			tr.addReported("mgpu.exchange_wait", sim, op, simStart, out.ExchangeTime)
		}
	}
	if err == nil {
		tr.timed("sampling.sample", root, op, func() {
			counts, err = sampling.Sample(out.Probabilities, q.cfg.Shots, qmath.NewRNG(q.cfg.Seed))
		})
	}
	if err == nil {
		tr.timed("qcrank.decode", root, op, func() { met, err = q.decode(counts) })
	}
	tr.finish(root)
	wall := time.Since(start)
	if err == nil {
		q.lastProbs, q.lastCounts, q.lastMet = out.Probabilities, counts, met
	}
	rec.record(wall, err)
	return wall
}

func (q *qcrankMGPU) Layers(tr *tracer, ctx layerCtx, m map[string]float64) error {
	comp, err := samePlan(q.circ, q.cfg, q.transformOptions(), 1)
	if err != nil {
		return err
	}
	planCounters(m, planStats(comp), q.circ.NumQubits)
	spanMedians(tr, m, "kernel.transform", "kernel.plan", "mgpu.simulate", "mgpu.exchange_wait", "sampling.sample", "qcrank.decode")
	m["sampling.shots_per_s"] = ratio(float64(q.cfg.Shots), m["sampling.sample_s"])
	m["qcrank.reco_correlation"] = q.correlation
	m["qcrank.reco_max_abs_err_probs"] = q.maxAbsProbs
	m["trace.dominant_layer_share"] = layerShare(tr, "mgpu.")

	if m["backend.compile_s"], err = medianOf(3, func() error {
		_, err := backend.Compile(q.circ, q.cfg)
		return err
	}); err != nil {
		return err
	}
	res, err := backend.RunCompiled(comp, q.cfg)
	if err != nil {
		return err
	}
	m["mgpu.exchanges"] = float64(res.Exchanges)
	m["mgpu.bytes_sent"] = float64(res.BytesSent)
	m["mgpu.avoided_exchanges"] = float64(res.AvoidedExchanges)

	single, err := backend.Compile(q.circ, backend.Config{Target: backend.TargetNvidia, Workers: qcrankRanks})
	if err != nil {
		return err
	}
	one, err := medianOf(3, func() error {
		_, err := backend.RunCompiled(single, backend.Config{Target: backend.TargetNvidia, Workers: qcrankRanks})
		return err
	})
	if err != nil {
		return err
	}
	m["mgpu.vs_single_device_ratio"] = ratio(m["mgpu.simulate_s"], one)
	return nil
}

func (q *qcrankMGPU) Close() {}
