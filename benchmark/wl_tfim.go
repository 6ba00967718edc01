package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/kernel"
	"qgear/internal/observable"
	"qgear/internal/qft"
)

// tfimExpect is backend.RunExpectation, target nvidia, of the
// transverse-field Ising Hamiltonian (J, g from the seed) on the QFT of
// |0…0⟩. The QFT is built with its reversal swaps, which the plan
// absorbs into a qubit permutation, so the evaluator reads the resident
// state through a pending permutation. The Pauli evaluator is most of
// the op; statevec execute is the rest.
//
// Oracle: QFT|0…0⟩ = |+⟩^n, where every ZZ term vanishes and every X
// term is 1, so ⟨H⟩ = −g·n within 1e-9; and the value's bits are the
// same on every op.
type tfimExpect struct {
	noPrep
	e     env
	n     int
	g     float64
	circ  *circuit.Circuit
	ham   *observable.Hamiltonian
	cfg   backend.Config
	first *float64 // the first op's ⟨H⟩
	last  *float64 // the last op's, for Check
	// visited is the number of state indices one op's Pauli terms
	// enumerate, summed from ExpPauli's visit counts on traced ops.
	visited int
}

func newTFIMExpect(seed uint64, e env) *tfimExpect {
	n := e.Sizes.TFIMQubits
	rng := stream(seed, "tfim_expect")
	j := 0.5 + rng.Float64()
	g := 0.5 + rng.Float64()
	// qft.Circuit only fails for n < 1.
	c, _ := qft.Circuit(n, true)
	return &tfimExpect{
		e: e, n: n, g: g, circ: c,
		ham: observable.TransverseFieldIsing(n, j, g),
		cfg: backend.Config{Target: backend.TargetNvidia, Workers: e.W},
	}
}

func (t *tfimExpect) Setup() error {
	return warmUp(t, t.e.Sizes.WarmupOps)
}

func (t *tfimExpect) check(v float64) error {
	if want := -t.g * float64(t.n); math.Abs(v-want) > 1e-9 {
		return fmt.Errorf("<H> = %.15g, want -g*n = %.15g", v, want)
	}
	if t.first == nil {
		t.first = &v
		return nil
	}
	if math.Float64bits(v) != math.Float64bits(*t.first) {
		return fmt.Errorf("<H> bits %x differ from the first op's %x", math.Float64bits(v), math.Float64bits(*t.first))
	}
	return nil
}

func (t *tfimExpect) Round(rec *recorder) time.Duration {
	t.last = nil
	start := time.Now()
	res, err := backend.RunExpectation(t.circ, t.ham, t.cfg)
	d := time.Since(start)
	if err == nil && res.ExpValue == nil {
		err = errors.New("no expectation value in the result")
	}
	if err == nil {
		t.last = res.ExpValue
	}
	rec.record(d, err)
	return d
}

func (t *tfimExpect) Check(rec *recorder) {
	if t.last == nil {
		return // the op failed and is counted
	}
	if err := t.check(*t.last); err != nil {
		rec.lateFail(err)
	}
}

func (t *tfimExpect) TracedRound(rec *recorder, tr *tracer) time.Duration {
	t.last = nil
	op := tr.nextOp()
	start := time.Now()
	root := tr.begin("op", -1, op)
	var val float64
	visited := 0
	d, err := executeDecomposed(tr, root, op, t.circ, t.cfg.Workers)
	if err == nil {
		// Hamiltonian.ExpectationCancel, term by term, so the visit
		// counts it discards can be summed: one shared evaluator, each
		// term's coefficient-weighted value accumulated in term order.
		tr.timed("observable.expectation", root, op, func() {
			ev := d.State.PauliEvaluator()
			for _, term := range t.ham.Terms {
				xm, ym, zm, merr := term.Masks(t.n)
				if merr != nil {
					err = merr
					return
				}
				v, seen, perr := ev.ExpPauli(xm, ym, zm)
				if perr != nil {
					err = perr
					return
				}
				// The explicit conversion rounds the product before the
				// add, as the call boundary does in the library.
				val += float64(term.Coef * v)
				visited += seen
			}
		})
	}
	tr.finish(root)
	wall := time.Since(start)
	if err == nil {
		t.last, t.visited = &val, visited
	}
	rec.record(wall, err)
	return wall
}

func (t *tfimExpect) Layers(tr *tracer, ctx layerCtx, m map[string]float64) error {
	comp, err := samePlan(t.circ, t.cfg, kernel.Options{}, 0)
	if err != nil {
		return err
	}
	planCounters(m, planStats(comp), t.n)
	statevecLayers(tr, m, t.n, t.e.W)
	spanMedians(tr, m, "observable.expectation")
	m["observable.terms"] = float64(len(t.ham.Terms))
	m["observable.visited_indices"] = float64(t.visited)
	m["observable.ns_per_visited_index"] = ratio(m["observable.expectation_s"]*1e9, float64(t.visited))
	m["trace.dominant_layer_share"] = layerShare(tr, "observable.")
	m["backend.compile_s"], err = medianOf(3, func() error {
		_, err := backend.Compile(t.circ, t.cfg)
		return err
	})
	return err
}

func (t *tfimExpect) Close() {}
