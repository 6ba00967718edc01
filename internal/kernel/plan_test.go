package kernel

import (
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// TestRunFusionFoldsAdjacentMat1 checks within-run fusion: adjacent
// same-target single-qubit gates pre-multiply into one micro-op, the
// stats record it, and the fused plan matches the exact plan to
// rounding.
func TestRunFusionFoldsAdjacentMat1(t *testing.T) {
	const n, tileBits = 9, 4
	c := circuit.New(n, 0)
	rng := qmath.NewRNG(31)
	// Dense 1q chains on a few targets, interleaved with structure.
	for i := 0; i < 40; i++ {
		q := rng.Intn(tileBits)
		c.RY(rng.Angle(), q).RX(rng.Angle(), q).H(q)
		if i%5 == 0 {
			c.CX(q, (q+1)%tileBits)
		}
	}
	k, _, err := FromCircuit(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Plan(k, PlanConfig{TileBits: tileBits})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Plan(k, PlanConfig{TileBits: tileBits, FuseRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	if fused.Stats.FusedOps == 0 {
		t.Fatal("no micro-ops fused in a 1q-chain-heavy stream")
	}
	if got, want := fused.Stats.TileLocal, exact.Stats.TileLocal; got != want {
		t.Errorf("TileLocal changed under fusion: %d vs %d (source gates must still be counted)", got, want)
	}
	// Fewer executed micro-ops, same distribution to rounding.
	if len(fused.Ops) >= len(exact.Ops) {
		t.Errorf("fusion did not shrink the op stream: %d vs %d", len(fused.Ops), len(exact.Ops))
	}
	a := statevec.MustNew(n, 1)
	if err := exact.Execute(a); err != nil {
		t.Fatal(err)
	}
	b := statevec.MustNew(n, 1)
	if err := fused.Execute(b); err != nil {
		t.Fatal(err)
	}
	if d := maxAmpDiff(t, a, b); d > 1e-12 {
		t.Errorf("fused plan diverged: %g", d)
	}
}

// TestRunFusionFoldsDiagonals checks plan-time diagonal folding:
// single-target diagonal micro-ops (t/s/p/rz) merge into a neighboring
// mat1 on the same target as a row or column scale, adjacent diagonals
// collapse to one TileRelPhase, and the folded plan agrees with the
// exact plan to rounding.
func TestRunFusionFoldsDiagonals(t *testing.T) {
	const n, tileBits = 8, 4
	type variant struct {
		name  string
		build func(c *circuit.Circuit, q int, rng *qmath.RNG)
	}
	for _, v := range []variant{
		{"diag-after-mat1", func(c *circuit.Circuit, q int, rng *qmath.RNG) {
			c.H(q)
			c.Append(gate.T, []int{q}, nil) // row scale: T·H
		}},
		{"mat1-after-diag", func(c *circuit.Circuit, q int, rng *qmath.RNG) {
			c.Append(gate.P, []int{q}, []float64{rng.Angle()})
			c.RY(rng.Angle(), q) // column scale: RY·P
		}},
		{"diag-after-diag", func(c *circuit.Circuit, q int, rng *qmath.RNG) {
			c.Append(gate.RZ, []int{q}, []float64{rng.Angle()})
			c.Append(gate.S, []int{q}, nil) // collapses to one TileRelPhase
		}},
	} {
		t.Run(v.name, func(t *testing.T) {
			rng := qmath.NewRNG(97)
			c := circuit.New(n, 0)
			for i := 0; i < 24; i++ {
				q := rng.Intn(tileBits)
				v.build(c, q, rng)
				if i%6 == 0 {
					c.CX(q, (q+1)%tileBits) // break runs so folding must restart
				}
			}
			k, _, err := FromCircuit(c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			exact, err := Plan(k, PlanConfig{TileBits: tileBits})
			if err != nil {
				t.Fatal(err)
			}
			fused, err := Plan(k, PlanConfig{TileBits: tileBits, FuseRuns: true})
			if err != nil {
				t.Fatal(err)
			}
			if fused.Stats.FusedOps == 0 {
				t.Fatal("no micro-ops folded in a diagonal-heavy stream")
			}
			if len(fused.Ops) >= len(exact.Ops) {
				t.Errorf("diag folding did not shrink the op stream: %d vs %d",
					len(fused.Ops), len(exact.Ops))
			}
			a := statevec.MustNew(n, 1)
			if err := exact.Execute(a); err != nil {
				t.Fatal(err)
			}
			b := statevec.MustNew(n, 1)
			if err := fused.Execute(b); err != nil {
				t.Fatal(err)
			}
			if d := maxAmpDiff(t, a, b); d > 1e-12 {
				t.Errorf("folded plan diverged: %g", d)
			}
		})
	}
}

// TestDiagDiagCollapsesToRelPhase pins the merged-op shape: two
// adjacent diagonals on one low target become exactly one TileRelPhase
// micro-op carrying the product factors.
func TestDiagDiagCollapsesToRelPhase(t *testing.T) {
	c := circuit.New(5, 0)
	c.Append(gate.T, []int{1}, nil)
	c.Append(gate.S, []int{1}, nil)
	k, _, err := FromCircuit(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Plan(k, PlanConfig{TileBits: 3, FuseRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	ops := fused.Ops
	if len(ops) != 1 {
		t.Fatalf("want 1 merged micro-op, got %d", len(ops))
	}
	op := ops[0]
	if op.Kind != statevec.TileRelPhase || op.T != 1 {
		t.Fatalf("want TileRelPhase on target 1, got kind=%d T=%d", op.Kind, op.T)
	}
	// T then S is diag(1, e^{iπ/4}) then diag(1, i): product diag(1, e^{i3π/4}).
	want := complex(math.Cos(3*math.Pi/4), math.Sin(3*math.Pi/4))
	if a, b := op.AB(); cmplx.Abs(a-1) > 1e-15 || cmplx.Abs(b-want) > 1e-15 {
		t.Fatalf("merged factors A=%v B=%v, want A=1 B=%v", a, b, want)
	}
	if fused.Stats.FusedOps != 1 {
		t.Fatalf("FusedOps = %d, want 1", fused.Stats.FusedOps)
	}
}

// TestDistributedPlanRejectedBySingleExecutor pins the engine
// boundary: plans compiled with rank bits only run on the distributed
// engine.
func TestDistributedPlanRejectedBySingleExecutor(t *testing.T) {
	k := New("k", 6).H(0).H(5)
	plan, err := Plan(k, PlanConfig{TileBits: 2, GlobalBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.GlobalBits != 1 {
		t.Fatalf("GlobalBits = %d, want 1", plan.GlobalBits)
	}
	s := statevec.MustNew(6, 1)
	if err := plan.Execute(s); err == nil {
		t.Fatal("single-process executor accepted a distributed plan")
	}
}

// TestPlanNoTilingSentinel checks that a single-process state too small
// to tile is no error of any kind: it compiles to the width-0 per-gate
// plan, the same one TileBits 0 asks for — and that distributed plans
// never do: a shard that fits one tile is planned as one tile.
func TestPlanNoTilingSentinel(t *testing.T) {
	k := New("small", 3).H(0)
	for _, tileBits := range []int{0, 3, 5} {
		plan, err := Plan(k, PlanConfig{TileBits: tileBits})
		if err != nil || plan.TileBits != 0 || plan.Stats.Global != 1 || len(plan.Ops) != 0 {
			t.Errorf("small single-process state at tile width %d: plan %+v, err %v; want the width-0 plan", tileBits, plan, err)
		}
	}
	if plan, err := Plan(k, PlanConfig{TileBits: 2}); err != nil || plan.TileBits != 2 {
		t.Errorf("a state wider than the tile: plan %+v, err %v; want a tiled plan", plan, err)
	}
	if _, err := Plan(k, PlanConfig{TileBits: -1}); err == nil {
		t.Error("negative tile width accepted")
	}
	// A distributed shard of one qubit is planned as one tile.
	k2 := New("shard", 4).H(0).H(3).CR1(0.3, 3, 0)
	plan, err := Plan(k2, PlanConfig{TileBits: 2, GlobalBits: 3})
	if err != nil {
		t.Fatalf("1-qubit shard: %v", err)
	}
	// The rank-bit h is swapped into the tile and back, nothing sweeps.
	if plan.TileBits != 1 || plan.Stats.Global != 0 || plan.Stats.BitSwaps != 2 || plan.Stats.ExchangeSegs != 2 {
		t.Errorf("1-qubit shard: tile width %d, %d globals, %d bit swaps (%d across ranks); want one tile, no global and 2 swaps across",
			plan.TileBits, plan.Stats.Global, plan.Stats.BitSwaps, plan.Stats.ExchangeSegs)
	}
	// Invalid configuration is a hard error, not a fallback: no shard is
	// left, or no tile width to cut one into.
	for _, cfg := range []PlanConfig{{TileBits: 2, GlobalBits: 4}, {GlobalBits: 1}} {
		if _, err := Plan(k2, cfg); err == nil {
			t.Errorf("%+v: planned, want hard error", cfg)
		}
	}
}

// TestDistributedPlanClampsTileToShard: tiles must fit strictly inside
// the rank shard, whatever width was requested — except that a 1-qubit
// shard, which has no strict inside, is one tile.
func TestDistributedPlanClampsTileToShard(t *testing.T) {
	k := New("k", 8).H(0).H(7)
	for _, tc := range []struct{ globalBits, want int }{{2, 5}, {5, 2}, {6, 1}, {7, 1}} {
		plan, err := Plan(k, PlanConfig{TileBits: 14, GlobalBits: tc.globalBits})
		if err != nil {
			t.Fatal(err)
		}
		if plan.TileBits != tc.want {
			t.Errorf("%d rank bits: TileBits = %d, want %d", tc.globalBits, plan.TileBits, tc.want)
		}
	}
}

// TestSmallStatePlanShape is the plan-shape table of the split rule at
// the auto width 16: a 12-qubit state stays per-gate; a 13- to 16-qubit
// single-process state that fits the tile compiles to two tiles of n−1
// qubits, which for a QCrank encoding is two runs around one relabeling
// swap of the top qubit and no full sweep; width 0 stays per-gate at any
// size; and a distributed plan is clamped into its shard exactly as
// before the rule. The random circuits keep one sweep at 13 and 15
// qubits: a high target mixed once more is swept, not relabeled, at any
// width.
func TestSmallStatePlanShape(t *testing.T) {
	qcrank15 := qcrankKernelOf(t, 9, 6)
	for _, tc := range []struct {
		name                       string
		k                          *Kernel
		cfg                        PlanConfig
		tile, runs, swaps, globals int
	}{
		{"randcirc12", randKernel(t, 12), PlanConfig{TileBits: 16}, 0, 0, 0, 300},
		{"qcrank13", qcrankKernelOf(t, 7, 6), PlanConfig{TileBits: 16}, 12, 2, 1, 0},
		{"qcrank15", qcrank15, PlanConfig{TileBits: 16}, 14, 2, 1, 0},
		{"qcrank16", qcrankKernelOf(t, 10, 6), PlanConfig{TileBits: 16}, 15, 2, 1, 0},
		{"randcirc13", randKernel(t, 13), PlanConfig{TileBits: 16}, 12, 6, 5, 1},
		{"randcirc15", randKernel(t, 15), PlanConfig{TileBits: 16}, 14, 7, 5, 1},
		{"randcirc16", randKernel(t, 16), PlanConfig{TileBits: 16}, 15, 5, 4, 0},
		{"qcrank15/width0", qcrank15, PlanConfig{}, 0, 0, 0, 6153},
		{"qcrank15/ranks2", qcrank15, qcrankPlanConfig, 13, 3, 3, 0},
		{"randcirc16/ranks4", randKernel(t, 16), PlanConfig{TileBits: 16, GlobalBits: 2}, 13, 14, 15, 0},
	} {
		p := mustPlan(t, tc.k, tc.cfg)
		st := p.Stats
		if p.TileBits != tc.tile || st.Runs != tc.runs || st.BitSwaps != tc.swaps || st.Global != tc.globals {
			t.Errorf("%s: tile %d, %d runs, %d bit swaps, %d sweeps; want %d, %d, %d, %d",
				tc.name, p.TileBits, st.Runs, st.BitSwaps, st.Global, tc.tile, tc.runs, tc.swaps, tc.globals)
		}
		if st.TileLocal+st.Global != tc.k.NumGates() || p.GlobalBits != tc.cfg.GlobalBits {
			t.Errorf("%s: %d tile ops and %d sweeps for %d gates, %d rank bits", tc.name, st.TileLocal, st.Global, tc.k.NumGates(), p.GlobalBits)
		}
	}
}

// TestAutoTileBitsSane: whatever the detection found, the startup
// default must be a usable tile width and consistent with its origin
// report.
func TestAutoTileBitsSane(t *testing.T) {
	got := AutoTileBits()
	bitsVal, source, cacheBytes := TileBitsOrigin()
	if got != bitsVal {
		t.Fatalf("AutoTileBits %d != TileBitsOrigin %d", got, bitsVal)
	}
	switch source {
	case "l2", "l3":
		if got < autoTileMin || got > autoTileMax {
			t.Errorf("detected tile bits %d outside [%d,%d]", got, autoTileMin, autoTileMax)
		}
		if cacheBytes <= 0 {
			t.Errorf("source %q with no cache size", source)
		}
	case "default":
		if got != DefaultTileBits {
			t.Errorf("default source but %d != DefaultTileBits", got)
		}
	case "env":
		if got <= 0 {
			t.Errorf("env source with non-positive width %d", got)
		}
	default:
		t.Errorf("unknown tile-bits source %q", source)
	}
}

// TestReadCacheGeometry exercises the sysfs parser against a synthetic
// cache directory.
func TestReadCacheGeometry(t *testing.T) {
	dir := t.TempDir()
	write := func(idx, name, val string) {
		if err := os.MkdirAll(filepath.Join(dir, idx), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, idx, name), []byte(val+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("index0", "level", "1")
	write("index0", "type", "Data")
	write("index0", "size", "48K")
	write("index1", "level", "1")
	write("index1", "type", "Instruction")
	write("index1", "size", "32K")
	write("index2", "level", "2")
	write("index2", "type", "Unified")
	write("index2", "size", "1M")
	write("index3", "level", "3")
	write("index3", "type", "Unified")
	write("index3", "size", "32M")
	l2, l3 := readCacheGeometry(dir)
	if l2 != 1<<20 {
		t.Errorf("l2 = %d, want %d", l2, 1<<20)
	}
	if l3 != 32<<20 {
		t.Errorf("l3 = %d, want %d", l3, 32<<20)
	}
	if got, want := parseCacheSize("512K"), int64(512<<10); got != want {
		t.Errorf("parseCacheSize(512K) = %d, want %d", got, want)
	}
	if parseCacheSize("junk") != 0 {
		t.Error("junk size accepted")
	}
}

// TestDistributedPlanStatsShape pins the classification on a mixed
// stream: rank-bit diagonals stay in runs (RankLocal), each rank-bit
// target is swapped into the tile once and back once at the end,
// shard-local work tiles, and no rank position is left permuted.
func TestDistributedPlanStatsShape(t *testing.T) {
	const n, gbits, tileBits = 6, 2, 2
	c := circuit.New(n, 0)
	c.H(0).H(1).CX(0, 1)       // tile-local
	c.RZ(0.4, 5).CP(0.2, 0, 4) // rank-bit diagonals: rank-local, zero comm
	c.H(4).RY(0.3, 4)          // rank-bit targets, same bit: one swap in
	c.H(5)                     // different rank bit: a second
	k, _, err := FromCircuit(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(k, PlanConfig{TileBits: tileBits, GlobalBits: gbits})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats
	if st.RankLocal != 2 {
		t.Errorf("RankLocal = %d, want 2 (rz and cp)", st.RankLocal)
	}
	if st.ExchangeSegs != 4 || st.BitSwaps != 4 {
		t.Errorf("%d bit swaps, %d across ranks; want 4 across (q4, q5 in and back)", st.BitSwaps, st.ExchangeSegs)
	}
	if st.ExchangeGates != 0 {
		t.Errorf("ExchangeGates = %d, want 0", st.ExchangeGates)
	}
	if st.Global != 0 || st.TileLocal != 8 {
		t.Errorf("Global = %d, TileLocal = %d; want every gate in a run", st.Global, st.TileLocal)
	}
	for q, pos := range plan.FinalPerm {
		if q >= n-gbits && pos != q {
			t.Errorf("rank qubit %d ends at position %d", q, pos)
		}
	}
}
