package kernel

import (
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qgear/internal/circuit"
	"qgear/internal/gate"
	"qgear/internal/statevec"
)

// TestDiagDiagIsOneTablePass pins the shape two adjacent diagonals on
// one low target take: a group header and the two members as compiled
// alone, run as one pass whose single table entry is the product factor
// on the target's 1 half.
func TestDiagDiagIsOneTablePass(t *testing.T) {
	c := circuit.New(5, 0)
	c.Append(gate.T, []int{1}, nil)
	c.Append(gate.S, []int{1}, nil)
	k, _, err := FromCircuit(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(k, PlanConfig{TileBits: 3})
	if err != nil {
		t.Fatal(err)
	}
	tph, sph := gate.Matrix1(gate.T, nil)[3], gate.Matrix1(gate.S, nil)[3]
	want := []statevec.TileOp{statevec.TableOp(2), statevec.DiagOp(tph, 1<<1, 0), statevec.DiagOp(sph, 1<<1, 0)}
	if !reflect.DeepEqual(plan.Ops, want) {
		t.Fatalf("ops %+v, want a header and the two phases", plan.Ops)
	}
	// T then S is diag(1, e^{iπ/4}) then diag(1, i): product diag(1, e^{i3π/4}).
	s := statevec.MustNew(5, 1)
	s.ApplyGate(gate.H, []int{1}, nil)
	if err := plan.Execute(s); err != nil {
		t.Fatal(err)
	}
	phase := complex(math.Cos(3*math.Pi/4), math.Sin(3*math.Pi/4))
	if a0, a1 := s.Amp(0), s.Amp(2); cmplx.Abs(a0-complex(math.Sqrt2/2, 0)) > 1e-15 || cmplx.Abs(a1-phase*math.Sqrt2/2) > 1e-15 {
		t.Fatalf("amplitudes %v, %v; want 1/√2 and e^{i3π/4}/√2", a0, a1)
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

// planShape renders a plan's segments: R<ops> a run, G a sweep,
// S(a,b) a bit swap.
func planShape(p *TilePlan) string {
	var b strings.Builder
	for _, seg := range p.Segments {
		switch seg.Kind {
		case SegRun:
			fmt.Fprintf(&b, " R%d", seg.Hi-seg.Lo)
		case SegGlobal:
			b.WriteString(" G")
		case SegBitSwap:
			fmt.Fprintf(&b, " S(%d,%d)", seg.A, seg.B)
		}
	}
	return strings.TrimSpace(b.String())
}

// TestQCrankPlansKeepEveryTileLive is the golden of QCrank a9_d6's plans
// (the qcrank_mgpu benchmark's circuit) on one device and on 2 and 4
// ranks. The address qubits' h layer is the last mixing use each has,
// so the planner brings the data qubits it will relabel into their
// slots right there, while only 2^9 amplitudes are live (evictEarly):
// after the h layer every position at or above the tile holds a qubit
// that has been mixed, so no tile and no rank holds only zeros, and
// the swaps, exchanges and runs are as many as when each relabel waited
// for its qubit's first use (R5129 S(0,14) R1024; R4105 S(0,13) R1024
// S(0,14) R1024 S(0,14); R3081 S(0,12) R1024 S(0,13) R1024 S(0,14)
// R1024 S(0,14) S(0,13)).
//
// Each row also pins how many of its runs' 3,072 CXs run in one pass
// with the ry before them (statevec's FusesCX): all but those whose
// control the plan holds at or above the tile, 24 on one device and 12
// more per rank bit. A planner change that splits the pairs fails here
// instead of doubling those CXs' cost.
func TestQCrankPlansKeepEveryTileLive(t *testing.T) {
	const addr = 9
	k := qcrankKernel(t)
	for _, tc := range []struct {
		name                   string
		cfg                    PlanConfig
		shape                  string
		runs, swaps, exchanges int
		fused                  int // Mat1→CX pairs tilePass runs as one
	}{
		{"one device", PlanConfig{TileBits: 16}, "R7 S(6,14) R6146", 2, 1, 0, 3048},
		{"2 ranks", PlanConfig{TileBits: 16, GlobalBits: 1}, "R7 S(6,13) R1 S(7,14) R6145 S(7,14)", 3, 3, 2, 3036},
		{"4 ranks", PlanConfig{TileBits: 16, GlobalBits: 2}, "R7 S(6,12) R1 S(7,13) R1 S(8,14) R6144 S(7,13) S(8,14)", 4, 5, 4, 3024},
	} {
		p := mustPlan(t, k, tc.cfg)
		if got := planShape(p); got != tc.shape {
			t.Errorf("%s: plan %s, want %s", tc.name, got, tc.shape)
		}
		if st := p.Stats; st.Runs != tc.runs || st.BitSwaps != tc.swaps || st.ExchangeSegs != tc.exchanges || st.Global != 0 {
			t.Errorf("%s: %+v, want %d runs, %d swaps, %d across ranks, no sweep", tc.name, st, tc.runs, tc.swaps, tc.exchanges)
		}
		fused, cxs := 0, 0
		for _, seg := range p.Segments {
			if seg.Kind != SegRun {
				continue
			}
			run := p.Ops[seg.Lo:seg.Hi]
			for i := range run {
				if run[i].Kind != statevec.TileCX {
					continue
				}
				if cxs++; i > 0 && run[i-1].FusesCX(&run[i]) {
					fused++
				}
			}
		}
		if fused != tc.fused || cxs != 3072 {
			t.Errorf("%s: %d of %d CXs run in one pass with the ry before them, want %d of 3072", tc.name, fused, cxs, tc.fused)
		}
		// Replay the layout up to the first op after the h layer.
		inv := make([]int, k.NumQubits) // physical → logical
		for q := range inv {
			inv[q] = q
		}
		mixed := make([]bool, k.NumQubits)
		ops := 0
	replay:
		for _, seg := range p.Segments {
			switch seg.Kind {
			case SegBitSwap:
				inv[seg.A], inv[seg.B] = inv[seg.B], inv[seg.A]
			case SegRun:
				for _, op := range p.Ops[seg.Lo:seg.Hi] {
					if ops == addr {
						break replay
					}
					mixed[inv[op.T]] = true
					ops++
				}
			}
		}
		for pos := p.TileBits; pos < k.NumQubits; pos++ {
			if !mixed[inv[pos]] {
				t.Errorf("%s: after the h layer position %d (tile %d) holds qubit %d, not yet mixed", tc.name, pos, p.TileBits, inv[pos])
			}
		}
	}
}
