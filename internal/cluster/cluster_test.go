package cluster

import (
	"errors"
	"math"
	"testing"

	"qgear/internal/qmath"
)

// Paper workloads (§3): short = 100 blocks ≈ 300 gates, long = 10,000
// blocks ≈ 30,000 gates, Fig. 4b intermediate = 3,000 blocks ≈ 9,000
// gates.
func longUnitary(n int) Workload  { return Workload{Qubits: n, Gates: 30000, Precision: FP32} }
func fig4bUnitary(n int) Workload { return Workload{Qubits: n, Gates: 9000, Precision: FP32} }

func TestMemoryWalls(t *testing.T) {
	// The capacity walls of Fig. 4a: 32 qubits for one A100-40GB at
	// fp32, 34 for four pooled; 34 for the 512 GB CPU node at fp64.
	if n := MaxQubits(40, FP32); n != 32 {
		t.Fatalf("A100-40 fp32 wall = %d, want 32", n)
	}
	if n := MaxQubits(160, FP32); n != 34 {
		t.Fatalf("4×A100-40 fp32 wall = %d, want 34", n)
	}
	if n := MaxQubits(512, FP64); n != 34 {
		t.Fatalf("CPU node fp64 wall = %d, want 34", n)
	}
	if n := MaxQubits(80*1024, FP32); n != 43 {
		t.Fatalf("1024×A100-80 wall = %d, want 43", n)
	}
}

func TestOutOfMemoryErrors(t *testing.T) {
	cl := Perlmutter()
	// 33 qubits on one 40 GB GPU must refuse (the open-square cutoff).
	if _, err := cl.EstimateGPUSeconds(longUnitary(33), 1); err == nil {
		t.Fatal("33q on one A100-40 accepted")
	} else {
		var oom *ErrOutOfMemory
		if !errors.As(err, &oom) {
			t.Fatalf("want ErrOutOfMemory, got %v", err)
		}
	}
	// 34 on four GPUs fits; 35 does not.
	if _, err := cl.EstimateGPUSeconds(longUnitary(34), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.EstimateGPUSeconds(longUnitary(35), 4); err == nil {
		t.Fatal("35q on 4×A100-40 accepted")
	}
	// CPU wall at fp64: 34 ok, 35 not.
	w := Workload{Qubits: 35, Gates: 300, Precision: FP64}
	if _, err := cl.EstimateCPUSeconds(w); err == nil {
		t.Fatal("35q fp64 on CPU node accepted")
	}
	w.Qubits = 34
	if _, err := cl.EstimateCPUSeconds(w); err != nil {
		t.Fatal(err)
	}
}

func TestCPUAnchoredTo24HourPoint(t *testing.T) {
	// §3: "approximately 24 h to simulate a single 34-qubit unitary
	// with 10,000 CX gates on one CPU node" — the model must land
	// within a factor of 2 of that anchor.
	cl := Perlmutter()
	w := Workload{Qubits: 34, Gates: 30000, Precision: FP64}
	sec, err := cl.EstimateCPUSeconds(w)
	if err != nil {
		t.Fatal(err)
	}
	if sec < 12*3600 || sec > 48*3600 {
		t.Fatalf("34q long unitary CPU estimate %.1f h, want ~24 h", sec/3600)
	}
}

func TestGPUSpeedupTwoOrdersOfMagnitude(t *testing.T) {
	// Fig. 4a's headline: ~400x single-GPU speedup over the CPU node
	// baseline. Accept anywhere in [100, 1000] — "two orders".
	cl := Perlmutter()
	cpu, err := cl.EstimateCPUSeconds(Workload{Qubits: 32, Gates: 30000, Precision: FP64})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := cl.EstimateGPUSeconds(longUnitary(32), 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := cpu / gpu
	if ratio < 100 || ratio > 1000 {
		t.Fatalf("CPU/GPU ratio %.0fx outside [100,1000]", ratio)
	}
}

func TestExponentialScaling(t *testing.T) {
	// Appendix B Theorem B.3: runtime doubles per added qubit once
	// traffic dominates, for both engines.
	cl := Perlmutter()
	for n := 28; n < 31; n++ {
		c1, err := cl.EstimateCPUSeconds(Workload{Qubits: n, Gates: 300, Precision: FP64})
		if err != nil {
			t.Fatal(err)
		}
		c2, err := cl.EstimateCPUSeconds(Workload{Qubits: n + 1, Gates: 300, Precision: FP64})
		if err != nil {
			t.Fatal(err)
		}
		if r := c2 / c1; r < 1.8 || r > 2.2 {
			t.Fatalf("CPU scaling %d->%d qubits: ratio %.2f, want ~2", n, n+1, r)
		}
		g1, err := cl.EstimateGPUSeconds(longUnitary(n), 1)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := cl.EstimateGPUSeconds(longUnitary(n+1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if r := g2 / g1; r < 1.7 || r > 2.3 {
			t.Fatalf("GPU scaling %d->%d qubits: ratio %.2f, want ~2", n, n+1, r)
		}
	}
}

func TestShortVsLongUnitaryRatio(t *testing.T) {
	// Long unitaries have 100x the gates, so ~100x the time (§3).
	cl := Perlmutter()
	short, err := cl.EstimateCPUSeconds(Workload{Qubits: 30, Gates: 300, Precision: FP64})
	if err != nil {
		t.Fatal(err)
	}
	long, err := cl.EstimateCPUSeconds(Workload{Qubits: 30, Gates: 30000, Precision: FP64})
	if err != nil {
		t.Fatal(err)
	}
	if r := long / short; r < 80 || r > 120 {
		t.Fatalf("long/short ratio %.1f, want ~100", r)
	}
}

func TestFig4bReversalAt1024GPUs(t *testing.T) {
	// §3: from 39 to 40 qubits the trend reverses — 1,024 GPUs become
	// slower than 256 because the per-GPU shard outgrows the inter-rack
	// fabric. The multi-node sweep uses the 80 GB parts.
	cl := Perlmutter().WithGPU(A100HBM80)
	t39at256, err := cl.EstimateGPUSeconds(fig4bUnitary(39), 256)
	if err != nil {
		t.Fatal(err)
	}
	t39at1024, err := cl.EstimateGPUSeconds(fig4bUnitary(39), 1024)
	if err != nil {
		t.Fatal(err)
	}
	t40at256, err := cl.EstimateGPUSeconds(fig4bUnitary(40), 256)
	if err != nil {
		t.Fatal(err)
	}
	t40at1024, err := cl.EstimateGPUSeconds(fig4bUnitary(40), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if t39at1024 >= t39at256 {
		t.Fatalf("at 39q 1024 GPUs (%.0fs) should beat 256 (%.0fs)", t39at1024, t39at256)
	}
	if t40at1024 <= t40at256 {
		t.Fatalf("at 40q 1024 GPUs (%.0fs) should fall behind 256 (%.0fs) — the Fig. 4b reversal", t40at1024, t40at256)
	}
}

func TestFig4bLargestPointIsMinutesScale(t *testing.T) {
	// §3: 42-qubit, 3,000-block unitaries complete "within a reasonable
	// time of approximately 10 min" on a big-enough cluster.
	cl := Perlmutter().WithGPU(A100HBM80)
	sec, err := cl.EstimateGPUSeconds(fig4bUnitary(42), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if sec < 120 || sec > 1800 {
		t.Fatalf("42q/1024GPU estimate %.1f min, want minutes-scale (~10)", sec/60)
	}
	// And 42 qubits must NOT fit on 256 GPUs even at 80 GB.
	if _, err := cl.EstimateGPUSeconds(fig4bUnitary(42), 256); err == nil {
		t.Fatal("42q fits on 256×80GB?")
	}
}

func TestMoreGPUsHelpWhenComputeBound(t *testing.T) {
	// Away from the congestion regime, larger clusters are faster.
	cl := Perlmutter().WithGPU(A100HBM80)
	prev := math.Inf(1)
	for _, g := range []int{4, 8, 16, 32, 64} {
		sec, err := cl.EstimateGPUSeconds(fig4bUnitary(34), g)
		if err != nil {
			t.Fatal(err)
		}
		if sec >= prev {
			t.Fatalf("scaling broke at %d GPUs: %.2fs >= %.2fs", g, sec, prev)
		}
		prev = sec
	}
}

func TestPennylaneSlowerThanQGear(t *testing.T) {
	// Fig. 4c: Q-GEAR consistently outperforms the Pennylane baseline
	// on QFT circuits across the sweep.
	cl := Perlmutter()
	for n := 28; n <= 33; n++ {
		gates := n + n*(n-1)/2 // H layer + CR1 ladder
		w := Workload{Qubits: n, Gates: gates, Precision: FP32}
		qg, err := cl.EstimateGPUSeconds(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := cl.EstimatePennylaneSeconds(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if pl < 3*qg {
			t.Fatalf("n=%d: pennylane %.3fs not clearly slower than qgear %.3fs", n, pl, qg)
		}
	}
	// OOM propagates.
	if _, err := cl.EstimatePennylaneSeconds(longUnitary(40), 4); err == nil {
		t.Fatal("pennylane OOM not propagated")
	}
}

func TestInvalidGPUCount(t *testing.T) {
	cl := Perlmutter()
	for _, bad := range []int{0, -1, 3, 100} {
		if _, err := cl.EstimateGPUSeconds(longUnitary(20), bad); err == nil {
			t.Fatalf("GPU count %d accepted", bad)
		}
	}
}

func TestSamplingDominatesLargeShotCounts(t *testing.T) {
	// §3's QCrank observation: GPU samples serially, the CPU node
	// samples on 128 cores, so at huge shot counts the CPU closes the
	// gap. Check the speedup shrinks as shots grow.
	cl := Perlmutter()
	smallShots := Workload{Qubits: 15, Gates: 5120, Precision: FP64, Shots: 3_000_000}
	bigShots := Workload{Qubits: 15, Gates: 98304, Precision: FP64, Shots: 98_000_000}
	cpuS, err := cl.EstimateCPUSeconds(smallShots)
	if err != nil {
		t.Fatal(err)
	}
	gpuS, err := cl.EstimateGPUSeconds(smallShots, 1)
	if err != nil {
		t.Fatal(err)
	}
	cpuB, err := cl.EstimateCPUSeconds(bigShots)
	if err != nil {
		t.Fatal(err)
	}
	gpuB, err := cl.EstimateGPUSeconds(bigShots, 1)
	if err != nil {
		t.Fatal(err)
	}
	if (cpuS / gpuS) <= (cpuB / gpuB) {
		t.Fatalf("speedup should shrink with shots: small %.1fx vs big %.1fx", cpuS/gpuS, cpuB/gpuB)
	}
}

func TestJitterIsModest(t *testing.T) {
	cl := Perlmutter()
	rng := qmath.NewRNG(1)
	var worst float64
	for i := 0; i < 2000; i++ {
		j := cl.Jitter(100, rng)
		dev := math.Abs(j-100) / 100
		if dev > worst {
			worst = dev
		}
	}
	if worst > 0.35 || worst < 0.02 {
		t.Fatalf("jitter spread %.2f implausible for a 5%% sigma", worst)
	}
}

func TestCalibrateRoundTrip(t *testing.T) {
	// A device whose effective bandwidth is a measured per-gate time's
	// traffic (2 · 2^n amplitudes per gate) over that time must estimate
	// the same time back.
	const qubits, secondsPerGate = 20, 0.001
	dev := DeviceSpec{Name: "local", MemGB: 64, EffBandwidthGBs: 2 * math.Exp2(qubits) * FP64.AmpBytes() / secondsPerGate / 1e9}
	cl := Perlmutter()
	cl.GPU = dev
	cl.FusionFactor = 1
	cl.GPU.PerGateOverheadUS = 0
	w := Workload{Qubits: 20, Gates: 1000, Precision: FP64}
	sec, err := cl.EstimateGPUSeconds(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sec-1.0) > 1e-9 {
		t.Fatalf("calibrated estimate %.6fs, want 1.0s", sec)
	}
}

func TestPrecisionBytes(t *testing.T) {
	if FP32.AmpBytes() != 8 || FP64.AmpBytes() != 16 {
		t.Fatal("amp widths wrong")
	}
	if FP32.String() != "fp32" || FP64.String() != "fp64" {
		t.Fatal("precision names wrong")
	}
	w := Workload{Qubits: 10, Precision: FP64}
	if w.MemoryBytes() != 1024*16 {
		t.Fatal("MemoryBytes wrong")
	}
}
