// bench_test.go holds one testing.B benchmark per paper artifact
// (tables and figures) plus ablation benches of single mechanisms.
// Figure benches exercise the same code paths as the `qgear paper`
// runner at sizes that finish quickly; `-benchtime` lengthens them.
// Paper-scale numbers come from `qgear paper <id>`.
package qgear_test

import (
	"fmt"
	"testing"

	"qgear"
	"qgear/internal/backend"
	"qgear/internal/circuit"
	"qgear/internal/cluster"
	"qgear/internal/gate"
	"qgear/internal/qcrank"
	"qgear/internal/qft"
	"qgear/internal/qimage"
	"qgear/internal/qmath"
	"qgear/internal/randcirc"
	"qgear/internal/sampling"
	"qgear/internal/statevec"
	"qgear/internal/tensorenc"
)

// benchCircuit caches one random workload per size.
func benchCircuit(b *testing.B, qubits, blocks int) *circuit.Circuit {
	b.Helper()
	c, err := randcirc.Generate(randcirc.Spec{Qubits: qubits, Blocks: blocks, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func runTarget(b *testing.B, c *circuit.Circuit, cfg backend.Config) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Run(c, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 1: the conceptual CPU/GPU gap (model evaluation) ---

func BenchmarkFig1GapModel(b *testing.B) {
	model := cluster.Perlmutter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for n := 20; n <= 34; n++ {
			if _, err := model.EstimateCPUSeconds(cluster.Workload{Qubits: n, Gates: 3000, Precision: cluster.FP64}); err != nil && n < 34 {
				b.Fatal(err)
			}
			if _, err := model.EstimateGPUSeconds(cluster.Workload{Qubits: n, Gates: 3000, Precision: cluster.FP32}, 4); err != nil && n < 34 {
				b.Fatal(err)
			}
		}
	}
}

// --- Fig. 4a: random unitaries on the three engine paths ---

func BenchmarkFig4aShortCPUSerial(b *testing.B) {
	runTarget(b, benchCircuit(b, 16, randcirc.ShortBlocks), backend.Config{Target: backend.TargetAer, Workers: 1})
}

func BenchmarkFig4aShortGPUParallel(b *testing.B) {
	runTarget(b, benchCircuit(b, 16, randcirc.ShortBlocks), backend.Config{Target: backend.TargetNvidia})
}

func BenchmarkFig4aShort4DevMGPU(b *testing.B) {
	runTarget(b, benchCircuit(b, 16, randcirc.ShortBlocks), backend.Config{Target: backend.TargetNvidiaMGPU, Devices: 4})
}

func BenchmarkFig4aLongCPUSerial(b *testing.B) {
	runTarget(b, benchCircuit(b, 14, 1000), backend.Config{Target: backend.TargetAer, Workers: 1})
}

func BenchmarkFig4aLongGPUParallel(b *testing.B) {
	runTarget(b, benchCircuit(b, 14, 1000), backend.Config{Target: backend.TargetNvidia})
}

// --- Fig. 4b: the cluster-scaling model over the full sweep ---

func BenchmarkFig4bClusterModel(b *testing.B) {
	model := cluster.Perlmutter().WithGPU(cluster.A100HBM80)
	gates := randcirc.IntermediateBlocks * randcirc.GatesPerBlock
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for n := 30; n <= 42; n++ {
			for _, g := range []int{4, 16, 64, 256, 1024} {
				_, _ = model.EstimateGPUSeconds(cluster.Workload{Qubits: n, Gates: gates, Precision: cluster.FP32}, g)
			}
		}
	}
}

// --- Fig. 4c: QFT on Q-GEAR vs the Pennylane-like baseline ---

func benchQFT(b *testing.B, n int) *circuit.Circuit {
	b.Helper()
	c, err := qft.Circuit(n, true)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkFig4cQFTQGear(b *testing.B) {
	runTarget(b, benchQFT(b, 16), backend.Config{Target: backend.TargetNvidia})
}

func BenchmarkFig4cQFTPennylane(b *testing.B) {
	runTarget(b, benchQFT(b, 16), backend.Config{Target: backend.TargetPennylane})
}

// --- Fig. 5: QCrank image encoding, CPU vs GPU paths ---

func benchQCrank(b *testing.B, pixels, addr, shotsPerAddr int) (*circuit.Circuit, qcrank.Plan) {
	b.Helper()
	img, err := qimage.Synthetic("zebra", pixels/20, 20, 3)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := qcrank.NewPlan(img.Pixels(), addr, shotsPerAddr)
	if err != nil {
		b.Fatal(err)
	}
	c, err := qcrank.Encode(img.Pix, plan, true)
	if err != nil {
		b.Fatal(err)
	}
	return c, plan
}

func BenchmarkFig5QCrankCPUSerial(b *testing.B) {
	c, plan := benchQCrank(b, 640, 6, 100)
	runTarget(b, c, backend.Config{Target: backend.TargetAer, Workers: 1, Shots: plan.Shots})
}

func BenchmarkFig5QCrankGPUParallel(b *testing.B) {
	c, plan := benchQCrank(b, 640, 6, 100)
	runTarget(b, c, backend.Config{Target: backend.TargetNvidia, Shots: plan.Shots})
}

// --- Fig. 6: full reconstruction round trip ---

func BenchmarkFig6Reconstruction(b *testing.B) {
	c, plan := benchQCrank(b, 640, 6, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := backend.Run(c, backend.Config{Target: backend.TargetNvidia, Shots: plan.Shots, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := qcrank.DecodeCounts(res.Counts, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1 / Table 2: configuration derivations ---

func BenchmarkTable2Plans(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := qcrank.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Appendix C: constant-time tensor encoding + compressed save ---

func BenchmarkAppendixCEncode(b *testing.B) {
	circs, err := randcirc.GenerateList(10, 100, 20, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensorenc.Encode(circs, 600); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendixCSaveCompressed(b *testing.B) {
	circs, err := randcirc.GenerateList(10, 100, 20, 5)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := tensorenc.Encode(circs, 600)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.SaveFile(fmt.Sprintf("%s/e%d.qgt", dir, i%4)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Theorem B.3: per-gate scaling and parallel speedup ---

func BenchmarkTheoremB3SerialGate(b *testing.B) {
	for _, n := range []int{14, 16, 18} {
		b.Run(fmt.Sprintf("qubits=%d", n), func(b *testing.B) {
			s := statevec.MustNew(n, 1)
			m := benchMat()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ApplyMat1(i%n, m)
			}
		})
	}
}

func BenchmarkTheoremB3ParallelGate(b *testing.B) {
	for _, w := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			s, err := statevec.New(20, w)
			if err != nil {
				b.Fatal(err)
			}
			m := benchMat()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ApplyMat1(i%20, m)
			}
		})
	}
}

// benchMat returns an arbitrary dense single-qubit unitary.
func benchMat() gate.Mat2 { return gate.Matrix1(gate.RY, []float64{0.7}) }

// --- §3 mqpu: batch throughput across simulated QPUs ---

func BenchmarkMqpuSequential(b *testing.B) {
	batch := mqpuBatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.RunBatch(batch, backend.Config{Target: backend.TargetNvidia, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMqpu4Devices(b *testing.B) {
	batch := mqpuBatch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.RunBatch(batch, backend.Config{Target: backend.TargetNvidiaMQPU, Devices: 4, Workers: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func mqpuBatch(b *testing.B) []*circuit.Circuit {
	b.Helper()
	batch := make([]*circuit.Circuit, 8)
	for i := range batch {
		c, err := randcirc.Generate(randcirc.Spec{Qubits: 14, Blocks: 40, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		batch[i] = c
	}
	return batch
}

// --- Ablations (DESIGN.md §3) ---

// Pruning thresholds on the QFT's long tail of tiny cr1 angles.
func BenchmarkAblationPruneQFT(b *testing.B) {
	c := benchQFT(b, 16)
	for _, p := range []float64{0, 1e-6, 1e-3, 1e-2} {
		b.Run(fmt.Sprintf("prune=%g", p), func(b *testing.B) {
			runTarget(b, c, backend.Config{Target: backend.TargetNvidia, PruneAngle: p})
		})
	}
}

// Worker-count sweep for the sharded engine.
func BenchmarkAblationWorkers(b *testing.B) {
	c := benchCircuit(b, 18, 100)
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			runTarget(b, c, backend.Config{Target: backend.TargetNvidia, Workers: w})
		})
	}
}

// Device-count sweep for the distributed engine: more ranks = more
// exchange traffic on the same circuit (the Fig. 4b cost driver).
func BenchmarkAblationMGPUDevices(b *testing.B) {
	c := benchCircuit(b, 16, 100)
	for _, d := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("devices=%d", d), func(b *testing.B) {
			runTarget(b, c, backend.Config{Target: backend.TargetNvidiaMGPU, Devices: d})
		})
	}
}

// Sampler choice at the two shapes the benchmark workloads sample:
// qft_exec's (2^21 outcomes, 4096 shots — Sample takes the cumulative
// path) and qcrank_mgpu's (2^15 outcomes, 1 536 000 shots — the alias
// path, also split over two workers as backend.Run draws it on two
// ranks), plus one alias shape whose 64 MiB table is DRAM-resident, as
// at the paper's QCrank scale, where a draw's one-entry column read
// shows, serial and offered two and four workers (SampleParallel takes
// at most two chunks there: four shots per outcome). MB/s is the
// probability vector consumed per second.
func BenchmarkAblationSamplers(b *testing.B) {
	for _, shape := range []struct {
		name            string
		outcomes, shots int
		aliasOnly       bool  // 2^24 sorted draws would dwarf the alias run
		split           []int // an alias_w<N> row per worker count N
	}{
		{"qft_2p21_x4096", 1 << 21, 4096, false, nil},
		{"qcrank_2p15_x1536000", 1 << 15, 1536000, false, []int{2}},
		{"dram_2p22_x2p24", 1 << 22, 1 << 24, true, []int{2, 4}},
	} {
		probs := make([]float64, shape.outcomes)
		r := qmath.NewRNG(2)
		for i := range probs {
			probs[i] = r.Float64()
		}
		type sampler struct {
			name   string
			sample func([]float64, int, *qmath.RNG) (sampling.Counts, error)
		}
		samplers := []sampler{{"alias", sampling.SampleAlias}}
		for _, w := range shape.split {
			w := w
			samplers = append(samplers, sampler{fmt.Sprintf("alias_w%d", w), func(probs []float64, shots int, rng *qmath.RNG) (sampling.Counts, error) {
				return sampling.SampleParallel(probs, shots, w, rng)
			}})
		}
		if !shape.aliasOnly {
			samplers = append(samplers, sampler{"cumulative", sampling.SampleCumulative})
		}
		for _, s := range samplers {
			b.Run(shape.name+"/"+s.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(8 * shape.outcomes))
				for i := 0; i < b.N; i++ {
					if _, err := s.sample(probs, shape.shots, qmath.NewRNG(uint64(i))); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Transformation throughput: §2.1's constant-time-per-gate conversion.
func BenchmarkTransformPerGate(b *testing.B) {
	c := benchCircuit(b, 20, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := qgear.Transform(c, qgear.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(c.Ops))/b.Elapsed().Seconds(), "gates/s")
}
