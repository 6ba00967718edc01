package qgear_test

import (
	"context"
	"fmt"

	"qgear"
)

// Build the paper's Fig. 2b GHZ circuit with the object-based
// (Qiskit-like) API, transform it into a kernel with Q-GEAR, and run it
// on the GPU-class target — then check the two famous amplitudes.
func Example_quickstart() {
	const n = 16

	// Object-based circuit (the paper's ghz_obj listing).
	c := qgear.GHZ(n, false)

	// Q-GEAR transformation: gate-by-gate, one instruction per gate.
	kern, stats, err := qgear.Transform(c, qgear.RunOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("transformed %d ops into %d kernel instructions\n",
		stats.SourceOps, stats.EmittedOps)
	fmt.Printf("kernel: %s over %d qubits\n", kern.Name, kern.NumQubits)

	// Execute on the parallel engine ("nvidia" target) with sampling.
	res, err := qgear.Run(c, qgear.RunOptions{
		Target: qgear.TargetNvidia,
		Shots:  10000,
		Seed:   7,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ran on %s\n", res.Target)
	fmt.Printf("P(|0...0>) = %.4f   P(|1...1>) = %.4f\n",
		res.Probabilities[0], res.Probabilities[1<<n-1])
	fmt.Printf("sampled %d shots: %d zeros-string, %d ones-string\n",
		res.Counts.Total(), res.Counts[0], res.Counts[1<<n-1])
	// Output:
	// transformed 16 ops into 16 kernel instructions
	// kernel: ghz_16q_kernel over 16 qubits
	// ran on nvidia
	// P(|0...0>) = 0.5000   P(|1...1>) = 0.5000
	// sampled 10000 shots: 4980 zeros-string, 5020 ones-string
}

// Expectation values as a first-class job kind. A transverse-field
// Ising Hamiltonian is evaluated exactly on the final state of a QFT
// circuit — the compiled plan executes once and every Pauli term sweeps
// the resident statevector — first through the one-shot API on several
// engines (all bit-identical), then through the embedded server, where
// a repeat submission of the same (circuit, Hamiltonian) pair is a
// content-addressed cache hit and a second observable on the same
// circuit reuses the cached compiled plan.
func Example_observableEstimation() {
	const n = 16
	qft, err := qgear.QFT(n, true)
	if err != nil {
		panic(err)
	}
	tfim := qgear.TransverseFieldIsing(n, 1.0, 0.7)
	fmt.Printf("H = TFIM(J=1, g=0.7) on QFT-%d: %d terms, hash %.12s…\n", n, len(tfim.Terms), tfim.Fingerprint())

	// One execution, N term sweeps — on every engine. The values are
	// bit-identical across per-gate, tiled, and distributed execution.
	for _, opts := range []qgear.RunOptions{
		{Target: qgear.TargetAer},                    // serial per-gate baseline
		{Target: qgear.TargetNvidia},                 // cache-blocked tiled executor
		{Target: qgear.TargetNvidiaMGPU, Devices: 4}, // pooled-memory ranks, one reduction
		{Target: qgear.TargetNvidiaMQPU, Devices: 4}, // term-partitioned parallel evaluation
	} {
		res, err := qgear.RunExpectation(qft, tfim, opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-12s ⟨H⟩ = %+.15f   (%d terms)\n", opts.Target, *res.ExpValue, res.ExpTerms)
	}

	// Through the service: expectation jobs are cached by
	// (circuit fingerprint, hamiltonian hash, options signature).
	srv, err := qgear.NewServer(qgear.ServerConfig{WorkerPool: 2})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	ctx := context.Background()

	res1, _, err := srv.Run(ctx, qft, qgear.SubmitOptions{Hamiltonian: tfim})
	if err != nil {
		panic(err)
	}
	_, info2, err := srv.Run(ctx, qft, qgear.SubmitOptions{Hamiltonian: tfim})
	if err != nil {
		panic(err)
	}
	// A different observable on the same circuit: the result cache
	// misses, but the compiled-plan cache answers the compile.
	zz := qgear.TransverseFieldIsing(n, 1.0, 0) // pure ZZ chain
	res3, _, err := srv.Run(ctx, qft, qgear.SubmitOptions{Hamiltonian: zz})
	if err != nil {
		panic(err)
	}
	fmt.Printf("server: ⟨TFIM⟩ = %+.15f (repeat cached: %v), ⟨ZZ⟩ = %+.15f\n",
		*res1.ExpValue, info2.Cached, *res3.ExpValue)
	// Output:
	// H = TFIM(J=1, g=0.7) on QFT-16: 31 terms, hash 9a62ecb3c065…
	//   aer          ⟨H⟩ = -11.199999999999996   (31 terms)
	//   nvidia       ⟨H⟩ = -11.199999999999996   (31 terms)
	//   nvidia-mgpu  ⟨H⟩ = -11.199999999999996   (31 terms)
	//   nvidia-mqpu  ⟨H⟩ = -11.199999999999996   (31 terms)
	// server: ⟨TFIM⟩ = -11.199999999999996 (repeat cached: true), ⟨ZZ⟩ = +0.000000000000003
}

// Run the simulation service in-process — the same server `qgear serve`
// exposes over HTTP — and watch the content-addressed cache answer a
// repeated workload.
func Example_serveEmbedded() {
	// A 4-device mqpu server: queued jobs are coalesced into one
	// device-parallel backend.RunBatch call per batch.
	srv, err := qgear.NewServer(qgear.ServerConfig{
		Devices:    4,
		WorkerPool: 2,
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	ctx := context.Background()

	// A workload of 8 distinct circuits, submitted twice each.
	var circuits []*qgear.Circuit
	for i := 0; i < 8; i++ {
		c, err := qgear.RandomUnitary(qgear.RandomUnitarySpec{
			Qubits: 12, Blocks: 30, Seed: uint64(1000 + i),
		})
		if err != nil {
			panic(err)
		}
		circuits = append(circuits, c)
	}

	for round := 1; round <= 2; round++ {
		// Submit the whole round asynchronously so the server can
		// coalesce the burst, then wait for each job.
		var infos []qgear.JobInfo
		for _, c := range circuits {
			info, err := srv.Submit(c, qgear.SubmitOptions{Shots: 500, Seed: 7})
			if err != nil {
				panic(err)
			}
			infos = append(infos, info)
		}
		for _, info := range infos {
			fin, err := srv.Wait(ctx, info.ID)
			if err != nil {
				panic(err)
			}
			res, err := srv.Result(fin.ID)
			if err != nil {
				panic(err)
			}
			fmt.Printf("round %d job %s: %s cached=%-5v shots=%d distinct-outcomes=%d\n",
				round, fin.ID, fin.State, fin.Cached, res.Counts.Total(), len(res.Counts))
		}
	}

	// Content addressing directly: identical circuits share a key.
	a, b := qgear.GHZ(16, false), qgear.GHZ(16, false)
	fmt.Printf("GHZ-16 fingerprint: %s (stable: %v)\n",
		qgear.Fingerprint(a)[:16]+"...", qgear.Fingerprint(a) == qgear.Fingerprint(b))
	// Output:
	// round 1 job j-00000001: done cached=false shots=500 distinct-outcomes=406
	// round 1 job j-00000002: done cached=false shots=500 distinct-outcomes=304
	// round 1 job j-00000003: done cached=false shots=500 distinct-outcomes=387
	// round 1 job j-00000004: done cached=false shots=500 distinct-outcomes=365
	// round 1 job j-00000005: done cached=false shots=500 distinct-outcomes=378
	// round 1 job j-00000006: done cached=false shots=500 distinct-outcomes=327
	// round 1 job j-00000007: done cached=false shots=500 distinct-outcomes=419
	// round 1 job j-00000008: done cached=false shots=500 distinct-outcomes=413
	// round 2 job j-00000009: done cached=true  shots=500 distinct-outcomes=406
	// round 2 job j-00000010: done cached=true  shots=500 distinct-outcomes=304
	// round 2 job j-00000011: done cached=true  shots=500 distinct-outcomes=387
	// round 2 job j-00000012: done cached=true  shots=500 distinct-outcomes=365
	// round 2 job j-00000013: done cached=true  shots=500 distinct-outcomes=378
	// round 2 job j-00000014: done cached=true  shots=500 distinct-outcomes=327
	// round 2 job j-00000015: done cached=true  shots=500 distinct-outcomes=419
	// round 2 job j-00000016: done cached=true  shots=500 distinct-outcomes=413
	// GHZ-16 fingerprint: ad10a42ce6f886e2... (stable: true)
}
