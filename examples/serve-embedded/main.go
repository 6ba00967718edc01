// Serve-embedded: run the Q-GEAR simulation service in-process — the
// same server qgear-serve exposes over HTTP — and watch the
// content-addressed cache, single-flight deduplication, and batch
// coalescing absorb a repeated workload.
package main

import (
	"context"
	"fmt"
	"log"

	"qgear"
)

func main() {
	// A 4-device mqpu server: queued jobs are coalesced into one
	// device-parallel backend.RunBatch call per batch.
	srv, err := qgear.NewServer(qgear.ServerConfig{
		Devices:      4,
		FusionWindow: 2,
		WorkerPool:   2,
	})
	if err != nil {
		log.Fatal(err)
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
			log.Fatal(err)
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
				log.Fatal(err)
			}
			infos = append(infos, info)
		}
		for _, info := range infos {
			fin, err := srv.Wait(ctx, info.ID)
			if err != nil {
				log.Fatal(err)
			}
			res, err := srv.Result(fin.ID)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("round %d job %s: %s cached=%-5v shots=%d distinct-outcomes=%d\n",
				round, fin.ID, fin.State, fin.Cached, res.Counts.Total(), len(res.Counts))
		}
	}

	st := srv.Stats()
	fmt.Printf("\nserver stats: submitted=%d executed=%d cache-hits=%d single-flight=%d hit-rate=%.0f%%\n",
		st.Submitted, st.Executed, st.CacheHits, st.SingleFlightHits, st.HitRate*100)
	fmt.Printf("batching: %d batches for %d jobs (mean %.1f jobs/run)\n",
		st.Batches, st.BatchedJobs, st.MeanBatchLen)
	fmt.Printf("cache: %d/%d entries\n", st.CacheLen, st.CacheCapacity)

	// Content addressing directly: identical circuits share a key.
	a, b := qgear.GHZ(16, false), qgear.GHZ(16, false)
	fmt.Printf("\nGHZ-16 fingerprint: %s (stable: %v)\n",
		qgear.Fingerprint(a)[:16]+"...", qgear.Fingerprint(a) == qgear.Fingerprint(b))
}
