package service

import (
	"bufio"
	"math"
	"math/bits"
	"os"
	"strconv"
	"strings"

	"qgear/internal/backend"
	"qgear/internal/sampling"
	"qgear/internal/statevec"
)

// Memory admission control: a dense n-qubit statevector is 2^n
// complex128 amplitudes, and rejecting a too-large circuit after the
// allocation has already been attempted means the OOM killer decides
// the server's fate instead of the server. Submit therefore prices
// every circuit before any allocation and refuses, with ErrTooLarge,
// anything whose working set cannot fit the configured budget.
//
// The price is one run's, and a worker holds at most one run's state at
// a time: a batch runs its circuits one after another, and the jobs of
// one circuit share a single run. So WorkerPool runs' states are the
// most resident at once, whatever the target or MaxBatch.

// runOverheadBytes covers what a run allocates that scales with neither
// 2^n nor the shots: the result and its trace, tile and gather scratch,
// the rank mailboxes of a small distributed world, and the start of
// statevec's dispatch pool (about 1.6 KB) that the first multi-worker
// run of a process pays.
const runOverheadBytes = 256 << 10

// estimateStateBytes prices the peak resident working set of one
// n-qubit simulation sampled with shots under the server's target: the
// amplitude vector (16 bytes each; recycled between runs, resident
// either way), the probability readout (8 bytes each; the distributed
// ranks write theirs straight into it), on the distributed target the
// exchange buffers (one more amplitude vector across all ranks), each
// state's phase-table scratch (a rank shard each on mgpu), and the
// sampler's working set — per simulated QPU on mqpu, which samples its
// shares concurrently.
func (s *Server) estimateStateBytes(n, shots int) int64 {
	if n < 0 {
		return 0
	}
	if n > 50 {
		// These terms overflow int64 from 2^57 amplitudes on; anything
		// this wide exceeds every realistic budget anyway.
		return math.MaxInt64
	}
	b := int64(24)<<uint(n) + runOverheadBytes
	states, local := 1, n // the states a run holds, and their qubits
	if s.cfg.Target == backend.TargetNvidiaMGPU {
		b += int64(16) << uint(n)
		states = max(1, s.cfg.Devices)
		local = n - bits.Len(uint(states)) + 1
	}
	b += int64(states) * statevec.MaxTableBytes(local)
	samplers := 1
	if d := s.cfg.Devices; s.cfg.Target == backend.TargetNvidiaMQPU && d > 1 && shots >= d {
		samplers = d
	}
	workers := s.execOptions().SampleWorkers()
	return b + int64(samplers)*sampling.PeakBytes(1<<uint(n), (shots+samplers-1)/samplers, workers)
}

// defaultMaxStateBytes derives the default admission budget: half the
// machine's currently available RAM, so one admitted worst-case job —
// one state on its worker — leaves headroom for the caches, the queue,
// and a second worker. When
// availability cannot be determined (non-Linux, hardened /proc), a
// conservative 4 GiB applies.
func defaultMaxStateBytes() int64 {
	const fallback = 4 << 30
	if avail := memAvailableBytes("/proc/meminfo"); avail > 0 {
		return avail / 2
	}
	return fallback
}

// memAvailableBytes parses MemAvailable out of a /proc/meminfo-format
// file; 0 when absent or unreadable.
func memAvailableBytes(path string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "MemAvailable:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || kb <= 0 {
			return 0
		}
		return kb << 10
	}
	return 0
}
