package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"qgear/internal/kernel"
)

// maxW caps the worker count the benchmark sizes itself with.
const maxW = 4

// hostInfo stamps every output with the machine that produced it.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	W          int    `json:"w"`
	CPUModel   string `json:"cpu_model"`
	// TileBits, TileSource and CacheBytes are kernel.TileBitsOrigin: the
	// tile width every plan in this run was compiled with and the cache
	// capacity it was derived from.
	TileBits   int    `json:"tile_bits"`
	TileSource string `json:"tile_source"`
	CacheBytes int64  `json:"cache_bytes"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	TmpFS      string `json:"tmp_fs"`
	Seed       uint64 `json:"seed"`
}

// workers is W = min(nproc, 4), the only host-derived quantity the
// workloads are sized with.
func workers() int {
	if n := runtime.NumCPU(); n < maxW {
		return n
	}
	return maxW
}

func readHost(seed uint64, tmpDir string) hostInfo {
	bits, src, cache := kernel.TileBitsOrigin()
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		W:          workers(),
		CPUModel:   cpuModel(),
		TileBits:   bits,
		TileSource: src,
		CacheBytes: cache,
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		TmpFS:      fsType(tmpDir),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit asks git for HEAD; a checkout that is not a git repository
// (or a host without git) reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// peakRSSMiB is VmHWM of this process.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// triadGBps is a STREAM-style triad (a[i] = b[i] + s*c[i]) over three
// float64 buffers of stateBytes each, split across w goroutines; the
// best of reps passes, counting 24 bytes per element (two reads and
// one write, write-allocate traffic not counted). The buffers are the
// size of the workload's state, not a multiple of the last-level
// cache, so on a host whose L3 holds them this is a state-sized
// figure, not the sustainable DRAM bandwidth.
func triadGBps(stateBytes int64, w, reps int) float64 {
	n := int(stateBytes / 8)
	if n < 1 || w < 1 {
		return 0
	}
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i&7), 1
	}
	best := time.Duration(0)
	for r := 0; r <= reps; r++ { // pass 0 faults the pages in and is not timed
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			lo, hi := g*n/w, (g+1)*n/w
			wg.Add(1)
			go func(a, b, c []float64) {
				defer wg.Done()
				for i := range a {
					a[i] = b[i] + 3*c[i]
				}
			}(a[lo:hi], b[lo:hi], c[lo:hi])
		}
		wg.Wait()
		if d := time.Since(start); r > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	if best <= 0 {
		return 0
	}
	return 24 * float64(n) / best.Seconds() / 1e9
}
