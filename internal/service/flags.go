package service

import "flag"

// RegisterExecFlags defines the execution-flag block on fs, writing into
// cfg: the four options that decide what a job computes and where its
// artifacts persist. Every command that starts a Server (qgear serve,
// and qgear run / expect / sweep as in-process clients) registers them
// here, so one spelling, one default and one help text exist for each.
func RegisterExecFlags(fs *flag.FlagSet, cfg *Config) {
	fs.StringVar((*string)(&cfg.Target), "target", "", "execution target: aer | nvidia | nvidia-mgpu | nvidia-mqpu | pennylane (default nvidia; nvidia-mqpu when -devices > 1)")
	fs.IntVar(&cfg.Devices, "devices", 1, "simulated device count for nvidia-mgpu (pooled memory) / nvidia-mqpu (circuit-, shot- and point-parallel)")
	fs.IntVar(&cfg.TileBits, "tile", 0, "tiled-executor tile width in qubits (0 = auto from cache geometry, negative = per-gate sweeps on single-process targets; rejected on nvidia-mgpu)")
	fs.StringVar(&cfg.StoreDir, "store-dir", "", "persistent artifact store directory: job results spill there (compiled plans do not), and a later process on the same directory answers repeat content addresses from disk, bit-identically, without re-simulating (empty = no persistence)")
}
