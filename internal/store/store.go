package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qgear/internal/backend"
	"qgear/internal/faultfs"
	"qgear/internal/hdf5"
	"qgear/internal/kernel"
	"qgear/internal/sampling"
)

// FormatVersion tags the on-disk artifact layout; it bumps if the
// result or plan encoding ever changes so stale spill directories are
// rejected instead of misread.
const FormatVersion = 1

const (
	resultsSubdir = "results"
	plansSubdir   = "plans"
	resultExt     = ".h5"
	planExt       = ".plan"
)

var planMagic = []byte("QGPLN1\n")

// staleTempAge is how old a .tmp file must be before the boot-time
// scan treats it as a crashed writer's orphan and reaps it.
const staleTempAge = time.Hour

// tmpNameRE matches exactly the writer's temp-file suffix,
// "<name>.tmp<pid>-<seq>". The boot scan must not skip anything
// looser: '.' is a legal key byte, so an artifact whose stem merely
// contains ".tmp" is a real artifact, not a temp file.
var tmpNameRE = regexp.MustCompile(`\.tmp\d+-\d+$`)

func isTempName(name string) bool { return tmpNameRE.MatchString(name) }

// ErrIntegrity marks load failures where the artifact itself is bad —
// corrupt bytes, checksum mismatch, wrong recorded key or config
// signature, unsupported format. Callers quarantine (delete) the file
// only for these; any other load error (a transient I/O failure) must
// leave the artifact on disk for the next attempt.
var ErrIntegrity = errors.New("store: artifact failed integrity check")

// integrityErr builds an ErrIntegrity-classed failure.
func integrityErr(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrIntegrity)...)
}

// kind distinguishes the two artifact families sharing the store.
type kind uint8

const (
	kindResult kind = 1
	kindPlan   kind = 2
)

func (k kind) subdir() string {
	if k == kindPlan {
		return plansSubdir
	}
	return resultsSubdir
}

func (k kind) ext() string {
	if k == kindPlan {
		return planExt
	}
	return resultExt
}

// entry is one indexed on-disk artifact. cost and prio mirror the
// Greedy-Dual-Size accounting of Cache: prio = clock + cost/size at
// last touch, and the store-level GC evicts lowest-prio first.
type entry struct {
	stem string
	size int64
	cost float64
	prio float64
	seq  uint64
}

// Store is the on-disk artifact store: simulation results as HDF5-lite
// files keyed by their core.CacheKey content address, compiled plans
// as compact binary sidecars, both sharded into 256 two-hex-char
// subdirectories so the tree stays listable at millions of entries.
// Open replays the manifest journal when one is present (O(one file
// read)) and falls back to a full directory scan when it is missing or
// corrupt. Loads verify
// checksums and the recorded key/config signature before anything is
// trusted. Store is safe for concurrent use.
type Store struct {
	dir string
	// fsys is the filesystem every disk operation goes through —
	// faultfs.OS in production, a fault injector in the chaos harness.
	fsys faultfs.FS
	// maxBytes, when > 0, bounds the on-disk footprint; saves evict
	// lowest-priority artifacts (or are refused) to stay under it.
	maxBytes int64
	// tmpSeq disambiguates concurrent temp-file writers of one key.
	tmpSeq atomic.Uint64

	man *manifest

	mu      sync.Mutex
	results map[string]*entry // stem -> entry
	plans   map[string]*entry
	bytes   int64 // total size of indexed artifacts
	// reserved is bytes claimed by in-flight saves that have evicted
	// their way under budget but not yet landed on disk.
	reserved int64
	clock    float64 // Greedy-Dual aging clock (see cache.go)
	seq      uint64
	// doomed holds evicted entries whose file delete has not yet
	// succeeded; their bytes still count against the budget so a
	// failing delete can never let the disk footprint overshoot.
	doomed         map[string]victim
	doomedBytes    int64
	gcEvictions    uint64
	gcEvictedBytes int64
	gcRejected     uint64
	bootScanned    bool // Open fell back to the full directory scan
}

// Stats is a point-in-time view of the store's contents.
type Stats struct {
	Dir           string `json:"dir"`
	ResultEntries int    `json:"result_entries"`
	PlanEntries   int    `json:"plan_entries"`
	Bytes         int64  `json:"bytes"`
	// MaxBytes is the on-disk budget (0 = unbounded).
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// GCEvictions / GCEvictedBytes count artifacts removed from disk by
	// the budget enforcer; GCRejected counts saves refused because the
	// artifact could not fit (or eviction could not make room).
	GCEvictions    uint64 `json:"gc_evictions,omitempty"`
	GCEvictedBytes int64  `json:"gc_evicted_bytes,omitempty"`
	GCRejected     uint64 `json:"gc_rejected,omitempty"`
	// ManifestRecords is the journal's current record count;
	// ManifestCompactions counts rewrites. BootScanned reports whether
	// the last Open had to fall back to the full directory scan.
	ManifestRecords     uint64 `json:"manifest_records"`
	ManifestCompactions uint64 `json:"manifest_compactions,omitempty"`
	BootScanned         bool   `json:"boot_scanned"`
}

// Options configures OpenOptions beyond the directory.
type Options struct {
	// FS is the filesystem seam; nil selects the real filesystem.
	FS faultfs.FS
	// MaxBytes, when > 0, bounds the store's on-disk footprint with
	// Greedy-Dual-Size eviction.
	MaxBytes int64
}

// Open creates (if needed) and indexes the store rooted at dir, on the
// real filesystem, with no byte bound.
func Open(dir string) (*Store, error) {
	return OpenOptions(dir, Options{})
}

// OpenFS is Open against an explicit filesystem — the seam the chaos
// harness uses to inject deterministic disk faults under the store. A
// nil fsys selects the real filesystem.
func OpenFS(dir string, fsys faultfs.FS) (*Store, error) {
	return OpenOptions(dir, Options{FS: fsys})
}

// OpenOptions creates (if needed) and indexes the store rooted at dir.
// When a manifest journal is present and sound, the index comes from
// replaying it — one file read, no directory walk; otherwise the
// artifact tree is scanned and a fresh manifest written from the scan.
func OpenOptions(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	st := &Store{
		dir:      dir,
		fsys:     fsys,
		maxBytes: opts.MaxBytes,
		results:  make(map[string]*entry),
		plans:    make(map[string]*entry),
		doomed:   make(map[string]victim),
	}
	st.man = &manifest{path: filepath.Join(dir, manifestName), fsys: fsys}
	for _, sub := range []string{resultsSubdir, plansSubdir} {
		if err := st.fsys.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if err := st.load(); err != nil {
		return nil, err
	}
	// The budget may be new (or smaller) this run: enforce it now.
	st.runGC()
	return st, nil
}

// load builds the index: manifest replay when possible, full scan
// (with self-healing manifest rewrite) otherwise.
func (st *Store) load() error {
	raw, err := st.fsys.ReadFile(st.man.path)
	if err == nil {
		if recs, torn, perr := parseManifest(raw); perr == nil {
			for _, r := range recs {
				st.applyRecord(r)
			}
			st.man.records = uint64(len(recs))
			if torn {
				// A crash tore the final append; the valid prefix is the
				// index, rewrite the journal whole so it parses clean.
				st.compactManifest()
			}
			return nil
		}
		// Mid-file corruption: distrust the whole journal and rebuild
		// from what is actually on disk.
	}
	st.bootScanned = true
	if err := st.scanKind(kindResult, st.results); err != nil {
		return err
	}
	if err := st.scanKind(kindPlan, st.plans); err != nil {
		return err
	}
	st.compactManifest()
	return nil
}

// applyRecord replays one manifest record into the index (boot only;
// no locking needed).
func (st *Store) applyRecord(r manRecord) {
	var index map[string]*entry
	switch r.kind {
	case kindResult:
		index = st.results
	case kindPlan:
		index = st.plans
	default:
		return
	}
	switch r.op {
	case manAdd:
		if old, ok := index[r.stem]; ok {
			st.bytes -= old.size
		}
		st.seq++
		index[r.stem] = &entry{
			stem: r.stem,
			size: r.size,
			cost: r.cost,
			prio: r.cost / float64(max(r.size, int64(1))),
			seq:  st.seq,
		}
		st.bytes += r.size
	case manDrop:
		if old, ok := index[r.stem]; ok {
			st.bytes -= old.size
			delete(index, r.stem)
		}
	}
}

// isShardDir reports whether a directory name is one of the 256
// two-hex-char shard buckets.
func isShardDir(name string) bool {
	if len(name) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		c := name[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// scanKind walks one artifact family's shard buckets. Anything else
// under the family root is not the store's and is left alone.
func (st *Store) scanKind(k kind, index map[string]*entry) error {
	entries, err := st.fsys.ReadDir(filepath.Join(st.dir, k.subdir()))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && isShardDir(e.Name()) {
			if err := st.scanShard(k, e.Name(), index); err != nil {
				return err
			}
		}
	}
	return nil
}

func (st *Store) scanShard(k kind, shard string, index map[string]*entry) error {
	dir := filepath.Join(st.dir, k.subdir(), shard)
	entries, err := st.fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if isTempName(name) {
			st.reapStaleTemp(dir, e)
			continue
		}
		if !strings.HasSuffix(name, k.ext()) {
			continue
		}
		// A stem outside encodeKey's image was not written by the store
		// and no key can ever resolve to it: not ours, left alone.
		stem := strings.TrimSuffix(name, k.ext())
		if !isKeyStem(stem) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced with deletion; skip
		}
		st.addScanned(index, stem, info.Size())
	}
	return nil
}

// addScanned indexes a scanned artifact at a neutral cost (its size,
// i.e. cost-per-byte 1); the real recompute cost is refreshed from the
// artifact's own metadata on its first successful load.
func (st *Store) addScanned(index map[string]*entry, stem string, size int64) {
	if old, ok := index[stem]; ok {
		st.bytes -= old.size
	}
	st.seq++
	index[stem] = &entry{
		stem: stem,
		size: size,
		cost: float64(size),
		prio: 1,
		seq:  st.seq,
	}
	st.bytes += size
}

// reapStaleTemp removes a temp file only if it is old enough to be a
// crashed writer's orphan — a live writer (a CLI sharing the store
// with a booting server) may be mid-write.
func (st *Store) reapStaleTemp(dir string, e os.DirEntry) {
	if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > staleTempAge {
		st.fsys.Remove(filepath.Join(dir, e.Name()))
	}
}

// writeAtomic lands data at path durably: a uniquely named temp file
// in the same directory, fsync of the temp file, rename over the
// final name, fsync of the parent directory. Concurrent writers of
// one key can never interleave into a corrupt artifact (last rename
// wins, each rename installs a complete file), and a crash after
// writeAtomic returns can never resurrect a zero-length or torn
// artifact — the payload was durable before the rename, and the
// rename itself before we report success.
func (st *Store) writeAtomic(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.tmp%d-%d", path, os.Getpid(), st.tmpSeq.Add(1))
	if err := st.fsys.WriteFile(tmp, data, 0o644); err != nil {
		st.fsys.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := st.fsys.Sync(tmp); err != nil {
		st.fsys.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := st.fsys.Rename(tmp, path); err != nil {
		st.fsys.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := st.fsys.Sync(filepath.Dir(path)); err != nil {
		// The rename is not yet durable; report failure so the caller
		// never indexes it. The complete file stays behind harmlessly —
		// a future scan-boot will index it.
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// Stats snapshots the index.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	s := Stats{
		Dir:            st.dir,
		ResultEntries:  len(st.results),
		PlanEntries:    len(st.plans),
		Bytes:          st.bytes,
		MaxBytes:       st.maxBytes,
		GCEvictions:    st.gcEvictions,
		GCEvictedBytes: st.gcEvictedBytes,
		GCRejected:     st.gcRejected,
		BootScanned:    st.bootScanned,
	}
	st.mu.Unlock()
	s.ManifestRecords, s.ManifestCompactions = st.man.counts()
	return s
}

// safeStemByte reports whether a key byte passes into the file stem
// unescaped.
func safeStemByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '-' || c == '.' || c == '_'
}

// encodeKey maps a cache key to a portable file stem injectively:
// safe bytes pass through, everything else (which includes '%', the
// escape byte itself) becomes %XX — so distinct keys always get
// distinct stems and a loaded artifact's recorded-key check can never
// condemn an innocent collision victim.
func encodeKey(key string) string {
	var b strings.Builder
	b.Grow(len(key))
	for i := 0; i < len(key); i++ {
		c := key[i]
		if safeStemByte(c) {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// isKeyStem reports whether stem is in encodeKey's image.
func isKeyStem(stem string) bool {
	key, err := url.PathUnescape(stem)
	return err == nil && encodeKey(key) == stem
}

// shardOf buckets a stem into one of 256 two-hex-char subdirectories.
// A hash of the whole stem rather than its leading bytes: result keys
// share long common hex prefixes, which would pile everything into a
// handful of buckets.
func shardOf(stem string) string {
	return fmt.Sprintf("%02x", byte(crc32.ChecksumIEEE([]byte(stem))))
}

// stemPath is the sharded on-disk location of an artifact stem.
func (st *Store) stemPath(k kind, stem string) string {
	return filepath.Join(st.dir, k.subdir(), shardOf(stem), stem+k.ext())
}

func (st *Store) resultPath(key string) string {
	return st.stemPath(kindResult, encodeKey(key))
}

func (st *Store) planPath(key string) string {
	return st.stemPath(kindPlan, encodeKey(key))
}

func (st *Store) index(k kind) map[string]*entry {
	if k == kindPlan {
		return st.plans
	}
	return st.results
}

// HasResult reports whether a result for key is on disk.
func (st *Store) HasResult(key string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.results[encodeKey(key)]
	return ok
}

// HasPlan reports whether a compiled plan for key is on disk.
func (st *Store) HasPlan(key string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.plans[encodeKey(key)]
	return ok
}

// touchEntry refreshes a loaded artifact's Greedy-Dual priority (and,
// when the load learned the real recompute cost, its cost) so hits
// keep it resident — the on-disk mirror of Cache.touch.
func (st *Store) touchEntry(k kind, stem string, cost float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.index(k)[stem]; ok {
		if cost > 0 {
			e.cost = cost
		}
		e.prio = st.clock + e.cost/float64(max(e.size, int64(1)))
		st.seq++
		e.seq = st.seq
	}
}

// forget drops a ghost index entry (manifest said add, file is gone)
// and journals the drop so the next boot agrees.
func (st *Store) forget(k kind, stem string) {
	st.mu.Lock()
	index := st.index(k)
	e, ok := index[stem]
	if ok {
		st.bytes -= e.size
		delete(index, stem)
	}
	st.mu.Unlock()
	if ok {
		st.appendManifest(manRecord{op: manDrop, kind: k, stem: stem})
	}
}

// resultMeta is the JSON metadata blob persisted with each result —
// everything a backend.Result carries besides the probability vector
// and counts, plus the qubit count for shape validation. Expectation
// results persist through the same container: ExpValue carries the
// exact ⟨H⟩ (float bits survive JSON round-trips via the string
// field), and the probability dataset is simply absent.
type resultMeta struct {
	Target           backend.Target    `json:"target"`
	NumQubits        int               `json:"num_qubits"`
	DurationNS       int64             `json:"duration_ns"`
	KernelStats      kernel.Stats      `json:"kernel_stats"`
	PlanStats        *kernel.PlanStats `json:"plan_stats,omitempty"`
	TileBits         int               `json:"tile_bits"`
	Exchanges        int               `json:"exchanges"`
	BytesSent        int64             `json:"bytes_sent"`
	AvoidedExchanges int               `json:"avoided_exchanges"`
	// ExpValueBits is the IEEE-754 bit pattern of ExpValue, the field
	// the loader trusts: a decimal JSON float could lose the last ulp,
	// and warm restarts must answer bit-identical ⟨H⟩ values.
	ExpValueBits *uint64 `json:"exp_value_bits,omitempty"`
	// ExpValue duplicates the value in human-readable form for
	// debugging spilled artifacts; never parsed back.
	ExpValue *float64 `json:"exp_value,omitempty"`
	ExpTerms int      `json:"exp_terms,omitempty"`
	// Sweep artifacts: the per-point vectors live in their own datasets
	// (result/sweep_values, result/gradient, and the flattened
	// result/sweep_count_* triplet); the meta records the point count
	// and how the points were produced.
	SweepPoints   int `json:"sweep_points,omitempty"`
	Rebinds       int `json:"rebinds,omitempty"`
	SweepCompiles int `json:"sweep_compiles,omitempty"`
	// GradientLen pins the gradient dataset's expected length so a
	// truncated or padded dataset is rejected like any other shape
	// mismatch.
	GradientLen int `json:"gradient_len,omitempty"`
}

// numQubits infers n from the probability-vector length.
func numQubits(probs []float64) int {
	n := 0
	for 1<<uint(n) < len(probs) {
		n++
	}
	return n
}

// resultRecomputeCost models what re-simulating this result would cost
// in the same abstract units the serving layer's caches use (emitted
// kernel ops × state size), so on-disk GC ranks artifacts exactly like
// the in-memory Greedy-Dual-Size cache does.
func resultRecomputeCost(meta *resultMeta, probsLen int) float64 {
	size := probsLen
	if size == 0 && meta.NumQubits > 0 && meta.NumQubits < 63 {
		size = 1 << uint(meta.NumQubits)
	}
	if size == 0 {
		size = 1
	}
	return float64(1+meta.KernelStats.EmittedOps) * float64(size)
}

// SaveResult persists a completed result under its cache key, tagged
// with the server's configuration signature. Writes are durable and
// atomic (temp file + fsync + rename + directory fsync) and
// idempotent: a key already on disk is left untouched, so
// eviction-time spills of warm-started entries cost a stat, not a
// rewrite. Under a byte budget the save may instead evict
// lower-priority artifacts, or be skipped entirely (nil error) if the
// artifact cannot fit.
func (st *Store) SaveResult(key, sig string, res *backend.Result) error {
	stem := encodeKey(key)
	st.mu.Lock()
	_, exists := st.results[stem]
	st.mu.Unlock()
	if exists {
		return nil
	}

	meta := resultMeta{
		Target:           res.Target,
		NumQubits:        res.NumQubits,
		DurationNS:       res.Duration.Nanoseconds(),
		KernelStats:      res.KernelStats,
		PlanStats:        res.PlanStats,
		TileBits:         res.TileBits,
		Exchanges:        res.Exchanges,
		BytesSent:        res.BytesSent,
		AvoidedExchanges: res.AvoidedExchanges,
		ExpTerms:         res.ExpTerms,
		SweepPoints:      res.SweepPoints,
		Rebinds:          res.Rebinds,
		SweepCompiles:    res.SweepCompiles,
		GradientLen:      len(res.Gradient),
	}
	if meta.NumQubits == 0 {
		meta.NumQubits = numQubits(res.Probabilities)
	}
	sweepArtifact := len(res.SweepValues) > 0 || len(res.SweepCounts) > 0 || len(res.Gradient) > 0
	if res.ExpValue != nil {
		bits := math.Float64bits(*res.ExpValue)
		v := *res.ExpValue
		meta.ExpValueBits, meta.ExpValue = &bits, &v
	} else if len(res.Probabilities) == 0 && !sweepArtifact {
		return fmt.Errorf("store: result %s carries neither probabilities, an expectation value, nor a sweep artifact", key)
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}

	f := hdf5.NewFile()
	if len(res.Probabilities) > 0 {
		if err := f.PutFloat64s("result/probabilities", res.Probabilities); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if res.ExpValue != nil {
		// The raw-bits dataset both carries the value exactly and
		// creates the result group for the attribute block below.
		if err := f.PutFloat64s("result/expval", []float64{*res.ExpValue}); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if len(res.Counts) > 0 {
		keys := make([]uint64, 0, len(res.Counts))
		for k := range res.Counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		ck := make([]int64, len(keys))
		cv := make([]int64, len(keys))
		for i, k := range keys {
			ck[i] = int64(k)
			cv[i] = int64(res.Counts[k])
		}
		if err := f.PutInt64s("result/count_keys", ck); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := f.PutInt64s("result/count_vals", cv); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if len(res.SweepValues) > 0 {
		if err := f.PutFloat64s("result/sweep_values", res.SweepValues); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if len(res.Gradient) > 0 {
		if err := f.PutFloat64s("result/gradient", res.Gradient); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	if len(res.SweepCounts) > 0 {
		// Per-point count maps flatten into one key stream, one value
		// stream, and an offsets vector of length points+1: point i's
		// pairs live at [offsets[i], offsets[i+1]).
		offs := make([]int64, len(res.SweepCounts)+1)
		var ck, cv []int64
		for i, counts := range res.SweepCounts {
			keys := make([]uint64, 0, len(counts))
			for k := range counts {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			for _, k := range keys {
				ck = append(ck, int64(k))
				cv = append(cv, int64(counts[k]))
			}
			offs[i+1] = int64(len(ck))
		}
		if err := f.PutInt64s("result/sweep_count_keys", ck); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := f.PutInt64s("result/sweep_count_vals", cv); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := f.PutInt64s("result/sweep_count_offsets", offs); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	for k, a := range map[string]hdf5.Attr{
		"format_version": hdf5.IntAttr(FormatVersion),
		"cache_key":      hdf5.StringAttr(key),
		"config_sig":     hdf5.StringAttr(sig),
		"meta":           hdf5.StringAttr(string(metaJSON)),
	} {
		if err := f.SetAttr("result", k, a); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}

	var buf bytes.Buffer
	if err := f.Save(&buf, hdf5.SaveOptions{Compression: hdf5.CompressionFlate}); err != nil {
		return err
	}
	return st.saveArtifact(kindResult, stem, buf.Bytes(), resultRecomputeCost(&meta, len(res.Probabilities)))
}

// saveArtifact lands an encoded artifact under the byte budget:
// reserve room (evicting lower-priority artifacts if needed), delete
// the victims outside the store lock, write durably, then publish to
// the index and the manifest journal. A budget refusal is not an
// error — the artifact is simply not persisted (counted in
// GCRejected).
func (st *Store) saveArtifact(k kind, stem string, data []byte, cost float64) error {
	size := int64(len(data))
	victims, admit := st.reserve(size)
	st.removeVictims(victims)
	if admit {
		admit = st.confirmReserve(size)
	}
	if !admit {
		return nil
	}
	if err := st.fsys.MkdirAll(filepath.Join(st.dir, k.subdir(), shardOf(stem)), 0o755); err != nil {
		st.unreserve(size)
		return fmt.Errorf("store: %w", err)
	}
	if err := st.writeAtomic(st.stemPath(k, stem), data); err != nil {
		st.unreserve(size)
		return err
	}
	// Journal the add and publish to the index inside one critical
	// section: an eviction can only doom an indexed entry, so its drop
	// record always lands after this add, and a concurrent compaction
	// (which snapshots the index under the same lock) can neither lose
	// the record nor resurrect a deleted file. The append precedes the
	// publish, so a crash in between replays an add whose file is
	// already durable — consistent.
	st.mu.Lock()
	st.man.append(manRecord{op: manAdd, kind: k, stem: stem, size: size, cost: cost})
	st.reserved -= size
	index := st.index(k)
	if old, ok := index[stem]; ok {
		st.bytes -= old.size
	}
	st.seq++
	index[stem] = &entry{
		stem: stem,
		size: size,
		cost: cost,
		prio: st.clock + cost/float64(max(size, int64(1))),
		seq:  st.seq,
	}
	st.bytes += size
	live := uint64(len(st.results) + len(st.plans))
	st.mu.Unlock()
	if st.man.needsCompact(live) {
		st.compactManifest()
	}
	return nil
}

// LoadResult reads the result stored under key, rejecting it unless
// the file's checksum verifies (hdf5.Load), its recorded cache key
// matches the one requested, and its configuration signature matches
// sig. The returned probabilities and counts are bit-identical to
// what was saved.
func (st *Store) LoadResult(key, sig string) (*backend.Result, error) {
	stem := encodeKey(key)
	path := st.stemPath(kindResult, stem)
	// Read and parse in two steps so a transient I/O failure stays
	// distinguishable from a corrupt file: only the latter is
	// ErrIntegrity and only it justifies quarantining the artifact.
	raw, err := st.fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// A ghost entry (journal promised a file that is gone) heals
			// here, so the miss is not permanent.
			st.forget(kindResult, stem)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := hdf5.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, integrityErr("store: result %s: %v", key, err)
	}
	if err := st.verifyAttrs(f, "result", key, sig); err != nil {
		return nil, err
	}
	metaAttr, err := f.Attr("result", "meta")
	if err != nil {
		return nil, integrityErr("store: result %s: %v", key, err)
	}
	var meta resultMeta
	if err := json.Unmarshal([]byte(metaAttr.S), &meta); err != nil {
		return nil, integrityErr("store: result %s: bad meta: %v", key, err)
	}
	if meta.NumQubits < 0 || meta.NumQubits > 62 {
		return nil, integrityErr("store: result %s: implausible qubit count %d", key, meta.NumQubits)
	}
	var probs []float64
	if _, derr := f.Dataset("result/probabilities"); derr == nil {
		probs, _, err = f.Float64s("result/probabilities")
		if err != nil {
			return nil, integrityErr("store: result %s: %v", key, err)
		}
		if len(probs) != 1<<uint(meta.NumQubits) {
			return nil, integrityErr("store: result %s: %d probabilities for %d qubits", key, len(probs), meta.NumQubits)
		}
	} else if meta.ExpValueBits == nil && meta.SweepPoints == 0 {
		// Expectation and sweep artifacts legitimately omit the vector;
		// anything else without one is damaged.
		return nil, integrityErr("store: result %s: no probability dataset and no expectation value", key)
	}
	res := &backend.Result{
		Target:           meta.Target,
		Probabilities:    probs,
		NumQubits:        meta.NumQubits,
		Duration:         time.Duration(meta.DurationNS),
		KernelStats:      meta.KernelStats,
		PlanStats:        meta.PlanStats,
		TileBits:         meta.TileBits,
		Exchanges:        meta.Exchanges,
		BytesSent:        meta.BytesSent,
		AvoidedExchanges: meta.AvoidedExchanges,
		ExpTerms:         meta.ExpTerms,
	}
	if meta.ExpValueBits != nil {
		v := math.Float64frombits(*meta.ExpValueBits)
		res.ExpValue = &v
	}
	if _, err := f.Dataset("result/count_keys"); err == nil {
		ck, _, err := f.Int64s("result/count_keys")
		if err != nil {
			return nil, integrityErr("store: result %s: %v", key, err)
		}
		cv, _, err := f.Int64s("result/count_vals")
		if err != nil {
			return nil, integrityErr("store: result %s: %v", key, err)
		}
		if len(ck) != len(cv) {
			return nil, integrityErr("store: result %s: %d count keys, %d values", key, len(ck), len(cv))
		}
		res.Counts = make(sampling.Counts, len(ck))
		for i := range ck {
			res.Counts[uint64(ck[i])] = int(cv[i])
		}
	}
	res.SweepPoints = meta.SweepPoints
	res.Rebinds = meta.Rebinds
	res.SweepCompiles = meta.SweepCompiles
	if _, derr := f.Dataset("result/sweep_values"); derr == nil {
		sv, _, err := f.Float64s("result/sweep_values")
		if err != nil {
			return nil, integrityErr("store: result %s: %v", key, err)
		}
		if len(sv) != meta.SweepPoints {
			return nil, integrityErr("store: result %s: %d sweep values for %d points", key, len(sv), meta.SweepPoints)
		}
		res.SweepValues = sv
	}
	if _, derr := f.Dataset("result/gradient"); derr == nil {
		g, _, err := f.Float64s("result/gradient")
		if err != nil {
			return nil, integrityErr("store: result %s: %v", key, err)
		}
		if len(g) != meta.GradientLen {
			return nil, integrityErr("store: result %s: %d gradient values, meta records %d", key, len(g), meta.GradientLen)
		}
		res.Gradient = g
	} else if meta.GradientLen > 0 {
		return nil, integrityErr("store: result %s: gradient dataset missing (%d values recorded)", key, meta.GradientLen)
	}
	if _, derr := f.Dataset("result/sweep_count_offsets"); derr == nil {
		offs, _, err := f.Int64s("result/sweep_count_offsets")
		if err != nil {
			return nil, integrityErr("store: result %s: %v", key, err)
		}
		ck, _, err := f.Int64s("result/sweep_count_keys")
		if err != nil {
			return nil, integrityErr("store: result %s: %v", key, err)
		}
		cv, _, err := f.Int64s("result/sweep_count_vals")
		if err != nil {
			return nil, integrityErr("store: result %s: %v", key, err)
		}
		if len(ck) != len(cv) {
			return nil, integrityErr("store: result %s: %d sweep count keys, %d values", key, len(ck), len(cv))
		}
		if len(offs) == 0 || offs[0] != 0 || offs[len(offs)-1] != int64(len(ck)) || len(offs)-1 != meta.SweepPoints {
			return nil, integrityErr("store: result %s: malformed sweep count offsets", key)
		}
		res.SweepCounts = make([]sampling.Counts, len(offs)-1)
		for i := 0; i < len(offs)-1; i++ {
			lo, hi := offs[i], offs[i+1]
			if lo > hi || hi > int64(len(ck)) {
				return nil, integrityErr("store: result %s: malformed sweep count offsets", key)
			}
			counts := make(sampling.Counts, hi-lo)
			for j := lo; j < hi; j++ {
				counts[uint64(ck[j])] = int(cv[j])
			}
			res.SweepCounts[i] = counts
		}
	}
	st.touchEntry(kindResult, stem, resultRecomputeCost(&meta, len(probs)))
	return res, nil
}

// verifyAttrs checks the artifact's self-describing attributes. Stems
// are injective in the key, so a recorded-key mismatch can only be a
// damaged or misplaced file.
func (st *Store) verifyAttrs(f *hdf5.File, group, key, sig string) error {
	v, err := f.Attr(group, "format_version")
	if err != nil || v.I != FormatVersion {
		return integrityErr("store: %s %s: wrong or missing format version", group, key)
	}
	k, err := f.Attr(group, "cache_key")
	if err != nil || k.S != key {
		return integrityErr("store: %s file for key %s records key %q", group, key, k.S)
	}
	s, err := f.Attr(group, "config_sig")
	if err != nil || s.S != sig {
		return integrityErr("store: %s %s: config signature %q does not match %q", group, key, s.S, sig)
	}
	return nil
}

// SavePlan persists a compiled execution IR under its plan-cache key
// with its recompute cost — the same abstract cost units the eviction
// policy weighs (instruction count for plans), not wall-clock. Same
// durability, atomicity, idempotence, and budget discipline as
// SaveResult.
func (st *Store) SavePlan(key, sig string, comp *backend.Compiled, cost float64) error {
	stem := encodeKey(key)
	st.mu.Lock()
	_, exists := st.plans[stem]
	st.mu.Unlock()
	if exists {
		return nil
	}

	var payload bytes.Buffer
	writeStr := func(s string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		payload.Write(n[:])
		payload.WriteString(s)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint16(hdr[:2], FormatVersion)
	payload.Write(hdr[:2])
	writeStr(key)
	writeStr(sig)
	binary.LittleEndian.PutUint64(hdr[:8], math.Float64bits(cost))
	payload.Write(hdr[:8])
	if err := comp.Encode(&payload); err != nil {
		return err
	}

	var out bytes.Buffer
	out.Write(planMagic)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload.Bytes()))
	out.Write(crc[:])
	out.Write(payload.Bytes())
	if cost <= 0 {
		cost = float64(out.Len())
	}
	return st.saveArtifact(kindPlan, stem, out.Bytes(), cost)
}

// LoadPlan reads the compiled plan stored under key, with the same
// integrity discipline as LoadResult: checksum first, then the
// recorded key and config signature must match. Returns the artifact
// and the recompute cost recorded when it was built (the abstract
// units SavePlan was given).
func (st *Store) LoadPlan(key, sig string) (*backend.Compiled, float64, error) {
	stem := encodeKey(key)
	raw, err := st.fsys.ReadFile(st.stemPath(kindPlan, stem))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			st.forget(kindPlan, stem)
		}
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	if len(raw) < len(planMagic)+4 || !bytes.Equal(raw[:len(planMagic)], planMagic) {
		return nil, 0, integrityErr("store: plan %s: bad magic", key)
	}
	want := binary.LittleEndian.Uint32(raw[len(planMagic):])
	payload := raw[len(planMagic)+4:]
	if sum := crc32.ChecksumIEEE(payload); sum != want {
		return nil, 0, integrityErr("store: plan %s: checksum mismatch (file %08x, payload %08x)", key, want, sum)
	}
	r := bytes.NewReader(payload)
	var two [2]byte
	if _, err := io.ReadFull(r, two[:]); err != nil {
		return nil, 0, integrityErr("store: plan %s: %v", key, err)
	}
	if v := binary.LittleEndian.Uint16(two[:]); v != FormatVersion {
		return nil, 0, integrityErr("store: plan %s: unsupported format version %d", key, v)
	}
	readStr := func() (string, error) {
		var n [4]byte
		if _, err := io.ReadFull(r, n[:]); err != nil {
			return "", err
		}
		ln := binary.LittleEndian.Uint32(n[:])
		if int(ln) > r.Len() {
			return "", fmt.Errorf("implausible string length %d", ln)
		}
		buf := make([]byte, ln)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	gotKey, err := readStr()
	if err != nil {
		return nil, 0, integrityErr("store: plan %s: %v", key, err)
	}
	if gotKey != key {
		return nil, 0, integrityErr("store: plan file for key %s records key %q", key, gotKey)
	}
	gotSig, err := readStr()
	if err != nil {
		return nil, 0, integrityErr("store: plan %s: %v", key, err)
	}
	if gotSig != sig {
		return nil, 0, integrityErr("store: plan %s: config signature %q does not match %q", key, gotSig, sig)
	}
	var cost [8]byte
	if _, err := io.ReadFull(r, cost[:]); err != nil {
		return nil, 0, integrityErr("store: plan %s: %v", key, err)
	}
	costVal := math.Float64frombits(binary.LittleEndian.Uint64(cost[:]))
	comp, err := backend.DecodeCompiled(r)
	if err != nil {
		return nil, 0, integrityErr("store: plan %s: %v", key, err)
	}
	st.touchEntry(kindPlan, stem, costVal)
	return comp, costVal, nil
}

// DropResult removes a (corrupt or mismatched) result file from disk
// and the index so it is never consulted again.
func (st *Store) DropResult(key string) {
	st.dropKey(kindResult, key)
}

// DropPlan removes a plan file from disk and the index.
func (st *Store) DropPlan(key string) {
	st.dropKey(kindPlan, key)
}

func (st *Store) dropKey(k kind, key string) {
	stem := encodeKey(key)
	st.mu.Lock()
	index := st.index(k)
	e, had := index[stem]
	if had {
		st.bytes -= e.size
		delete(index, stem)
	}
	st.mu.Unlock()
	st.fsys.Remove(st.stemPath(k, stem))
	if had {
		st.appendManifest(manRecord{op: manDrop, kind: k, stem: stem})
	}
}
