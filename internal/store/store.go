package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qgear/internal/backend"
	"qgear/internal/faultfs"
)

// FormatVersion tags the on-disk layout — the result and plan payloads
// (codec.go), the shard function and the manifest journal, whose header
// stamps the whole directory with it. It bumps whenever any of those
// changes; Open empties a directory stamped with another version
// instead of misreading it (2: the internal/artifact envelope; 1 was
// the HDF5-lite results and the CRC-32 sharding of PR 10).
const FormatVersion = 2

const (
	resultsSubdir = "results"
	plansSubdir   = "plans"
	resultExt     = ".qgr"
	planExt       = ".plan"
)

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

// Store is the on-disk artifact store: simulation results keyed by
// their core.CacheKey content address and compiled plans keyed by their
// plan-cache key, one internal/artifact file each, sharded into 256
// two-hex-char subdirectories so the tree stays listable at millions of
// entries. Open replays the manifest journal when one is present (O(one
// file read)) and falls back to a full directory scan when it is
// missing or corrupt. Loads verify checksums and the recorded
// key/config signature before anything is trusted. Store is safe for
// concurrent use.
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
	Dir           string `json:"dir,omitempty"`
	ResultEntries int    `json:"result_entries"`
	PlanEntries   int    `json:"plan_entries"`
	Bytes         int64  `json:"bytes"`
	// MaxBytes is the on-disk budget (0 = unbounded).
	MaxBytes int64 `json:"max_bytes"`
	// GCEvictions / GCEvictedBytes count artifacts removed from disk by
	// the budget enforcer; GCRejected counts saves refused because the
	// artifact could not fit (or eviction could not make room).
	GCEvictions    uint64 `json:"gc_evictions"`
	GCEvictedBytes int64  `json:"gc_evicted_bytes"`
	GCRejected     uint64 `json:"gc_rejected"`
	// ManifestRecords is the journal's current record count;
	// ManifestCompactions counts rewrites. BootScanned reports whether
	// the last Open had to fall back to the full directory scan.
	ManifestRecords     uint64 `json:"manifest_records"`
	ManifestCompactions uint64 `json:"manifest_compactions"`
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
// (with self-healing manifest rewrite) otherwise. A manifest stamped
// with another FormatVersion means every file in the shard buckets was
// written in that format: the store is a cache of recomputable
// artifacts, so the scan removes them instead of indexing files no
// load could read (or leaving bytes on disk that no budget counts).
func (st *Store) load() error {
	purge := false
	raw, err := st.fsys.ReadFile(st.man.path)
	if err == nil {
		recs, torn, perr := parseManifest(raw)
		if perr == nil {
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
		// Another format, or mid-file corruption: distrust the whole
		// journal and rebuild from what is actually on disk.
		purge = errors.Is(perr, errOtherFormat)
	}
	st.bootScanned = true
	if err := st.scanKind(kindResult, st.results, purge); err != nil {
		return err
	}
	if err := st.scanKind(kindPlan, st.plans, purge); err != nil {
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

// scanKind walks one artifact family's shard buckets, indexing what it
// finds — or, with purge, removing it. Anything else under the family
// root is not the store's and is left alone.
func (st *Store) scanKind(k kind, index map[string]*entry, purge bool) error {
	entries, err := st.fsys.ReadDir(filepath.Join(st.dir, k.subdir()))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() && isShardDir(e.Name()) {
			if err := st.scanShard(k, e.Name(), index, purge); err != nil {
				return err
			}
		}
	}
	return nil
}

func (st *Store) scanShard(k kind, shard string, index map[string]*entry, purge bool) error {
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
		if purge {
			// Best effort, like the temp reaper below: a file that will
			// not go is never indexed, so it can only cost its bytes.
			st.fsys.Remove(filepath.Join(dir, name))
			continue
		}
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
	h := fnv.New32a()
	h.Write([]byte(stem))
	return fmt.Sprintf("%02x", byte(h.Sum32()))
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

	sweepArtifact := len(res.SweepValues) > 0 || len(res.SweepCounts) > 0 || len(res.Gradient) > 0
	if res.ExpValue == nil && len(res.Probabilities) == 0 && !sweepArtifact {
		return fmt.Errorf("store: result %s carries neither probabilities, an expectation value, nor a sweep artifact", key)
	}
	data, err := encodeResult(key, sig, res)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return st.saveArtifact(kindResult, stem, data, resultRecomputeCost(res))
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
// the file's checksum verifies, its recorded cache key matches the one
// requested, and its configuration signature matches sig. The returned
// probabilities and counts are bit-identical to what was saved.
func (st *Store) LoadResult(key, sig string) (*backend.Result, error) {
	stem := encodeKey(key)
	raw, err := st.readArtifact(kindResult, stem)
	if err != nil {
		return nil, err
	}
	res, err := decodeResult(raw, key, sig)
	if err != nil {
		return nil, integrityErr("store: result %s: %v", key, err)
	}
	st.touchEntry(kindResult, stem, resultRecomputeCost(res))
	return res, nil
}

// readArtifact reads an artifact file whole. Reading and parsing are
// two steps so a transient I/O failure stays distinguishable from a
// corrupt file: only the latter is ErrIntegrity and only it justifies
// quarantining the artifact.
func (st *Store) readArtifact(k kind, stem string) ([]byte, error) {
	raw, err := st.fsys.ReadFile(st.stemPath(k, stem))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// A ghost entry (journal promised a file that is gone) heals
			// here, so the miss is not permanent.
			st.forget(k, stem)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	return raw, nil
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
	data, err := encodePlan(key, sig, comp, cost)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if cost <= 0 {
		cost = float64(len(data))
	}
	return st.saveArtifact(kindPlan, stem, data, cost)
}

// LoadPlan reads the compiled plan stored under key, with the same
// integrity discipline as LoadResult: checksum first, then the
// recorded key and config signature must match. Returns the artifact
// and the recompute cost recorded when it was built (the abstract
// units SavePlan was given).
func (st *Store) LoadPlan(key, sig string) (*backend.Compiled, float64, error) {
	stem := encodeKey(key)
	raw, err := st.readArtifact(kindPlan, stem)
	if err != nil {
		return nil, 0, err
	}
	comp, cost, err := decodePlan(raw, key, sig)
	if err != nil {
		return nil, 0, integrityErr("store: plan %s: %v", key, err)
	}
	st.touchEntry(kindPlan, stem, cost)
	return comp, cost, nil
}

// DropResult removes a (corrupt or mismatched) result file from disk
// and the index so it is never consulted again.
func (st *Store) DropResult(key string) {
	st.dropKey(kindResult, key)
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
