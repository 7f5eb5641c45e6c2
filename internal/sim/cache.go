package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/storage"
)

// cacheVersion invalidates every existing entry when the on-disk format
// (not the simulated configuration — that is covered by the fingerprint)
// changes.
const cacheVersion = 1

// Cache is a persistent, concurrency-safe store of simulation results,
// one JSON file per cell under a directory, in one self-describing entry
// format for every kind of cell (see entry). A branch-prediction entry is
// keyed by a SHA-256 content hash of the Spec together with the
// fingerprint of the full cpu.Config the spec derives (CacheKey), a study
// entry by a hash of its kind and identity (StudyKey), so any change to
// the simulated machine — a new default, an ablation knob, a different
// instruction budget — misses cleanly instead of serving stale
// statistics.
//
// Every entry, whatever its kind or source, passes one decode gate that
// checks version, key, kind and payload checksum. Corrupt, unreadable or
// mismatched entries (truncated writes, hand-edited files, format drift,
// another kind's entry under the key) are treated as misses and removed,
// so a damaged cache heals itself on the next run.
//
// Disk access goes through a storage.KV backend (storage.DirKV over a
// storage.FS) behind a circuit breaker: after a run of consecutive disk
// faults the cache degrades to a memory-only overlay instead of erroring
// every request, probing the disk on later writes. A failed write parks
// its entry in the overlay, and the next successful write — a probe, or
// a plain write-through when the failure never tripped the breaker —
// flushes the overlay back to disk. Entries are keyed by content hash,
// so an overlay entry is exactly the bytes the disk would have held —
// degraded mode changes durability, never results.
//
// A cache may additionally be given a *peer* backend (SetPeers) — in a
// worker cluster, the other daemons' caches reachable over the HTTP
// cache-peer protocol. A local miss then asks the peers before
// simulating, and a fetched entry is validated exactly like a local one
// (envelope key, version, kind, payload checksum) before it is trusted or
// replicated to local disk, so a malformed or corrupt peer response
// degrades to a miss — it can never poison the cache. The protocol is
// documented in DESIGN.md's distributed execution section.
type Cache struct {
	dir   string
	local *storage.DirKV
	brk   *storage.Breaker

	peersMu sync.RWMutex
	peers   storage.KV // nil: no peer tier
	push    bool       // replicate fresh entries to peers on Put

	peerHits   atomic.Int64
	peerPushes atomic.Int64

	mu  sync.Mutex
	mem map[string][]byte // overlay of entries the disk refused
}

// OpenCache opens (creating if needed) a cache rooted at dir on the real
// filesystem with default circuit-breaker settings.
func OpenCache(dir string) (*Cache, error) {
	return OpenCacheFS(dir, storage.OS{}, nil)
}

// OpenCacheFS opens a cache over an explicit filesystem and breaker
// (nil selects a default breaker). Chaos tests use it to run the cache
// against a fault-injecting FS; production callers use OpenCache.
func OpenCacheFS(dir string, fsys storage.FS, brk *storage.Breaker) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sim: empty cache directory")
	}
	if brk == nil {
		brk = storage.NewBreaker(0, 0)
	}
	local, err := storage.NewDirKV(dir, fsys, ".json")
	if err != nil {
		return nil, fmt.Errorf("sim: open cache: %w", err)
	}
	return &Cache{dir: dir, local: local, brk: brk, mem: make(map[string][]byte)}, nil
}

// SetPeers attaches a peer backend consulted on local misses (typically
// a storage.PeerKV over the other workers' daemons). When push is true,
// every freshly computed entry is additionally replicated to the peers,
// best-effort, so a cluster warms proactively instead of on demand.
// Call before serving; concurrent calls are safe.
func (c *Cache) SetPeers(peers storage.KV, push bool) {
	c.peersMu.Lock()
	c.peers = peers
	c.push = push
	c.peersMu.Unlock()
}

// PeerHits reports how many entries were served from the peer tier over
// the cache's lifetime.
func (c *Cache) PeerHits() int64 { return c.peerHits.Load() }

// PeerPushes reports how many fresh entries were successfully replicated
// to the peer tier.
func (c *Cache) PeerPushes() int64 { return c.peerPushes.Load() }

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Degraded reports whether the circuit breaker is open and the cache is
// serving memory-only.
func (c *Cache) Degraded() bool { return c.brk.Open() }

// Breaker exposes the cache's circuit breaker (for health reporting and
// tests).
func (c *Cache) Breaker() *storage.Breaker { return c.brk }

// MemEntries reports how many entries currently live only in the
// degraded-mode overlay.
func (c *Cache) MemEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Key returns the cache key for a spec: a hex SHA-256 over the spec's
// identity and the fingerprint of its derived configuration.
//
//arvi:det
func (c *Cache) Key(spec Spec) string { return CacheKey(spec, spec.Config()) }

// CacheKey computes the content-hash key for an explicit (spec, config)
// pair. The hash covers the benchmark name and the config fingerprint —
// every other Spec field flows into the derived cpu.Config, so two specs
// that describe the same run (e.g. ConfThreshold 0 versus an explicit
// paper-default 8) share one entry instead of simulating twice. Exposed
// for tests and external tooling that wants to locate or invalidate
// specific cells.
//
//arvi:det
func CacheKey(spec Spec, cfg cpu.Config) string {
	return hashKey(struct {
		Version     int
		Bench       string
		Fingerprint string
	}{cacheVersion, spec.Bench, cfg.Fingerprint()})
}

// hashKey hashes a plain identity value into a hex cache key.
//
//arvi:det
func hashKey(id any) string {
	b, err := json.Marshal(id)
	if err != nil {
		panic(fmt.Sprintf("sim: cache key: %v", err)) // plain value struct
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// bpredKind is the kind branch-prediction (Spec) entries are stored
// under; studies use their own Study.Kind.
const bpredKind = "bpred"

// entry is the cache's one on-disk record, for every kind of cell. It is
// self-describing — kind, key and the cell's full identity are stored
// alongside the stats — so a cache directory can be audited with jq, and
// the decode gate can reject a file whose content does not match its
// name or its kind. Sum is a checksum of the canonical stats encoding:
// the key only proves *which* cell the file claims to be, the sum proves
// the payload was not bit-corrupted in storage.
//
// Identity is written for auditing only and never read back: the decode
// gate skips it (see skipJSON). Entries from older builds follow from the
// gate's checks: a branch-prediction entry without a kind fails the kind
// check and self-heals with one recompute, and a study entry, whose
// identity field was named "study", still decodes.
type entry struct {
	Version  int    `json:"version"`
	Key      string `json:"key"`
	Sum      string `json:"sum"`
	Kind     string `json:"kind"`
	Identity any    `json:"identity"`
	Stats    any    `json:"stats"`
}

// skipJSON discards the JSON value decoded into it without allocating,
// so the decode gate reads an entry's stats in one pass and skips its
// identity.
type skipJSON struct{}

func (*skipJSON) UnmarshalJSON([]byte) error { return nil }

// statsSum checksums a stats payload by its canonical JSON encoding, so
// the same check works at write time (over the value being stored) and at
// read time (over the value decoded back out of the file).
//
//arvi:det
func statsSum(stats any) string {
	b, err := json.Marshal(stats)
	if err != nil {
		panic(fmt.Sprintf("sim: cache sum: %v", err)) // plain value struct
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// load fetches an entry's bytes: the degraded overlay first, then disk.
// Disk is skipped entirely while the breaker is open (memory-only mode),
// and a disk *fault* — any read error other than plain not-exist — feeds
// the breaker.
func (c *Cache) load(key string) ([]byte, bool) {
	c.mu.Lock()
	b, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		return b, true
	}
	if c.brk.Open() {
		return nil, false
	}
	b, err := c.local.Get(key)
	if err != nil {
		if !storage.IsNotExist(err) {
			c.brk.Failure()
		}
		return nil, false
	}
	return b, true
}

// fetchPeer asks the peer tier for an entry's bytes. Any peer failure —
// unreachable, wrong status, oversized payload — is an ordinary miss:
// peers accelerate, they never block.
func (c *Cache) fetchPeer(key string) ([]byte, bool) {
	c.peersMu.RLock()
	peers := c.peers
	c.peersMu.RUnlock()
	if peers == nil {
		return nil, false
	}
	b, err := peers.Get(key)
	if err != nil {
		return nil, false
	}
	return b, true
}

// pushPeer replicates a freshly stored entry to the peer tier when push
// replication is on. Best-effort by contract: the local tier is the
// durable one, and a peer that missed the push simply fetches on demand.
func (c *Cache) pushPeer(key string, b []byte) {
	c.peersMu.RLock()
	peers, push := c.peers, c.push
	c.peersMu.RUnlock()
	if peers == nil || !push {
		return
	}
	if err := peers.Put(key, b); err == nil {
		c.peerPushes.Add(1)
	}
}

// discard drops a corrupt or stale entry from the overlay and (when the
// disk is believed healthy) from disk, so the next Put rewrites it.
func (c *Cache) discard(key string) {
	c.mu.Lock()
	delete(c.mem, key)
	c.mu.Unlock()
	if !c.brk.Open() {
		_ = c.local.Delete(key) // best-effort; a leftover entry re-heals on next read
	}
}

// decodeEntry validates an entry's bytes against the key and kind they
// claim to answer — envelope shape, format version, self-described key
// and kind, and the payload checksum — decoding the stats into out (a
// pointer to the kind's stats type) in the same pass. It is the one gate
// every entry passes on its way to a caller, whether the bytes came from
// local disk, the degraded overlay, or a cache peer — which is why a
// malformed peer response can never be served or replicated. A rejected
// entry leaves out zeroed.
func decodeEntry(key, kind string, b []byte, out any) bool {
	e := entry{Identity: &skipJSON{}, Stats: out}
	// A bit-corrupted read can survive JSON parsing (a flipped byte inside
	// a number or a field name still decodes); the checksum over the
	// decoded value's canonical encoding catches it, so the entry heals
	// instead of serving wrong statistics.
	if json.Unmarshal(b, &e) == nil && e.Version == cacheVersion && e.Key == key && e.Kind == kind &&
		e.Sum == statsSum(out) {
		return true
	}
	if v := reflect.ValueOf(out); v.Kind() == reflect.Pointer && !v.IsNil() {
		v.Elem().SetZero()
	}
	return false
}

// get decodes the entry for key into out, reporting whether an intact
// entry of the kind was present — served from the local tier first, then
// fetched (and validated, and replicated locally) from the cache peers.
// A corrupt or mismatched local entry is removed, so the cache heals.
func (c *Cache) get(key, kind string, out any) bool {
	if b, ok := c.load(key); ok {
		if decodeEntry(key, kind, b, out) {
			return true
		}
		c.discard(key)
	}
	if b, ok := c.fetchPeer(key); ok && decodeEntry(key, kind, b, out) {
		// Replicate the validated bytes locally so the next hit is local;
		// a store failure parks them in the overlay via the usual breaker
		// path and is deliberately not surfaced here.
		_ = c.store(key, b)
		c.peerHits.Add(1)
		return true
	}
	return false
}

// put stores one cell's entry. The write is atomic (temp file + rename)
// so a crash mid-write leaves either the old entry or none — never a
// torn file that a later read would half-trust. While the circuit
// breaker is open the entry lands in the memory overlay instead and put
// reports success: degraded mode trades durability for availability.
func (c *Cache) put(key, kind string, identity, stats any) error {
	b, err := json.MarshalIndent(entry{
		Version: cacheVersion, Key: key, Sum: statsSum(stats), Kind: kind, Identity: identity, Stats: stats,
	}, "", " ")
	if err != nil {
		return fmt.Errorf("sim: cache put %s: %w", kind, err)
	}
	err = c.store(key, b)
	// Fresh computes (and only those — peer-fetched entries came from the
	// cluster and are not echoed back) replicate to the peers when push
	// mode is on, regardless of local durability: a broken local disk is
	// exactly when the cluster copy matters most.
	c.pushPeer(key, b)
	return err
}

// Get returns the cached stats for spec, if present and intact.
func (c *Cache) Get(spec Spec) (st cpu.Stats, ok bool) {
	ok = c.get(c.Key(spec), bpredKind, &st)
	return st, ok
}

// Put stores the stats for spec.
func (c *Cache) Put(spec Spec, st cpu.Stats) error { return c.put(c.Key(spec), bpredKind, spec, st) }

// GetStudy decodes the cached stats for the study into out (a pointer to
// the study's stats type), reporting whether an intact entry was present.
// The error return covers key computation only (a study whose identity
// cannot be marshalled), never disk state.
func (c *Cache) GetStudy(s Study, out any) (bool, error) {
	key, _, err := studyKey(s)
	return err == nil && c.get(key, s.Kind(), out), err
}

// PutStudy stores the study's stats.
func (c *Cache) PutStudy(s Study, stats any) error {
	key, id, err := studyKey(s)
	if err != nil {
		return err
	}
	return c.put(key, s.Kind(), json.RawMessage(id), stats)
}

// store lands an entry's bytes, routing around a broken disk:
//
//   - breaker closed: write through; a failure feeds the breaker, parks
//     the bytes in the overlay (the result itself is not lost) and is
//     reported to the caller.
//   - breaker open, no probe due: overlay only, silently.
//   - breaker open, probe granted: write through; a failure feeds the
//     breaker and parks the bytes silently.
//
// Every successful write drops the key from the overlay and flushes any
// other parked entries back to disk, so an entry parked by a failure the
// breaker never tripped on is not left memory-only.
func (c *Cache) store(key string, b []byte) error {
	open := c.brk.Open()
	if open && !c.brk.Allow() {
		c.putMem(key, b)
		return nil
	}
	if err := c.writeAtomic(key, b); err != nil {
		c.brk.Failure()
		c.putMem(key, b)
		if open {
			return nil
		}
		return err
	}
	c.brk.Success()
	c.mu.Lock()
	delete(c.mem, key)
	parked := len(c.mem)
	c.mu.Unlock()
	if parked > 0 {
		c.flush()
	}
	return nil
}

// putMem parks an entry in the degraded-mode overlay.
func (c *Cache) putMem(key string, b []byte) {
	c.mu.Lock()
	c.mem[key] = b
	c.mu.Unlock()
}

// flush writes every overlay entry back to disk (in sorted key order, so
// recovery is deterministic), dropping each from the overlay as it
// lands. A failure mid-flush feeds the breaker and leaves the remainder
// parked for the next successful probe.
func (c *Cache) flush() {
	c.mu.Lock()
	keys := make([]string, 0, len(c.mem))
	//arvi:unordered keys are sorted before use
	for k := range c.mem {
		keys = append(keys, k)
	}
	pending := make(map[string][]byte, len(keys))
	for _, k := range keys {
		pending[k] = c.mem[k]
	}
	c.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		if err := c.writeAtomic(k, pending[k]); err != nil {
			c.brk.Failure()
			return
		}
		c.mu.Lock()
		delete(c.mem, k)
		c.mu.Unlock()
	}
}

// writeAtomic lands an entry's bytes under its key through the local
// backend's atomic temp+rename contract (see storage.DirKV.Put: no torn
// files, no *.tmp orphans on failure).
func (c *Cache) writeAtomic(key string, b []byte) error {
	if err := c.local.Put(key, b); err != nil {
		return fmt.Errorf("sim: cache put: %w", err)
	}
	return nil
}

// Raw returns the stored entry bytes for a key — overlay first, then the
// local backend — without interpreting them. It is the read side of the
// HTTP cache-peer protocol: the requester validates what it fetched, so
// serving raw bytes is safe by construction.
func (c *Cache) Raw(key string) ([]byte, bool) {
	return c.load(key)
}

// rawEnvelope is the part of an entry a peer-supplied payload must get
// right before PutRaw will store it: the format version and the
// self-described key. The payload checksum is deliberately not
// re-verified here — it is computed over the *typed* canonical encoding,
// which only the reader knows — so the read path (decodeEntry) stays
// the final gate and a corrupt accepted entry
// heals there instead of being served.
type rawEnvelope struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
}

// PutRaw validates and stores entry bytes received over the cache-peer
// protocol. The bytes must be a JSON entry whose envelope matches the
// key they were pushed under; anything else is rejected so a confused or
// malicious peer cannot plant entries under foreign keys.
func (c *Cache) PutRaw(key string, b []byte) error {
	var env rawEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return fmt.Errorf("sim: cache peer put: not an entry: %v", err)
	}
	if env.Version != cacheVersion {
		return fmt.Errorf("sim: cache peer put: entry version %d, want %d", env.Version, cacheVersion)
	}
	if env.Key != key {
		return fmt.Errorf("sim: cache peer put: entry describes key %.16s..., pushed under %.16s...", env.Key, key)
	}
	return c.store(key, b)
}

// Len counts the entries currently on disk.
func (c *Cache) Len() (int, error) {
	matches, err := filepath.Glob(filepath.Join(c.dir, "*.json"))
	if err != nil {
		return 0, err
	}
	return len(matches), nil
}
