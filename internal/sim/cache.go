package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"

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
// The cache is key derivation plus the entry codec over a storage.Tier,
// which it embeds: the tier owns the files, the circuit breaker and the
// degraded-mode overlay and its flush (Dir, Degraded, Breaker,
// MemEntries, Len and Raw are the tier's). Every entry, whatever its kind
// and whether it comes from disk or the overlay, passes one decode gate
// that checks version, key, kind and payload checksum. Corrupt,
// unreadable or mismatched entries (truncated writes, hand-edited files,
// format drift, another kind's entry under the key) are misses the tier
// removes, so a damaged cache heals itself on the next run.
type Cache struct {
	*storage.Tier
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
	t, err := storage.OpenTier(dir, ".json", fsys, brk)
	if err != nil {
		return nil, fmt.Errorf("sim: open cache: %w", err)
	}
	return &Cache{Tier: t}, nil
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

// decodeEntry validates an entry's bytes against the key and kind they
// claim to answer — envelope shape, format version, self-described key
// and kind, and the payload checksum — decoding the stats into out (a
// pointer to the kind's stats type) in the same pass. It is the one gate
// every entry passes on its way to a caller, whether the bytes came from
// disk or the degraded overlay. A rejected entry leaves out zeroed.
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
// entry of the kind was present.
func (c *Cache) get(key, kind string, out any) bool {
	return c.Tier.Get(key, func(b []byte) bool { return decodeEntry(key, kind, b, out) })
}

// put stores one cell's entry through the tier: atomically on disk, or
// parked in the overlay while the disk is refusing writes (degraded mode
// trades durability for availability).
func (c *Cache) put(key, kind string, identity, stats any) error {
	b, err := json.MarshalIndent(entry{
		Version: cacheVersion, Key: key, Sum: statsSum(stats), Kind: kind, Identity: identity, Stats: stats,
	}, "", " ")
	if err != nil {
		return fmt.Errorf("sim: cache put %s: %w", kind, err)
	}
	return c.Tier.Put(key, b)
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

// SetPeers does nothing.
//
// Deprecated: the cache reads and writes only its own overlay and disk;
// there is no cache-peer tier to attach.
func (c *Cache) SetPeers(peers storage.KV, push bool) {}
