package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/prog"
	"repro/internal/storage"
	"repro/internal/trace"
)

// DefaultTraceMemBudget bounds the decoded traces a TraceStore keeps
// resident: 256 MiB ≈ 8M decoded events, comfortably the full suite at the
// default instruction budget.
const DefaultTraceMemBudget = 256 << 20

// TraceStore records each program's correct-path dynamic stream once and
// serves it to every simulation that asks, so a (bench × depth × mode)
// sweep runs the functional VM once per benchmark instead of once per
// cell. It is the trace-tier sibling of the result Cache:
//
//   - Entries are keyed by program fingerprint + instruction budget, the
//     two inputs that fully determine a correct-path trace.
//   - The first Get for a key records (or loads from disk) under a
//     per-key singleflight; concurrent requesters block on that one
//     recording instead of racing their own.
//   - Decoded traces are immutable in memory; any number of worker
//     goroutines replay one concurrently through private cursors.
//   - Resident decoded traces are bounded by a memory budget with LRU
//     eviction, so sweeps over many distinct programs or budgets do not
//     grow without bound. Evicted traces stay valid for replayers already
//     holding them (they hold the slice; the store merely drops its ref).
//   - With a backing directory, recorded traces persist on disk
//     (atomically, checksummed, self-healing on corruption) and later
//     runs — or other processes — reload them instead of re-executing
//     the VM.
//   - Disk access goes through a storage.DirKV (the result cache's disk
//     backend, here with .trc files) over a storage.FS, behind a circuit
//     breaker: after consecutive disk faults the store stops touching the
//     disk and serves recordings memory-only, probing on later persists
//     until the disk recovers. Degraded mode affects durability only —
//     the trace bytes served are identical either way.
type TraceStore struct {
	dir       string         // "" = memory-only
	disk      *storage.DirKV // nil for a memory-only store
	brk       *storage.Breaker
	memBudget int64

	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	memUsed int64
	tick    int64

	recorded    atomic.Int64
	memHits     atomic.Int64
	diskHits    atomic.Int64
	persistErrs atomic.Int64
}

// traceKey identifies one recorded stream: the program's content
// fingerprint and the instruction budget it was recorded to.
type traceKey struct {
	fp     string
	budget int64
}

// traceEntry is one resident (or in-flight) decoded trace. dec and err are
// published by closing ready; bytes, lastUse and done are guarded by the
// store mutex.
type traceEntry struct {
	ready   chan struct{}
	dec     *trace.Decoded
	err     error
	bytes   int64
	lastUse int64
	done    bool
}

// OpenTraceStore opens a trace store backed by dir (created if needed;
// empty for a memory-only store) holding at most memBudget bytes of
// decoded trace resident (<= 0 selects DefaultTraceMemBudget).
func OpenTraceStore(dir string, memBudget int64) (*TraceStore, error) {
	return OpenTraceStoreFS(dir, memBudget, storage.OS{}, nil)
}

// OpenTraceStoreFS opens a trace store over an explicit filesystem and
// breaker (nil selects a default breaker). Chaos tests use it to run the
// store against a fault-injecting FS; production callers use
// OpenTraceStore.
func OpenTraceStoreFS(dir string, memBudget int64, fsys storage.FS, brk *storage.Breaker) (*TraceStore, error) {
	if memBudget <= 0 {
		memBudget = DefaultTraceMemBudget
	}
	if fsys == nil {
		fsys = storage.OS{}
	}
	if brk == nil {
		brk = storage.NewBreaker(0, 0)
	}
	var disk *storage.DirKV
	if dir != "" {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("sim: open trace store: %w", err)
		}
		disk = &storage.DirKV{Dir: dir, FS: fsys, Ext: ".trc"}
	}
	return &TraceStore{
		dir:       dir,
		disk:      disk,
		brk:       brk,
		memBudget: memBudget,
		entries:   make(map[traceKey]*traceEntry),
	}, nil
}

// Dir returns the backing directory ("" for a memory-only store).
func (s *TraceStore) Dir() string { return s.dir }

// Degraded reports whether the circuit breaker is open and the store is
// serving memory-only despite having a backing directory.
func (s *TraceStore) Degraded() bool { return s.dir != "" && s.brk.Open() }

// Breaker exposes the store's circuit breaker (for health reporting and
// tests).
func (s *TraceStore) Breaker() *storage.Breaker { return s.brk }

// Recorded reports how many times the store actually executed the
// functional VM — the number every other request amortises away.
func (s *TraceStore) Recorded() int64 { return s.recorded.Load() }

// MemHits reports requests served from a resident decoded trace
// (including waiters coalesced onto an in-flight recording).
func (s *TraceStore) MemHits() int64 { return s.memHits.Load() }

// DiskHits reports requests served by decoding a previously persisted
// trace file.
func (s *TraceStore) DiskHits() int64 { return s.diskHits.Load() }

// PersistErrs reports best-effort disk writes that failed; the traces
// stayed served from memory.
func (s *TraceStore) PersistErrs() int64 { return s.persistErrs.Load() }

// Entries reports how many decoded traces are currently resident.
func (s *TraceStore) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// MemUsed reports the bytes of decoded trace currently resident.
func (s *TraceStore) MemUsed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memUsed
}

// Path returns the on-disk location for a program/budget pair (even when
// the store is memory-only and will never write it).
//
//arvi:det
func (s *TraceStore) Path(p *prog.Program, budget int64) string {
	return filepath.Join(s.dir, diskKey(p, budget)+".trc")
}

// diskKey names a program/budget pair's trace file in the store's
// directory (without the .trc extension the DirKV appends).
//
//arvi:det
func diskKey(p *prog.Program, budget int64) string {
	return fmt.Sprintf("%s-%d", p.FingerprintHex(), budget)
}

// Get returns the decoded correct-path trace of p at the given instruction
// budget (0 = to halt), recording it on first request. The returned
// Decoded is shared and read-only: replay it through Decoded.Cursor.
//
// A waiter coalesced onto another goroutine's in-flight recording gives
// up when ctx is canceled; the recording itself runs to completion —
// it is a shared resource other requesters (and the disk cache) still
// want, and a single recording is short relative to a sweep.
func (s *TraceStore) Get(ctx context.Context, p *prog.Program, budget int64) (*trace.Decoded, error) {
	key := traceKey{fp: p.FingerprintHex(), budget: budget}

	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.tick++
		e.lastUse = s.tick
		s.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			return nil, e.err
		}
		s.memHits.Add(1)
		return e.dec, nil
	}
	e := &traceEntry{ready: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()

	e.dec, e.err = s.acquire(p, budget)
	close(e.ready)

	s.mu.Lock()
	if e.err != nil {
		// Do not poison the key: a transient failure (unreadable disk,
		// VM fault in a since-fixed program) retries on the next Get.
		delete(s.entries, key)
	} else {
		e.bytes = e.dec.MemBytes()
		e.done = true
		s.tick++
		e.lastUse = s.tick
		s.memUsed += e.bytes
		s.evictLocked(key)
	}
	s.mu.Unlock()
	return e.dec, e.err
}

// acquire produces the decoded trace from disk if possible, else by
// running the functional VM once (persisting the result best-effort).
// Disk is skipped entirely while the circuit breaker is open, except for
// one persist probe per probation window.
func (s *TraceStore) acquire(p *prog.Program, budget int64) (*trace.Decoded, error) {
	key := diskKey(p, budget)
	if s.disk != nil && !s.brk.Open() {
		if b, err := s.disk.Get(key); err == nil {
			if payload, ok := checkSummed(b); ok {
				dec, derr := trace.Decode(p, bytes.NewReader(payload))
				if derr == nil {
					s.diskHits.Add(1)
					return dec, nil
				}
			}
			// Corrupt, truncated or foreign file under our name — including
			// a bit-corrupted read the trace format itself cannot detect
			// (event payloads carry no per-record redundancy), which is why
			// store files are checksummed: remove it and fall through to a
			// fresh recording (self-heal, like the result cache).
			_ = s.disk.Delete(key)
		} else if !storage.IsNotExist(err) {
			s.brk.Failure() // a disk fault, not an ordinary miss
		}
	}
	s.recorded.Add(1)
	dec, err := trace.RecordAll(p, budget)
	if err != nil {
		// No "sim:" prefix: the engine's cell runner wraps this with the
		// full spec.
		return nil, fmt.Errorf("recording trace of %q: %w", p.Name, err)
	}
	if s.disk != nil {
		if s.brk.Open() && !s.brk.Allow() {
			// Degraded and no probe due: serve from memory, skip the disk.
			return dec, nil
		}
		if err := s.persist(dec, key); err != nil {
			s.persistErrs.Add(1) // non-fatal: the trace serves from memory
			s.brk.Failure()
		} else {
			s.brk.Success()
		}
	}
	return dec, nil
}

// checkSummed splits a store file into its payload, verifying the leading
// whole-payload checksum. The trace format's own header authenticates the
// program and record count but not the event payload, so the store wraps
// each file in a SHA-256 of the trace bytes; anything that fails the
// check — truncation, bit rot, a pre-checksum store file — reads as
// corrupt and re-records.
func checkSummed(b []byte) ([]byte, bool) {
	if len(b) < sha256.Size {
		return nil, false
	}
	sum := sha256.Sum256(b[sha256.Size:])
	if !bytes.Equal(sum[:], b[:sha256.Size]) {
		return nil, false
	}
	return b[sha256.Size:], true
}

// persist writes the checksummed trace through the store's DirKV, whose
// atomic temp-file + rename write leaves either a complete file or none,
// and no *.tmp orphan on failure.
func (s *TraceStore) persist(dec *trace.Decoded, key string) error {
	var buf bytes.Buffer
	buf.Write(make([]byte, sha256.Size)) // checksum slot, filled below
	if _, err := dec.WriteTo(&buf); err != nil {
		return err
	}
	b := buf.Bytes()
	sum := sha256.Sum256(b[sha256.Size:])
	copy(b, sum[:])
	return s.disk.Put(key, b)
}

// evictLocked drops least-recently-used completed traces until the
// resident set fits the budget. The just-finished key is exempt — evicting
// what the caller is about to use would thrash. Callers already holding an
// evicted Decoded are unaffected; the store only forgets its own
// reference. Must be called with s.mu held.
func (s *TraceStore) evictLocked(keep traceKey) {
	for s.memUsed > s.memBudget {
		var victimKey traceKey
		var victim *traceEntry
		//arvi:unordered min-scan over unique lastUse ticks; the victim is order-independent
		for k, e := range s.entries {
			if !e.done || k == keep {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return // nothing evictable (only in-flight entries or keep)
		}
		delete(s.entries, victimKey)
		s.memUsed -= victim.bytes
	}
}
