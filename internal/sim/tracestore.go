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
//   - With a backing directory, recorded traces persist on disk through
//     a storage.Tier (.trc files; the tier the result Cache runs on), so
//     later runs — or other processes — reload them instead of
//     re-executing the VM. The store keeps only the codec: each file is a
//     SHA-256 of the trace bytes followed by the bytes, and a file that
//     fails the checksum or the decode is removed and re-recorded
//     (self-heal). The tier owns the rest of the disk-fault protocol:
//     while its circuit breaker is open the disk is skipped and a fresh
//     recording parks, encoded, in the tier's memory overlay (a trace
//     evicted from memory then decodes from there), and the next
//     successful write flushes it to disk. Degraded mode affects
//     durability only — the trace bytes served are identical either way.
type TraceStore struct {
	dir       string        // "" = memory-only
	tier      *storage.Tier // nil for a memory-only store
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
	s := memTraceStore(memBudget, brk)
	if dir != "" {
		t, err := storage.OpenTier(dir, traceExt, fsys, s.brk)
		if err != nil {
			return nil, fmt.Errorf("sim: open trace store: %w", err)
		}
		s.dir, s.tier = dir, t
	}
	return s, nil
}

// memTraceStore builds a trace store without a backing directory, under
// OpenTraceStoreFS's budget and breaker defaults.
func memTraceStore(memBudget int64, brk *storage.Breaker) *TraceStore {
	if memBudget <= 0 {
		memBudget = DefaultTraceMemBudget
	}
	if brk == nil {
		brk = storage.NewBreaker(0, 0)
	}
	return &TraceStore{brk: brk, memBudget: memBudget, entries: make(map[traceKey]*traceEntry)}
}

// Dir returns the backing directory ("" for a memory-only store).
func (s *TraceStore) Dir() string { return s.dir }

// Degraded reports whether the circuit breaker is open and the store is
// serving memory-only despite having a backing directory.
func (s *TraceStore) Degraded() bool { return s.tier != nil && s.tier.Degraded() }

// Breaker exposes the store's circuit breaker (for health reporting and
// tests).
func (s *TraceStore) Breaker() *storage.Breaker { return s.brk }

// Recorded reports how many times the store actually executed the
// functional VM — the number every other request amortises away.
func (s *TraceStore) Recorded() int64 { return s.recorded.Load() }

// MemHits reports requests served from a resident decoded trace
// (including waiters coalesced onto an in-flight recording).
func (s *TraceStore) MemHits() int64 { return s.memHits.Load() }

// DiskHits reports requests served by decoding a stored trace: a file
// on disk, or an encoding parked in the tier's overlay.
func (s *TraceStore) DiskHits() int64 { return s.diskHits.Load() }

// PersistErrs reports the trace writes the tier reported as failed —
// those that failed while the breaker was closed (a failed probe is
// silent). Each such trace stayed served from memory and parked for the
// next successful write.
func (s *TraceStore) PersistErrs() int64 { return s.persistErrs.Load() }

// MemEntries reports how many encoded traces are parked in the tier's
// overlay, waiting for the disk (0 for a memory-only store).
func (s *TraceStore) MemEntries() int {
	if s.tier == nil {
		return 0
	}
	return s.tier.MemEntries()
}

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
	return filepath.Join(s.dir, diskKey(p, budget)+traceExt)
}

// traceExt is the extension of the store's trace files.
const traceExt = ".trc"

// diskKey names a program/budget pair's trace file in the store's
// directory (without the extension).
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

// acquire produces the decoded trace from the tier (overlay or disk) if
// possible, else by running the functional VM once and storing the
// result through the tier.
func (s *TraceStore) acquire(p *prog.Program, budget int64) (*trace.Decoded, error) {
	key := diskKey(p, budget)
	var dec *trace.Decoded
	if s.tier != nil && s.tier.Get(key, func(b []byte) bool {
		// A bit-corrupted read the trace format itself cannot detect
		// (event payloads carry no per-record redundancy) fails the
		// checksum instead; a rejected file is removed and re-recorded.
		payload, ok := checkSummed(b)
		if !ok {
			return false
		}
		var err error
		dec, err = trace.Decode(p, bytes.NewReader(payload))
		return err == nil
	}) {
		s.diskHits.Add(1)
		return dec, nil
	}
	s.recorded.Add(1)
	dec, err := trace.RecordAll(p, budget)
	if err != nil {
		// No "sim:" prefix: the engine's cell runner wraps this with the
		// full spec.
		return nil, fmt.Errorf("recording trace of %q: %w", p.Name, err)
	}
	if s.tier != nil {
		if err := s.tier.Put(key, encodeSummed(dec)); err != nil {
			s.persistErrs.Add(1) // non-fatal: the trace serves from memory
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

// encodeSummed encodes a trace as a store file: the checksum slot, then
// the trace bytes. The buffer is handed to the tier as is (it may park
// it), so the 6 MB default-budget encoding is never copied.
func encodeSummed(dec *trace.Decoded) []byte {
	var buf bytes.Buffer
	buf.Write(make([]byte, sha256.Size)) // checksum slot, filled below
	_, _ = dec.WriteTo(&buf)             // a bytes.Buffer write cannot fail
	b := buf.Bytes()
	sum := sha256.Sum256(b[sha256.Size:])
	copy(b, sum[:])
	return b
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
