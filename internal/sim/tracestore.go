package sim

import (
	"context"
	"fmt"
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
// cell:
//
//   - Entries are keyed by program fingerprint + instruction budget, the
//     two inputs that fully determine a correct-path trace.
//   - The first Get for a key records under a per-key singleflight;
//     concurrent requesters block on that one recording instead of
//     racing their own.
//   - Decoded traces are immutable in memory; any number of worker
//     goroutines replay one concurrently through private cursors.
//   - Resident decoded traces are bounded by a memory budget with LRU
//     eviction, so sweeps over many distinct programs or budgets do not
//     grow without bound. Evicted traces stay valid for replayers already
//     holding them (they hold the slice; the store merely drops its ref).
//
// The store lives in memory only: recording a benchmark's trace costs
// less than reading a persisted one back, so a new process records the
// traces it needs again.
type TraceStore struct {
	memBudget int64

	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	memUsed int64
	tick    int64

	recorded atomic.Int64
	memHits  atomic.Int64
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

// NewTraceStore returns an empty trace store holding at most memBudget
// bytes of decoded trace resident (<= 0 selects DefaultTraceMemBudget).
func NewTraceStore(memBudget int64) *TraceStore {
	if memBudget <= 0 {
		memBudget = DefaultTraceMemBudget
	}
	return &TraceStore{memBudget: memBudget, entries: make(map[traceKey]*traceEntry)}
}

// OpenTraceStore returns NewTraceStore(memBudget) and ignores dir.
//
// Deprecated: use NewTraceStore; the store keeps nothing on disk.
func OpenTraceStore(dir string, memBudget int64) (*TraceStore, error) {
	return NewTraceStore(memBudget), nil
}

// OpenTraceStoreFS returns NewTraceStore(memBudget) and ignores its other
// arguments.
//
// Deprecated: use NewTraceStore; the store keeps nothing on disk.
func OpenTraceStoreFS(dir string, memBudget int64, fsys storage.FS, brk *storage.Breaker) (*TraceStore, error) {
	return NewTraceStore(memBudget), nil
}

// Recorded reports how many times the store actually executed the
// functional VM — the number every other request amortises away.
func (s *TraceStore) Recorded() int64 { return s.recorded.Load() }

// MemHits reports requests served from a resident decoded trace
// (including waiters coalesced onto an in-flight recording).
func (s *TraceStore) MemHits() int64 { return s.memHits.Load() }

// DiskHits reports 0: the store has no disk tier.
//
// Deprecated: the store serves every trace from memory or a recording.
func (s *TraceStore) DiskHits() int64 { return 0 }

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

// Get returns the decoded correct-path trace of p at the given instruction
// budget (0 = to halt), recording it on first request. The returned
// Decoded is shared and read-only: replay it through Decoded.Cursor.
//
// A waiter coalesced onto another goroutine's in-flight recording gives
// up when ctx is canceled; the recording itself runs to completion —
// it is a shared resource other requesters still want, and a single
// recording is short relative to a sweep.
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

	s.recorded.Add(1)
	e.dec, e.err = trace.RecordAll(p, budget)
	if e.err != nil {
		// No "sim:" prefix: the engine's cell runner wraps this with the
		// full spec.
		e.err = fmt.Errorf("recording trace of %q: %w", p.Name, e.err)
	}
	close(e.ready)

	s.mu.Lock()
	if e.err != nil {
		// Do not poison the key: a failure (a VM fault in a since-fixed
		// program, say) retries on the next Get.
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
