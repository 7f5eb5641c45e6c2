package storage

import (
	"sync"
	"time"
)

// Circuit-breaker defaults of the result cache's tier. Three consecutive
// faults on a local filesystem is already a strong signal of a broken
// disk (transient errors on local disks are rare; the caches retry
// across requests anyway), and a five-second probation keeps a broken
// disk from adding failed-syscall latency to every request while still
// recovering promptly once it heals.
const (
	DefaultBreakThreshold = 3
	DefaultProbation      = 5 * time.Second
)

// Breaker is a circuit breaker over a failure-prone resource (for the
// caches: the disk). It is closed until Threshold consecutive failures
// are recorded, then opens; while open, Allow denies access except for
// one probe per probation interval. A successful probe closes the
// breaker again; a failed probe restarts the probation clock.
//
// The zero value is not usable; build with NewBreaker. All methods are
// safe for concurrent use.
type Breaker struct {
	// Clock supplies the current time; tests inject a fake. Set it
	// before first use (it is read without the lock).
	Clock func() time.Time

	threshold int
	probation time.Duration

	mu        sync.Mutex
	fails     int
	open      bool
	lastDeny  time.Time // start of the current probation window
	openCount int64
}

// NewBreaker builds a breaker that opens after threshold consecutive
// failures and probes every probation interval (<= 0 select the
// defaults).
func NewBreaker(threshold int, probation time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakThreshold
	}
	if probation <= 0 {
		probation = DefaultProbation
	}
	return &Breaker{Clock: time.Now, threshold: threshold, probation: probation}
}

// Allow reports whether the caller may attempt the guarded operation.
// Closed: always. Open: only as the probe, once per probation interval —
// the caller that gets true MUST report the outcome via Success or
// Failure, or the next probe waits a full interval.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	now := b.Clock()
	if now.Sub(b.lastDeny) >= b.probation {
		// Grant the probe and restart the window, so a second caller
		// arriving before the probe's outcome does not pile on.
		b.lastDeny = now
		return true
	}
	return false
}

// Success records a successful operation: the failure run ends and the
// breaker closes (a successful probe is how a recovered disk comes
// back).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.open = false
}

// Failure records a failed operation; after the threshold-th consecutive
// failure the breaker opens. While open (a failed probe) it restarts the
// probation window.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.Clock()
	if b.open {
		b.lastDeny = now
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.open = true
		b.lastDeny = now
		b.openCount++
	}
}

// Open reports whether the breaker is currently open (the guarded
// resource is considered down; callers should use their fallback).
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// Trips reports how many times the breaker has opened over its lifetime.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openCount
}
