package storage

import (
	"crypto/rand"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
)

// Tier is the persistence tier under the result cache: a directory of
// files, one per key, behind a circuit breaker, with a memory overlay for
// the writes the disk refused. The payload format, and any integrity
// check on it, belongs to the caller's codec; the tier only moves bytes.
//
//   - Files. Key k lives in dir/k+ext, written atomically (temp file +
//     rename) so a crash mid-write leaves the old file or none, never a
//     torn file a later read would half-trust; the temp file is removed
//     on any failure. Every write has its own temp name, k+ext, a random
//     token, then .tmp, so concurrent writers of one key (goroutines, or
//     processes sharing the directory) never rename or remove each
//     other's temp file. Keys are content addresses, so they write
//     identical bytes and whichever rename lands last installs them.
//   - Breaker. Reads skip the disk while the breaker is open, and a read
//     error other than not-exist feeds it. While it is open, writes park
//     in the overlay except the one probe per probation window. A failed
//     write feeds it; a successful one closes it.
//   - Overlay. A refused write parks its bytes in memory, where reads
//     still find them. Every successful write drops its own key from the
//     overlay and flushes the rest back to disk in sorted key order, so
//     an entry parked by a failure the breaker never tripped on is not
//     left memory-only. Keys are content addresses, so a parked entry is
//     exactly the bytes the disk would have held: degraded mode changes
//     durability, never results. The overlay is unbounded.
//   - Healing. Get hands the bytes to the caller's decoder; bytes it
//     rejects are removed from the overlay and from disk, so the next Put
//     rewrites the entry.
//
// All methods are safe for concurrent use.
type Tier struct {
	dir string
	fs  FS
	ext string
	brk *Breaker

	mu  sync.Mutex
	mem map[string][]byte // overlay of the writes the disk refused
}

// OpenTier opens (creating if needed) a tier over dir on fsys (nil: the
// real filesystem) that names each key's file key+ext, behind brk (nil:
// a default breaker).
func OpenTier(dir, ext string, fsys FS, brk *Breaker) (*Tier, error) {
	if dir == "" {
		return nil, fmt.Errorf("storage: empty tier directory")
	}
	if fsys == nil {
		fsys = OS{}
	}
	if brk == nil {
		brk = NewBreaker(0, 0)
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open tier: %w", err)
	}
	return &Tier{dir: dir, fs: fsys, ext: ext, brk: brk, mem: make(map[string][]byte)}, nil
}

// Dir returns the tier's directory.
func (t *Tier) Dir() string { return t.dir }

// Degraded reports whether the circuit breaker is open and the tier is
// serving memory-only.
func (t *Tier) Degraded() bool { return t.brk.Open() }

// Breaker exposes the tier's circuit breaker (for health reporting and
// tests).
func (t *Tier) Breaker() *Breaker { return t.brk }

// MemEntries reports how many entries currently live only in the
// degraded-mode overlay.
func (t *Tier) MemEntries() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.mem)
}

// Len counts the entries currently on disk.
func (t *Tier) Len() (int, error) {
	matches, err := filepath.Glob(filepath.Join(t.dir, "*"+t.ext))
	if err != nil {
		return 0, err
	}
	return len(matches), nil
}

func (t *Tier) path(key string) string { return filepath.Join(t.dir, key+t.ext) }

// Raw returns a key's stored bytes without interpreting them: the
// overlay first, then the disk. Get reads through it; tests and audits
// use it to compare entries byte for byte.
func (t *Tier) Raw(key string) ([]byte, bool) {
	t.mu.Lock()
	b, ok := t.mem[key]
	t.mu.Unlock()
	if ok {
		return b, true
	}
	if t.brk.Open() {
		return nil, false
	}
	b, err := t.fs.ReadFile(t.path(key))
	if err != nil {
		if !IsNotExist(err) {
			t.brk.Failure() // a disk fault, not an ordinary miss
		}
		return nil, false
	}
	return b, true
}

// Get hands a key's bytes (Raw: the overlay, then the disk) to accept,
// the caller's decoder, and reports whether it accepted them. Rejected
// bytes are removed, so the entry heals.
func (t *Tier) Get(key string, accept func([]byte) bool) bool {
	b, ok := t.Raw(key)
	if !ok {
		return false
	}
	if accept(b) {
		return true
	}
	t.discard(key)
	return false
}

// discard drops rejected bytes from the overlay and, while the disk is
// believed healthy, from disk.
func (t *Tier) discard(key string) {
	t.mu.Lock()
	delete(t.mem, key)
	t.mu.Unlock()
	if !t.brk.Open() {
		_ = t.fs.Remove(t.path(key)) // best-effort; leftover bytes are rejected again on the next read
	}
}

// Put lands an entry on disk, routing around a broken disk:
//
//   - breaker closed: write through; a failure feeds the breaker, parks
//     the bytes in the overlay (they still serve) and is returned.
//   - breaker open, no probe due: park, silently.
//   - breaker open, probe granted: write through; a failure feeds the
//     breaker and parks the bytes silently.
//
// The tier keeps b (parked, until flushed); the caller must not modify
// it afterwards.
func (t *Tier) Put(key string, b []byte) error {
	open := t.brk.Open()
	if open && !t.brk.Allow() {
		t.park(key, b)
		return nil
	}
	if err := t.write(key, b); err != nil {
		t.brk.Failure()
		t.park(key, b)
		if open {
			return nil
		}
		return fmt.Errorf("storage: put: %w", err)
	}
	t.brk.Success()
	t.mu.Lock()
	delete(t.mem, key)
	parked := len(t.mem)
	t.mu.Unlock()
	if parked > 0 {
		t.flush()
	}
	return nil
}

func (t *Tier) park(key string, b []byte) {
	t.mu.Lock()
	t.mem[key] = b
	t.mu.Unlock()
}

// flush writes every parked entry back to disk in sorted key order, so
// recovery is deterministic, dropping each from the overlay as it lands.
// A failure mid-flush feeds the breaker and leaves the remainder parked
// for the next successful write.
func (t *Tier) flush() {
	t.mu.Lock()
	keys := make([]string, 0, len(t.mem))
	//arvi:unordered keys are sorted before use
	for k := range t.mem {
		keys = append(keys, k)
	}
	pending := make(map[string][]byte, len(keys))
	for _, k := range keys {
		pending[k] = t.mem[k]
	}
	t.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		if err := t.write(k, pending[k]); err != nil {
			t.brk.Failure()
			return
		}
		t.mu.Lock()
		delete(t.mem, k)
		t.mu.Unlock()
	}
}

// write is the atomic temp+rename file write, through a temp file no
// other write uses. On any failure the temp file is removed: a
// half-written (ENOSPC) temp or an injected rename fault must not leave
// *.tmp orphans in the directory.
func (t *Tier) write(key string, b []byte) error {
	p := t.path(key)
	tmp := p + "." + rand.Text() + ".tmp"
	if err := t.fs.WriteFile(tmp, b, 0o644); err != nil {
		_ = t.fs.Remove(tmp)
		return err
	}
	if err := t.fs.Rename(tmp, p); err != nil {
		_ = t.fs.Remove(tmp)
		return err
	}
	return nil
}
