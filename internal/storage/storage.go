// Package storage is the persistence layer under internal/sim's result
// Cache. The cache runs on one Tier, which owns the disk-fault protocol:
// injecting disk faults deterministically in tests, and degrading to
// memory-only operation when a real disk misbehaves.
//
// The package has four parts:
//
//   - FS, the five-operation filesystem interface the tier consumes,
//     with OS as the obvious real implementation.
//   - FaultFS, a deterministic fault-injecting decorator (fail-Nth-op,
//     ENOSPC, torn write, bit-corrupt read) powering the chaos suites in
//     internal/sim and internal/server. Schedules are pure data, so a
//     failing chaos run reproduces from its seed.
//   - Breaker, the circuit breaker that stops the tier hammering a
//     persistently failing disk: after a run of consecutive failures the
//     breaker opens and the tier serves memory-only, with backoff-timed
//     probe writes re-enabling disk once it recovers. See
//     DESIGN.md's failure domains section for the thresholds and the
//     probation rule.
//   - Tier, one directory of atomically written files behind a Breaker,
//     with the degraded-mode overlay and self-healing reads through the
//     caller's decoder.
package storage

import (
	"errors"
	"io/fs"
	"os"
)

// FS is the filesystem surface the persistence layers need. The contract
// matches the os package functions of the same names; implementations
// must be safe for concurrent use.
type FS interface {
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	MkdirAll(path string, perm os.FileMode) error
	Remove(name string) error
}

// OS is the real filesystem.
type OS struct{}

// ReadFile implements FS via os.ReadFile.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// WriteFile implements FS via os.WriteFile.
func (OS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// Rename implements FS via os.Rename.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// MkdirAll implements FS via os.MkdirAll.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Remove implements FS via os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// IsNotExist reports whether err means the file does not exist. The
// tier uses it to tell an ordinary miss from a disk *fault*: only the
// latter feeds the circuit breaker.
func IsNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}
