package sim

// Fuzz over the bytes of a cache entry's file: whatever a torn write, a
// bit flip, a hand edit or another build leaves on disk, the decode gate
// (decodeEntry) is the one check every read passes. The cache must never
// panic, never serve garbage as stats, and never let a malformed entry
// shadow or replace a real one.

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cpu"
)

var fuzzStats = cpu.Stats{Insts: 5000, Cycles: 7001, CondBranches: 900, Mispredicts: 41}

// validCacheEntry renders the canonical entry bytes for (cacheSpec,
// fuzzStats), the one input the decode gate must accept.
func validCacheEntry(tb testing.TB) []byte {
	tb.Helper()
	c, err := OpenCache(filepath.Join(tb.TempDir(), "seed"))
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Put(cacheSpec, fuzzStats); err != nil {
		tb.Fatal(err)
	}
	b, ok := c.Raw(c.Key(cacheSpec))
	if !ok {
		tb.Fatal("freshly put entry not readable back")
	}
	return b
}

func FuzzCacheEntry(f *testing.F) {
	valid := validCacheEntry(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"version"`), []byte(`"verzion"`), 1))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"key":"0000000000000000000000000000000000000000000000000000000000000000"}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := filepath.Join(t.TempDir(), "simcache")
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, c.Key(cacheSpec)+".json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		// These bytes as the entry's file: Get either serves the genuine
		// stats or misses and removes the file, so the entry heals.
		if st, ok := c.Get(cacheSpec); ok {
			if st != fuzzStats {
				t.Fatalf("entry bytes decoded to stats %+v that are not the entry's %+v", st, fuzzStats)
			}
		} else if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("rejected entry still on disk (stat: %v)", err)
		}

		// Whatever the file held, a real computation still lands and wins.
		if err := c.Put(cacheSpec, fuzzStats); err != nil {
			t.Fatalf("Put over fuzzed entry: %v", err)
		}
		st, ok := c.Get(cacheSpec)
		if !ok || st != fuzzStats {
			t.Fatalf("real entry not served after a fuzzed one: ok=%v %+v", ok, st)
		}
	})
}
