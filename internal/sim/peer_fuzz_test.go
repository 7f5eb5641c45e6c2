package sim

// Fuzz over the cache-peer wire format: whatever bytes a peer serves
// (or PUTs at us), the typed read path is the gate — the cache must
// never panic, never serve garbage as stats, and never let a malformed
// entry shadow or replace a real one. This is the never-poison half of
// the distributed-cache contract; internal/dist's stream fuzz covers
// the other wire format.

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"testing"

	"repro/internal/cpu"
)

// fuzzPeerKV is an in-memory peer backend serving exactly the bytes the
// fuzzer chose — the moral equivalent of a confused or hostile peer
// daemon, without an HTTP server per fuzz iteration.
type fuzzPeerKV struct{ data map[string][]byte }

func (p *fuzzPeerKV) Get(key string) ([]byte, error) {
	if b, ok := p.data[key]; ok {
		return b, nil
	}
	return nil, fs.ErrNotExist
}
func (p *fuzzPeerKV) Put(key string, b []byte) error {
	p.data[key] = append([]byte(nil), b...)
	return nil
}

var fuzzStats = cpu.Stats{Insts: 5000, Cycles: 7001, CondBranches: 900, Mispredicts: 41}

// validPeerEntry renders the canonical entry bytes for (cacheSpec,
// fuzzStats) — the one input the peer path must accept.
func validPeerEntry(tb testing.TB) []byte {
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

func FuzzPeerEntry(f *testing.F) {
	valid := validPeerEntry(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"version"`), []byte(`"verzion"`), 1))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"key":"0000000000000000000000000000000000000000000000000000000000000000"}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := OpenCache(filepath.Join(t.TempDir(), "simcache"))
		if err != nil {
			t.Fatal(err)
		}
		key := c.Key(cacheSpec)

		// A peer serving these bytes: Get must return either a miss or the
		// genuine stats — never garbage, never a panic.
		c.SetPeers(&fuzzPeerKV{data: map[string][]byte{key: raw}}, false)
		if st, ok := c.Get(cacheSpec); ok {
			if st != fuzzStats {
				t.Fatalf("peer bytes decoded to stats %+v that are not the entry's %+v", st, fuzzStats)
			}
			// A served entry was replicated locally; the replica must decode
			// identically (a valid-looking entry must not corrupt the store).
			if st2, ok2 := c.Get(cacheSpec); !ok2 || st2 != st {
				t.Fatalf("replicated entry drifted: ok=%v %+v", ok2, st2)
			}
		}

		// The same bytes PUT at us: either rejected outright, or admitted
		// and then still subject to the typed gate on read.
		if err := c.PutRaw(key, raw); err == nil {
			if st, ok := c.Get(cacheSpec); ok && st != fuzzStats {
				t.Fatalf("PutRaw bytes served as stats %+v", st)
			}
		}

		// Whatever the peer did, a real computation still lands and wins.
		if err := c.Put(cacheSpec, fuzzStats); err != nil {
			t.Fatalf("Put after peer traffic: %v", err)
		}
		st, ok := c.Get(cacheSpec)
		if !ok || st != fuzzStats {
			t.Fatalf("real entry not served after peer traffic: ok=%v %+v", ok, st)
		}
	})
}
