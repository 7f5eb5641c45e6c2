package mem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCacheGeometryErrors(t *testing.T) {
	if _, err := NewCache("bad", 0, 4, 32, 1); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewCache("bad", 100, 4, 32, 1); err == nil {
		t.Error("non-divisible size accepted")
	}
	if _, err := NewCache("bad", 3*32*4, 4, 32, 1); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := NewCache("ok", 1<<10, 4, 32, 1); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := MustNewCache("t", 1<<10, 2, 32, 1) // 16 sets
	if c.Access(0) {
		t.Error("cold access must miss")
	}
	if !c.Access(0) || !c.Access(31) {
		t.Error("same line must hit")
	}
	if c.Access(32) {
		t.Error("next line must miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	if c.MissRate() != 0.5 {
		t.Errorf("miss rate = %v", c.MissRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := MustNewCache("t", 2*32*2, 2, 32, 1) // 2 sets, 2 ways
	// Three lines mapping to set 0: addresses 0, 128, 256 (set stride 64).
	c.Access(0)
	c.Access(128)
	c.Access(0)   // 0 is MRU, 128 LRU
	c.Access(256) // evicts 128
	if !c.Access(0) {
		t.Error("0 must survive")
	}
	if c.Access(128) {
		t.Error("128 must have been evicted")
	}
}

func TestCacheReset(t *testing.T) {
	c := MustNewCache("t", 1<<10, 2, 32, 1)
	c.Access(0)
	c.Reset()
	if c.Accesses() != 0 {
		t.Error("stats not reset")
	}
	if c.Access(0) {
		t.Error("contents not reset")
	}
}

func TestTLB(t *testing.T) {
	tl := MustNewTLB("t", 4, 2, 8<<10, 30)
	if got := tl.Access(0); got != 30 {
		t.Errorf("cold tlb = %d, want 30", got)
	}
	if got := tl.Access(8191); got != 0 {
		t.Errorf("same page = %d, want 0", got)
	}
	if got := tl.Access(8192); got != 30 {
		t.Errorf("next page = %d, want 30", got)
	}
	if tl.Hits() != 1 || tl.Misses() != 2 {
		t.Errorf("hits=%d misses=%d", tl.Hits(), tl.Misses())
	}
}

func TestLatenciesForDepth(t *testing.T) {
	l20, l40, l60 := LatenciesForDepth(20), LatenciesForDepth(40), LatenciesForDepth(60)
	if !(l20.L1Hit < l40.L1Hit && l40.L1Hit < l60.L1Hit) {
		t.Error("L1 latency must grow with depth")
	}
	if !(l20.Mem < l40.Mem && l40.Mem < l60.Mem) {
		t.Error("memory latency must grow with depth")
	}
}

func TestHierarchyDataAccess(t *testing.T) {
	h := NewHierarchy(Latencies{L1Hit: 2, L2Hit: 12, Mem: 80, TLBMis: 30})
	// Cold: TLB miss + L1 miss + L2 miss + memory.
	if got := h.DataAccess(1 << 20); got != 30+2+12+80 {
		t.Errorf("cold access = %d, want 124", got)
	}
	// Warm: L1 hit, TLB hit.
	if got := h.DataAccess(1 << 20); got != 2 {
		t.Errorf("warm access = %d, want 2", got)
	}
	// Same page, different L1 line, L2 now holds it? No: a new line is
	// cold everywhere except TLB.
	if got := h.DataAccess(1<<20 + 64); got != 2+12+80 {
		t.Errorf("new-line access = %d, want 94", got)
	}
}

func TestHierarchyFetch(t *testing.T) {
	h := NewHierarchy(Latencies{L1Hit: 2, L2Hit: 12, Mem: 80, TLBMis: 30})
	if got := h.FetchAccess(0); got != 30+12+80 {
		t.Errorf("cold fetch = %d, want 122", got)
	}
	if got := h.FetchAccess(1); got != 0 {
		t.Errorf("warm fetch = %d, want 0", got)
	}
	h.Reset()
	if h.L1I.Accesses() != 0 || h.ITLB.Misses() != 0 {
		t.Error("reset failed")
	}
}

// Property: hits + misses == accesses and a second access to the same
// address always hits (with a cache big enough not to self-evict within
// one pair).
func TestQuickCacheCoherentCounts(t *testing.T) {
	c := MustNewCache("q", 1<<14, 4, 32, 1)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Access(uint64(a)) {
				return false
			}
		}
		return c.Accesses() == c.Hits+c.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fullFetch is FetchAccess without its same-line fast path: every fetch
// does the ITLB lookup, the next-line install and the L1I lookup.
func fullFetch(h *Hierarchy, pc int) int {
	addr := uint64(pc) << 3
	lat := h.ITLB.Access(addr)
	h.L1I.Install(addr + uint64(h.L1I.LineB))
	if h.L1I.Access(addr) {
		return lat
	}
	if h.L2.Access(addr) {
		return lat + h.L2.HitLat
	}
	return lat + h.L2.HitLat + h.MemLat
}

// sameCache reports how a and b differ in counters or, when contents is
// set, in contents; "" when they agree.
func sameCache(a, b *Cache, contents bool) string {
	switch {
	case a.Hits != b.Hits || a.Misses != b.Misses:
		return "hit/miss counts"
	case !contents:
		return ""
	case !slices.Equal(a.tags, b.tags):
		return "tags"
	case !slices.Equal(a.lru, b.lru):
		return "lru"
	case !slices.Equal(a.valid, b.valid):
		return "valid"
	}
	return ""
}

// TestFetchMatchesFullLookup drives random pc walks through FetchAccess
// and through the full lookup on a twin hierarchy, and requires the same
// latency, counters and ITLB/L1I contents after every step. The walks mix
// straight-line runs, taken branches, returns to earlier lines, 8 KiB
// page crossings, data accesses (which share the L2) and resets, on the
// Table 2 hierarchy and on one whose single-set L1I the next-line
// prefetch can evict from under a repeated fetch.
func TestFetchMatchesFullLookup(t *testing.T) {
	lat := LatenciesForDepth(20)
	oneSet := func() *Hierarchy {
		h := NewHierarchy(lat)
		h.L1I = MustNewCache("l1i", 2*32, 2, 32, lat.L1Hit)
		h.ITLB = MustNewTLB("itlb", 4, 2, 8<<10, lat.TLBMis)
		return h
	}
	for _, geom := range []struct {
		name string
		new  func() *Hierarchy
	}{
		{"table2", func() *Hierarchy { return NewHierarchy(lat) }},
		{"one-set-l1i", oneSet},
	} {
		rng := rand.New(rand.NewSource(26))
		fast, full := geom.new(), geom.new()
		pc, back, last := 0, 0, -1
		repeats, slow := 0, 0
		for step := 0; step < 50_000; step++ {
			switch r := rng.Intn(100); {
			case r < 70: // straight line
				pc++
			case r < 80: // taken branch anywhere, across ITLB reach
				back = pc
				pc = rng.Intn(1 << 18)
			case r < 88: // return to the line a branch left
				pc = back + rng.Intn(4)
			case r < 94: // a short loop back
				pc = max(pc-rng.Intn(24), 0)
			case r < 98: // the next 8 KiB page (1024 instructions)
				pc += 1024 - pc%1024 + rng.Intn(8)
			case r < 99:
				a := uint64(rng.Intn(1 << 22))
				fast.DataAccess(a)
				full.DataAccess(a)
			default:
				fast.Reset()
				full.Reset()
			}
			if pc/4 == last/4 {
				repeats++ // four 8-byte instructions per 32-byte line
			}
			last = pc
			got, want := fast.FetchAccess(pc), fullFetch(full, pc)
			if want > 0 {
				slow++
			}
			if got != want {
				t.Fatalf("%s step %d pc %d: latency %d, full lookup %d", geom.name, step, pc, got, want)
			}
			for _, c := range []struct {
				name     string
				a, b     *Cache
				contents bool
			}{
				{"itlb", fast.ITLB.cache, full.ITLB.cache, true},
				{"l1i", fast.L1I, full.L1I, true},
				{"l2", fast.L2, full.L2, false},
			} {
				if d := sameCache(c.a, c.b, c.contents); d != "" {
					t.Fatalf("%s step %d pc %d: %s %s differ from the full lookup's", geom.name, step, pc, c.name, d)
				}
			}
		}
		if repeats == 0 || slow == 0 {
			t.Errorf("%s: the walk made %d same-line fetches and %d slow ones; it needs both", geom.name, repeats, slow)
		}
	}
}
