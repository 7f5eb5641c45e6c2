// Package mem models the memory hierarchy of Table 2: split 4-way L1
// instruction and data caches, a unified L2, instruction and data TLBs, and
// a flat main memory latency. Caches are set-associative with true-LRU
// replacement and are used purely for timing: data values live in the
// functional VM.
package mem

import "fmt"

// Cache is a set-associative cache with LRU replacement. It tracks hit and
// miss counts; Access returns whether the access hit.
type Cache struct {
	Name     string
	SizeB    int // total bytes
	Ways     int
	LineB    int // line size in bytes
	HitLat   int // hit latency in cycles
	sets     int
	lineBits uint
	setMask  uint64
	//arvi:len setways
	tags []uint64 // sets × ways
	//arvi:len setways
	lru []uint8 // sets × ways, 0 = MRU
	//arvi:len setways
	valid []bool

	Hits, Misses int64
}

// NewCache builds a cache. Size, ways and line size must be powers of two
// and consistent (size = sets × ways × line).
func NewCache(name string, sizeB, ways, lineB, hitLat int) (*Cache, error) {
	if sizeB <= 0 || ways <= 0 || lineB <= 0 {
		return nil, fmt.Errorf("mem: non-positive cache geometry %s", name)
	}
	if sizeB%(ways*lineB) != 0 {
		return nil, fmt.Errorf("mem: %s: size %d not divisible by ways*line %d", name, sizeB, ways*lineB)
	}
	sets := sizeB / (ways * lineB)
	if sets&(sets-1) != 0 || lineB&(lineB-1) != 0 {
		return nil, fmt.Errorf("mem: %s: sets (%d) and line (%d) must be powers of two", name, sets, lineB)
	}
	c := &Cache{
		Name: name, SizeB: sizeB, Ways: ways, LineB: lineB, HitLat: hitLat,
		sets:  sets,
		tags:  make([]uint64, sets*ways),
		lru:   make([]uint8, sets*ways),
		valid: make([]bool, sets*ways),
	}
	for lineB > 1 {
		lineB >>= 1
		c.lineBits++
	}
	c.setMask = uint64(sets - 1)
	return c, nil
}

// MustNewCache is NewCache but panics on configuration errors.
func MustNewCache(name string, sizeB, ways, lineB, hitLat int) *Cache {
	c, err := NewCache(name, sizeB, ways, lineB, hitLat)
	if err != nil {
		panic(err)
	}
	return c
}

// Access looks up addr, updating LRU state and filling the line on a miss.
// It returns true on a hit.
//
//arvi:hotpath
//arvi:panicfree set is masked below c.sets and w, victim below c.Ways, so base+w < c.sets*c.Ways == len(tags|lru|valid)
func (c *Cache) Access(addr uint64) bool {
	set := int((addr >> c.lineBits) & c.setMask)
	tag := addr >> c.lineBits
	base := set * c.Ways
	for w := 0; w < c.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.touch(base, w)
			c.Hits++
			return true
		}
	}
	c.Misses++
	// Victim: invalid way first, else true LRU (highest age).
	victim := 0
	var worst uint8
	for w := 0; w < c.Ways; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
		if c.lru[base+w] >= worst {
			worst = c.lru[base+w]
			victim = w
		}
	}
	c.valid[base+victim] = true
	c.tags[base+victim] = tag
	c.touch(base, victim)
	return false
}

//arvi:hotpath
//arvi:panicfree callers pass base = set*c.Ways with set < c.sets and way < c.Ways, so base+w stays below len(lru)
func (c *Cache) touch(base, way int) {
	old := c.lru[base+way]
	for w := 0; w < c.Ways; w++ {
		if c.lru[base+w] < old {
			c.lru[base+w]++
		}
	}
	c.lru[base+way] = 0
}

// Install fills the line containing addr without touching hit/miss
// statistics. It is used by the front end's next-line prefetcher.
//
//arvi:hotpath
//arvi:panicfree set is masked below c.sets and w, victim below c.Ways, so base+w < c.sets*c.Ways == len(tags|lru|valid)
func (c *Cache) Install(addr uint64) {
	set := int((addr >> c.lineBits) & c.setMask)
	tag := addr >> c.lineBits
	base := set * c.Ways
	for w := 0; w < c.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return // already present; leave LRU untouched
		}
	}
	victim := 0
	var worst uint8
	for w := 0; w < c.Ways; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
		if c.lru[base+w] >= worst {
			worst = c.lru[base+w]
			victim = w
		}
	}
	c.valid[base+victim] = true
	c.tags[base+victim] = tag
	c.touch(base, victim)
}

// Accesses returns the total access count.
//
//arvi:hotpath
func (c *Cache) Accesses() int64 { return c.Hits + c.Misses }

// MissRate returns misses/accesses (0 when unused).
//
//arvi:hotpath
func (c *Cache) MissRate() float64 {
	if t := c.Accesses(); t > 0 {
		return float64(c.Misses) / float64(t)
	}
	return 0
}

// Reset clears contents and statistics.
//
//arvi:hotpath
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.lru[i] = 0
		c.tags[i] = 0
	}
	c.Hits, c.Misses = 0, 0
}

// TLB is a set-associative translation lookaside buffer over fixed-size
// pages; structurally a Cache keyed by page number.
type TLB struct {
	cache    *Cache
	pageBits uint
	MissLat  int
}

// NewTLB builds a TLB with the given number of entries, associativity,
// page size and miss penalty.
func NewTLB(name string, entries, ways int, pageB, missLat int) (*TLB, error) {
	if pageB <= 0 || pageB&(pageB-1) != 0 {
		return nil, fmt.Errorf("mem: %s: page size must be a power of two", name)
	}
	// Reuse Cache with "line" = one entry (8 bytes nominal).
	c, err := NewCache(name, entries*8, ways, 8, 0)
	if err != nil {
		return nil, err
	}
	t := &TLB{cache: c, MissLat: missLat}
	for pageB > 1 {
		pageB >>= 1
		t.pageBits++
	}
	return t, nil
}

// MustNewTLB is NewTLB but panics on configuration errors.
func MustNewTLB(name string, entries, ways int, pageB, missLat int) *TLB {
	t, err := NewTLB(name, entries, ways, pageB, missLat)
	if err != nil {
		panic(err)
	}
	return t
}

// Access translates addr, returning the added latency (0 on hit, MissLat on
// a TLB miss).
//
//arvi:hotpath
func (t *TLB) Access(addr uint64) int {
	if t.cache.Access((addr >> t.pageBits) << 3) {
		return 0
	}
	return t.MissLat
}

// Hits and Misses expose the underlying counters.
//
//arvi:hotpath
func (t *TLB) Hits() int64 { return t.cache.Hits }

//arvi:hotpath
func (t *TLB) Misses() int64 { return t.cache.Misses }

// Reset clears contents and statistics.
//
//arvi:hotpath
func (t *TLB) Reset() { t.cache.Reset() }

// Hierarchy bundles the full Table 2 memory system. FetchAccess is the
// only user of L1I and ITLB: its same-line fast path relies on it.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	ITLB, DTLB   *TLB
	MemLat       int // main-memory latency in cycles

	// lastFetch is 1 + the L1I line number FetchAccess looked up last, or
	// 0 when a repeat of that lookup may not be a pure hit (after Reset,
	// or with a single-set L1I, where the next-line prefetch could evict
	// the line itself).
	lastFetch uint64
}

// Latencies groups the pipeline-depth-dependent latency knobs; see Table 2
// (the scanned values are partly garbled; DESIGN.md documents our choice).
type Latencies struct {
	L1Hit  int
	L2Hit  int
	Mem    int
	TLBMis int
}

// LatenciesForDepth returns the latency set for a 20/40/60-stage pipeline.
func LatenciesForDepth(depth int) Latencies {
	switch {
	case depth <= 20:
		return Latencies{L1Hit: 2, L2Hit: 12, Mem: 80, TLBMis: 30}
	case depth <= 40:
		return Latencies{L1Hit: 4, L2Hit: 24, Mem: 160, TLBMis: 30}
	default:
		return Latencies{L1Hit: 6, L2Hit: 36, Mem: 240, TLBMis: 30}
	}
}

// NewHierarchy builds the Table 2 configuration: 64 KB 4-way 32 B-line L1s,
// a 512 KB 4-way 64 B-line unified L2, 64-entry (16x4) ITLB and 128-entry
// (32x4) DTLB over 8 KB pages.
func NewHierarchy(lat Latencies) *Hierarchy {
	return &Hierarchy{
		L1I:    MustNewCache("l1i", 64<<10, 4, 32, lat.L1Hit),
		L1D:    MustNewCache("l1d", 64<<10, 4, 32, lat.L1Hit),
		L2:     MustNewCache("l2", 512<<10, 4, 64, lat.L2Hit),
		ITLB:   MustNewTLB("itlb", 64, 4, 8<<10, lat.TLBMis),
		DTLB:   MustNewTLB("dtlb", 128, 4, 8<<10, lat.TLBMis),
		MemLat: lat.Mem,
	}
}

// DataAccess returns the total latency of a data reference to addr
// (load or store timing), walking DTLB, L1D, L2 and memory.
//
//arvi:hotpath
func (h *Hierarchy) DataAccess(addr uint64) int {
	lat := h.DTLB.Access(addr)
	if h.L1D.Access(addr) {
		return lat + h.L1D.HitLat
	}
	if h.L2.Access(addr) {
		return lat + h.L1D.HitLat + h.L2.HitLat
	}
	return lat + h.L1D.HitLat + h.L2.HitLat + h.MemLat
}

// FetchAccess returns the added fetch latency for the instruction line
// containing pc (0 when the fetch hits the L1I with its pipelined port).
// pc is an instruction index; instructions are modelled 8 bytes each.
// A next-line prefetcher installs the sequentially following line so that
// straight-line code pays the miss latency only on fetch redirects.
//
// A fetch from the line looked up last only moves the ITLB and L1I hit
// counters. That is exactly what the full lookup would do: the last
// lookup left the line's page and the line itself most recently used,
// nothing else touches the ITLB or the L1I, so a repeat touch changes no
// replacement state; and the next-line install, already present, cannot
// have evicted the line while the L1I has more than one set.
//
//arvi:hotpath
func (h *Hierarchy) FetchAccess(pc int) int {
	addr := uint64(pc) << 3
	line := addr >> h.L1I.lineBits
	if line+1 == h.lastFetch {
		h.ITLB.cache.Hits++
		h.L1I.Hits++
		return 0
	}
	h.lastFetch = 0
	if h.L1I.sets > 1 {
		h.lastFetch = line + 1
	}
	lat := h.ITLB.Access(addr)
	h.L1I.Install(addr + uint64(h.L1I.LineB)) // next-line prefetch
	if h.L1I.Access(addr) {
		return lat // L1I hit latency is pipelined into the front end
	}
	if h.L2.Access(addr) {
		return lat + h.L2.HitLat
	}
	return lat + h.L2.HitLat + h.MemLat
}

// Reset clears every structure and its statistics.
//
//arvi:hotpath
func (h *Hierarchy) Reset() {
	h.lastFetch = 0
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.ITLB.Reset()
	h.DTLB.Reset()
}
