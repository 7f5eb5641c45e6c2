package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

func newDDT(t *testing.T, cfg Config) *DDT {
	t.Helper()
	d, err := NewDDT(cfg)
	if err != nil {
		t.Fatalf("NewDDT: %v", err)
	}
	return d
}

func mustInsert(t *testing.T, d *DDT, tgt PhysReg, srcs []PhysReg, isLoad bool) int {
	t.Helper()
	e, err := d.Insert(tgt, srcs, isLoad)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return e
}

func setOf(v bitvec.Vec) map[int]bool {
	m := map[int]bool{}
	v.ForEach(func(i int) { m[i] = true })
	return m
}

func wantSet(t *testing.T, got bitvec.Vec, want ...int) {
	t.Helper()
	g := setOf(got)
	if len(g) != len(want) {
		t.Fatalf("set = %v, want %v", keys(g), want)
	}
	for _, w := range want {
		if !g[w] {
			t.Fatalf("set = %v, want %v", keys(g), want)
		}
	}
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestPaperFigure1And3 replays the worked example from the paper's Figures 1
// and 3 (0-based entries, physical registers p1..p8):
//
//	e0: load p1, (p2)
//	e1: add  p4 <- p1 + p3
//	e2: or   p5 <- p4 | p1
//	e3: sub  p6 <- p5 - p4
//	e4: add  p7 <- p1 + 1
//	e5: add  p8 <- p4 + p7
//	    beq  p8, 0
func TestPaperFigure1And3(t *testing.T) {
	d := newDDT(t, Config{Entries: 9, PhysRegs: 10})
	p := func(n int) PhysReg { return PhysReg(n) }

	mustInsert(t, d, p(1), []PhysReg{p(2)}, true)        // e0 load
	mustInsert(t, d, p(4), []PhysReg{p(1), p(3)}, false) // e1
	mustInsert(t, d, p(5), []PhysReg{p(4), p(1)}, false) // e2
	mustInsert(t, d, p(6), []PhysReg{p(5), p(4)}, false) // e3
	mustInsert(t, d, p(7), []PhysReg{p(1)}, false)       // e4

	// Figure 1 top state.
	wantSet(t, d.Chain(p(1)), 0)
	wantSet(t, d.Chain(p(4)), 0, 1)
	wantSet(t, d.Chain(p(5)), 0, 1, 2)
	wantSet(t, d.Chain(p(6)), 0, 1, 2, 3)
	wantSet(t, d.Chain(p(7)), 0, 4)

	// Figure 1 bottom: inserting "add p8 <- p4 + p7" yields chain
	// {load, add, add, own} = entries 0, 1, 4, 5.
	e5 := mustInsert(t, d, p(8), []PhysReg{p(4), p(7)}, false)
	if e5 != 5 {
		t.Fatalf("entry = %d, want 5", e5)
	}
	wantSet(t, d.Chain(p(8)), 0, 1, 4, 5)

	// Figure 3: the branch reads p8; the leaf register set is {p1, p3}.
	// p4 and p7 are eliminated (produced within the chain); p1 survives
	// because loads are chain terminators; p3 survives because its
	// producer already committed.
	chain, set, depth := d.LeafSet([]PhysReg{p(8)})
	wantSet(t, chain, 0, 1, 4, 5)
	wantSet(t, set, 1, 3)
	// Furthest-back chain member is the load at entry 0; head is 6.
	if depth != 6 {
		t.Errorf("depth = %d, want 6", depth)
	}
}

func TestSelfDependence(t *testing.T) {
	d := newDDT(t, Config{Entries: 4, PhysRegs: 8})
	e := mustInsert(t, d, 3, nil, false)
	wantSet(t, d.Chain(3), e)
}

func TestCommitRemovesFromChains(t *testing.T) {
	d := newDDT(t, Config{Entries: 8, PhysRegs: 8})
	mustInsert(t, d, 1, nil, false)             // e0
	mustInsert(t, d, 2, []PhysReg{1}, false)    // e1
	mustInsert(t, d, 3, []PhysReg{2, 1}, false) // e2
	wantSet(t, d.Chain(3), 0, 1, 2)

	if e, err := d.Commit(); err != nil || e != 0 {
		t.Fatalf("Commit = %d, %v", e, err)
	}
	wantSet(t, d.Chain(3), 1, 2)
	d.Commit()
	wantSet(t, d.Chain(3), 2)
	d.Commit()
	wantSet(t, d.Chain(3)) // empty: its own producer committed
	if d.Len() != 0 {
		t.Errorf("len = %d, want 0", d.Len())
	}
	if _, err := d.Commit(); err == nil {
		t.Error("commit on empty DDT must fail")
	}
}

func TestFullAndWraparoundReuse(t *testing.T) {
	const n = 4
	d := newDDT(t, Config{Entries: n, PhysRegs: 16})
	// Fill the table with a chain 1 <- 2 <- 3 <- 4.
	for i := 0; i < n; i++ {
		var srcs []PhysReg
		if i > 0 {
			srcs = []PhysReg{PhysReg(i)}
		}
		mustInsert(t, d, PhysReg(i+1), srcs, false)
	}
	if !d.Full() {
		t.Fatal("table must be full")
	}
	if _, err := d.Insert(9, nil, false); err == nil {
		t.Fatal("insert into full table must fail")
	}
	// Retire the two oldest, then insert two more that reuse entries 0,1.
	d.Commit()
	d.Commit()
	e, _ := d.Insert(5, []PhysReg{4}, false) // reuses entry 0
	if e != 0 {
		t.Fatalf("reused entry = %d, want 0", e)
	}
	// p4's row had bit 0 (stale from committed p1's chain). The chain of
	// p5 must not contain the *old* instruction: it contains entry 0 only
	// as p5's own new producer plus live parts of p4's chain (2, 3).
	wantSet(t, d.Chain(5), 0, 2, 3)
	// p2's row still references committed entries only; chain must hide
	// them. p2 itself committed, so its chain is empty.
	wantSet(t, d.Chain(2))
	// Crucially: the stale bit for old entry 1 must have been wiped from
	// p4's row once entry 1 is reused; otherwise p4's chain would alias
	// the new instruction.
	e2, _ := d.Insert(6, nil, false) // reuses entry 1
	if e2 != 1 {
		t.Fatalf("reused entry = %d, want 1", e2)
	}
	wantSet(t, d.Chain(4), 2, 3)
}

func TestRollback(t *testing.T) {
	d := newDDT(t, Config{Entries: 8, PhysRegs: 8})
	mustInsert(t, d, 1, nil, false)          // e0
	mustInsert(t, d, 2, []PhysReg{1}, false) // e1 branch shadow: these two squash
	mustInsert(t, d, 3, []PhysReg{2}, false) // e2
	if err := d.Rollback(2); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if d.Len() != 1 || d.Head() != 1 {
		t.Fatalf("len=%d head=%d after rollback", d.Len(), d.Head())
	}
	// Chains of live registers must not include squashed entries. (Rows of
	// squashed *targets* like p2/p3 are dead until their registers are
	// re-allocated by the renamer, so they are not read.)
	wantSet(t, d.Chain(1), 0)
	// Re-insert along the other path, reusing entry 1.
	e := mustInsert(t, d, 4, []PhysReg{1}, false)
	if e != 1 {
		t.Fatalf("entry after rollback = %d, want 1", e)
	}
	wantSet(t, d.Chain(4), 0, 1)
	if err := d.Rollback(5); err == nil {
		t.Error("rollback beyond in-flight count must fail")
	}
}

func TestLoadsTerminateRSEButNotDDT(t *testing.T) {
	d := newDDT(t, Config{Entries: 8, PhysRegs: 16})
	// addr producer -> load -> consumer -> branch
	mustInsert(t, d, 1, nil, false)          // e0: addr = ...
	mustInsert(t, d, 2, []PhysReg{1}, true)  // e1: load p2, (p1)
	mustInsert(t, d, 3, []PhysReg{2}, false) // e2: p3 = f(p2)
	// Literal circuit semantics: the DDT chain flows through the load to
	// the address producer.
	wantSet(t, d.Chain(3), 0, 1, 2)
	// The RSE set contains the load's target (terminator, never marked T)
	// and the address producer's leaf... the address producer e0 has no
	// sources, so only its own target p1 is marked T, removing nothing.
	_, set, _ := d.LeafSet([]PhysReg{3})
	wantSet(t, set, 2) // p2 is a leaf; p1 is killed by e0's T mark
}

func TestCutAtLoadsAblation(t *testing.T) {
	d := newDDT(t, Config{Entries: 8, PhysRegs: 16, CutAtLoads: true})
	mustInsert(t, d, 1, nil, false)          // e0
	mustInsert(t, d, 2, []PhysReg{1}, true)  // e1: load
	mustInsert(t, d, 3, []PhysReg{2}, false) // e2
	// The load's row holds only its own bit: chains stop at loads.
	wantSet(t, d.Chain(2), 1)
	wantSet(t, d.Chain(3), 1, 2)
	_, set, _ := d.LeafSet([]PhysReg{3})
	wantSet(t, set, 2)
}

func TestExtractSetBranchOwnSources(t *testing.T) {
	d := newDDT(t, Config{Entries: 8, PhysRegs: 16})
	// Branch whose source has a committed producer: empty chain, the set
	// is just the branch's own source registers.
	chain, set, depth := d.LeafSet([]PhysReg{5, 7})
	if chain.Any() || depth != 0 {
		t.Errorf("chain=%v depth=%d, want empty/0", setOf(chain), depth)
	}
	wantSet(t, set, 5, 7)
}

func TestDepthWraparound(t *testing.T) {
	d := newDDT(t, Config{Entries: 4, PhysRegs: 8})
	mustInsert(t, d, 1, nil, false)          // e0
	mustInsert(t, d, 2, nil, false)          // e1
	mustInsert(t, d, 3, nil, false)          // e2
	d.Commit()                               // retire e0
	d.Commit()                               // retire e1
	mustInsert(t, d, 4, []PhysReg{3}, false) // e3
	mustInsert(t, d, 5, []PhysReg{4}, false) // e0 (wrapped)
	// head is now 1. Chain of p5 = {2, 3, 0}. Ages: e2 -> (1-2+4)=3,
	// e3 -> 2, e0 -> 1. Depth = 3, despite e0 having wrapped past head.
	chain := d.Chain(5)
	wantSet(t, chain, 0, 2, 3)
	if got := d.Depth(chain); got != 3 {
		t.Errorf("depth = %d, want 3", got)
	}
}

func TestDepCounts(t *testing.T) {
	d := newDDT(t, Config{Entries: 8, PhysRegs: 8, TrackDepCounts: true})
	e0 := mustInsert(t, d, 1, nil, false)
	e1 := mustInsert(t, d, 2, []PhysReg{1}, false)
	mustInsert(t, d, 3, []PhysReg{2}, false)
	mustInsert(t, d, 4, []PhysReg{1}, false)
	// e0 is in the chains of e1, e2 (via p2) and e3: count 3.
	if got := d.DepCount(e0); got != 3 {
		t.Errorf("DepCount(e0) = %d, want 3", got)
	}
	if got := d.DepCount(e1); got != 1 {
		t.Errorf("DepCount(e1) = %d, want 1", got)
	}
}

func TestDepCountPanicsWhenDisabled(t *testing.T) {
	d := newDDT(t, Config{Entries: 4, PhysRegs: 4})
	defer func() {
		if recover() == nil {
			t.Error("DepCount without TrackDepCounts must panic")
		}
	}()
	d.DepCount(0)
}

func TestOwnerAndFlags(t *testing.T) {
	d := newDDT(t, Config{Entries: 4, PhysRegs: 8})
	e := mustInsert(t, d, 6, nil, true)
	if d.Owner(e) != 6 || !d.EntryIsLoad(e) || !d.InFlight(e) {
		t.Error("owner/load/inflight bookkeeping wrong")
	}
	b := mustInsert(t, d, NoPReg, []PhysReg{6}, false)
	if d.Owner(b) != NoPReg || d.EntryIsLoad(b) {
		t.Error("branch entry bookkeeping wrong")
	}
	d.Commit()
	if d.InFlight(e) || d.Owner(e) != NoPReg {
		t.Error("commit must clear owner/valid")
	}
}

func TestBitsAndConfig(t *testing.T) {
	// The paper's Alpha 21264 sizing: 80 entries x 72 physical registers
	// = 5760 matrix bits (730 bytes) + 80 valid bits.
	d := newDDT(t, Config{Entries: 80, PhysRegs: 72})
	if got := d.Bits(); got != 5760+80 {
		t.Errorf("Bits = %d, want 5840", got)
	}
	if d.Config().Entries != 80 {
		t.Error("config not preserved")
	}
	if _, err := NewDDT(Config{Entries: 0, PhysRegs: 4}); err == nil {
		t.Error("zero-entry config accepted")
	}
}

// refModel is an executable specification of the DDT used by the random
// property test: chains are kept as explicit sets with the same
// insert/commit semantics.
type refModel struct {
	chains   map[PhysReg]map[int]bool
	inflight map[int]bool
}

func newRefModel() *refModel {
	return &refModel{chains: map[PhysReg]map[int]bool{}, inflight: map[int]bool{}}
}

func (r *refModel) insert(e int, tgt PhysReg, srcs []PhysReg) {
	// Column clear on reuse: stale references to a previous occupant of
	// entry e must not alias the new instruction.
	for _, c := range r.chains {
		delete(c, e)
	}
	r.inflight[e] = true
	if tgt == NoPReg {
		return
	}
	nc := map[int]bool{e: true}
	for _, s := range srcs {
		for x := range r.chains[s] {
			if r.inflight[x] {
				nc[x] = true
			}
		}
	}
	r.chains[tgt] = nc
}

func (r *refModel) commit(e int) { delete(r.inflight, e) }

func (r *refModel) chain(p PhysReg) map[int]bool {
	out := map[int]bool{}
	for x := range r.chains[p] {
		if r.inflight[x] {
			out[x] = true
		}
	}
	return out
}

// TestRandomAgainstReference drives the DDT with a renamed random
// instruction stream and checks every chain read against the reference
// model, including entry reuse after wraparound.
func TestRandomAgainstReference(t *testing.T) {
	const (
		entries  = 16
		physRegs = 48
		logical  = 8
		steps    = 20000
	)
	rng := rand.New(rand.NewSource(42))
	d := newDDT(t, Config{Entries: entries, PhysRegs: physRegs})
	ref := newRefModel()

	// Miniature renamer.
	var mapTable [logical]PhysReg
	freeList := []PhysReg{}
	for p := logical; p < physRegs; p++ {
		freeList = append(freeList, PhysReg(p))
	}
	for l := 0; l < logical; l++ {
		mapTable[l] = PhysReg(l)
	}
	type inflight struct{ oldMapping PhysReg }
	var window []inflight

	for i := 0; i < steps; i++ {
		if d.Len() > 0 && (d.Full() || rng.Intn(3) == 0) {
			e, err := d.Commit()
			if err != nil {
				t.Fatal(err)
			}
			ref.commit(e)
			old := window[0].oldMapping
			window = window[1:]
			if old != NoPReg {
				freeList = append(freeList, old)
			}
			continue
		}
		nsrc := rng.Intn(3)
		var srcs []PhysReg
		for k := 0; k < nsrc; k++ {
			srcs = append(srcs, mapTable[rng.Intn(logical)])
		}
		isLoad := rng.Intn(5) == 0
		tgt := NoPReg
		old := NoPReg
		if rng.Intn(10) != 0 { // most instructions have a destination
			l := rng.Intn(logical)
			tgt = freeList[0]
			freeList = freeList[1:]
			old = mapTable[l]
			mapTable[l] = tgt
		}
		e, err := d.Insert(tgt, srcs, isLoad)
		if err != nil {
			t.Fatal(err)
		}
		ref.insert(e, tgt, srcs)
		window = append(window, inflight{oldMapping: old})

		// Verify the chain of every current mapping.
		for l := 0; l < logical; l++ {
			p := mapTable[l]
			got := setOf(d.Chain(p))
			want := ref.chain(p)
			if len(got) != len(want) {
				t.Fatalf("step %d: chain(p%d) = %v, want %v", i, p, keys(got), keys(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("step %d: chain(p%d) = %v, want %v", i, p, keys(got), keys(want))
				}
			}
		}
	}
}

func TestChainInto(t *testing.T) {
	d := newDDT(t, Config{Entries: 8, PhysRegs: 16})
	mustInsert(t, d, 1, nil, false)
	mustInsert(t, d, 2, []PhysReg{1}, false)
	mustInsert(t, d, 3, []PhysReg{2}, false)
	dst := bitvec.New(8)
	d.ChainInto(dst, []PhysReg{3})
	if !dst.Equal(d.Chain(3)) {
		t.Errorf("ChainInto = %v, Chain = %v", setOf(dst), setOf(d.Chain(3)))
	}
	// The buffer is caller-owned: a second read overwrites it completely.
	d.ChainInto(dst, []PhysReg{1})
	wantSet(t, dst, 0)
}

func TestReset(t *testing.T) {
	d := newDDT(t, Config{Entries: 8, PhysRegs: 16, TrackDepCounts: true})
	mustInsert(t, d, 1, nil, false)
	mustInsert(t, d, 2, []PhysReg{1}, true)
	d.Commit()
	d.Reset()
	if d.Len() != 0 || d.Head() != 0 || d.Tail() != 0 {
		t.Fatalf("len=%d head=%d tail=%d after reset", d.Len(), d.Head(), d.Tail())
	}
	// Dirty rows from the previous run must be unreadable (stamp masking).
	wantSet(t, d.Chain(1))
	wantSet(t, d.Chain(2))
	e := mustInsert(t, d, 2, []PhysReg{1}, false)
	if e != 0 {
		t.Fatalf("entry after reset = %d, want 0", e)
	}
	wantSet(t, d.Chain(2), 0)
	if d.DepCount(0) != 0 {
		t.Errorf("DepCount after reset = %d", d.DepCount(0))
	}
}

// fuzzRef extends refModel into a full executable specification: chains,
// RSE marks, dependent counters, cut-at-loads semantics and rollback. It is
// the oracle that pins the epoch/stamp-based lazy column invalidation to
// the paper's eager-clear semantics.
type fuzzRef struct {
	cut      bool
	chains   map[PhysReg]map[int]bool
	inflight map[int]bool
	src, tgt map[int][]PhysReg // live RSE marks per entry ([] for loads)
	depCount map[int]int
}

func newFuzzRef(cut bool) *fuzzRef {
	return &fuzzRef{
		cut:      cut,
		chains:   map[PhysReg]map[int]bool{},
		inflight: map[int]bool{},
		src:      map[int][]PhysReg{},
		tgt:      map[int][]PhysReg{},
		depCount: map[int]int{},
	}
}

func (r *fuzzRef) chain(p PhysReg) map[int]bool {
	out := map[int]bool{}
	for x := range r.chains[p] {
		if r.inflight[x] {
			out[x] = true
		}
	}
	return out
}

func (r *fuzzRef) gather(srcs []PhysReg) map[int]bool {
	out := map[int]bool{}
	for _, s := range srcs {
		for x := range r.chain(s) {
			out[x] = true
		}
	}
	return out
}

func (r *fuzzRef) insert(e int, tgt PhysReg, srcs []PhysReg, isLoad bool) {
	for _, c := range r.chains {
		delete(c, e) // column clear on reuse
	}
	r.inflight[e] = true
	r.depCount[e] = 0
	if isLoad {
		r.src[e], r.tgt[e] = nil, nil
	} else {
		r.src[e] = append([]PhysReg(nil), srcs...)
		if tgt != NoPReg {
			r.tgt[e] = []PhysReg{tgt}
		} else {
			r.tgt[e] = nil
		}
	}
	if tgt == NoPReg {
		return
	}
	if isLoad && r.cut {
		r.chains[tgt] = map[int]bool{e: true}
		return
	}
	nc := r.gather(srcs)
	for x := range nc {
		r.depCount[x]++
	}
	nc[e] = true
	r.chains[tgt] = nc
}

func (r *fuzzRef) commit(e int)   { delete(r.inflight, e); r.depCount[e] = 0 }
func (r *fuzzRef) rollback(e int) { delete(r.inflight, e); r.depCount[e] = 0 }

// leafSet computes the RSE read over a chain: S & ^T plus the branch's own
// sources.
func (r *fuzzRef) leafSet(chain map[int]bool, branchSrcs []PhysReg) map[PhysReg]bool {
	s := map[PhysReg]bool{}
	t := map[PhysReg]bool{}
	for e := range chain {
		for _, x := range r.src[e] {
			s[x] = true
		}
		for _, x := range r.tgt[e] {
			t[x] = true
		}
	}
	for _, x := range branchSrcs {
		s[x] = true
	}
	for x := range t {
		delete(s, x)
	}
	return s
}

// TestRandomizedProgramFuzz drives the DDT with a renamed random program —
// inserts, commits, misprediction rollbacks with rename-map restore, loads,
// several full wraparounds past Entries — across the config matrix
// (TrackDepCounts × CutAtLoads), checking every chain, the dependent
// counters, the depth key, the full LeafSet read and the incremental RSE
// aggregate invariants against the executable reference model after every
// mutation, then Resets the table and runs a second program on the pooled
// instance (the engine-pool reuse path). This is the safety net for the
// lazy-invalidation and incremental-aggregate rewrites: any stale-bit
// aliasing the stamp masking misses, and any counter drift the delta
// updates accumulate, shows up here.
func TestRandomizedProgramFuzz(t *testing.T) {
	for _, cfg := range []Config{
		{Entries: 16, PhysRegs: 48},
		{Entries: 16, PhysRegs: 48, TrackDepCounts: true},
		{Entries: 16, PhysRegs: 48, CutAtLoads: true},
		{Entries: 16, PhysRegs: 48, TrackDepCounts: true, CutAtLoads: true},
		{Entries: 64, PhysRegs: 100, TrackDepCounts: true},
	} {
		cfg := cfg
		name := fmt.Sprintf("e%d_dep%v_cut%v", cfg.Entries, cfg.TrackDepCounts, cfg.CutAtLoads)
		t.Run(name, func(t *testing.T) {
			const logical = 8
			rng := rand.New(rand.NewSource(7))
			d := newDDT(t, cfg)
			runProgram(t, d, rng, cfg, logical, 20000)
			// Pooled-engine path: Reset must leave no reachable stale
			// state — matrix, summaries, marks or aggregates.
			d.Reset()
			runProgram(t, d, rng, cfg, logical, 10000)
		})
	}
}

// runProgram drives one random renamed program against d, checking the
// table against the reference model after every mutation.
func runProgram(t *testing.T, d *DDT, rng *rand.Rand, cfg Config, logical, steps int) {
	t.Helper()
	ref := newFuzzRef(cfg.CutAtLoads)

	// Miniature renamer with rollback checkpoints.
	mapTable := make([]PhysReg, logical)
	var freeList []PhysReg
	for p := logical; p < cfg.PhysRegs; p++ {
		freeList = append(freeList, PhysReg(p))
	}
	for l := 0; l < logical; l++ {
		mapTable[l] = PhysReg(l)
	}
	type slot struct {
		entry      int
		logicalDst int // -1 if none
		newMapping PhysReg
		oldMapping PhysReg
	}
	var window []slot
	inserts := 0

	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); {
		case d.Len() > 0 && (d.Full() || op < 3):
			// Commit the oldest.
			e, err := d.Commit()
			if err != nil {
				t.Fatal(err)
			}
			ref.commit(e)
			old := window[0].oldMapping
			window = window[1:]
			if old != NoPReg {
				freeList = append(freeList, old)
			}
		case d.Len() > 1 && op < 4:
			// Misprediction rollback of 1..Len-1 youngest, with
			// rename checkpoint restore (youngest first).
			n := 1 + rng.Intn(d.Len()-1)
			if err := d.Rollback(n); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				s := window[len(window)-1]
				window = window[:len(window)-1]
				ref.rollback(s.entry)
				if s.logicalDst >= 0 {
					mapTable[s.logicalDst] = s.oldMapping
					freeList = append([]PhysReg{s.newMapping}, freeList...)
				}
			}
		default:
			nsrc := rng.Intn(3)
			var srcs []PhysReg
			for k := 0; k < nsrc; k++ {
				srcs = append(srcs, mapTable[rng.Intn(logical)])
			}
			isLoad := rng.Intn(5) == 0
			tgt, old := NoPReg, NoPReg
			ldst := -1
			if rng.Intn(10) != 0 {
				ldst = rng.Intn(logical)
				tgt = freeList[0]
				freeList = freeList[1:]
				old = mapTable[ldst]
				mapTable[ldst] = tgt
			}
			e, err := d.Insert(tgt, srcs, isLoad)
			if err != nil {
				t.Fatal(err)
			}
			inserts++
			ref.insert(e, tgt, srcs, isLoad)
			window = append(window, slot{entry: e, logicalDst: ldst, newMapping: tgt, oldMapping: old})
		}

		// Verify every live mapping's chain, plus depth/leaf reads.
		for l := 0; l < logical; l++ {
			p := mapTable[l]
			chain := d.Chain(p)
			got := setOf(chain)
			want := ref.chain(p)
			if len(got) != len(want) {
				t.Fatalf("step %d: chain(p%d) = %v, want %v", i, p, keys(got), keys(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("step %d: chain(p%d) = %v, want %v", i, p, keys(got), keys(want))
				}
			}
			// Depth must equal the max circular age over members.
			wantDepth := 0
			for e := range want {
				if a := d.Age(e); a > wantDepth {
					wantDepth = a
				}
			}
			if got := d.Depth(chain); got != wantDepth {
				t.Fatalf("step %d: depth(p%d) = %d, want %d", i, p, got, wantDepth)
			}
		}

		if cfg.TrackDepCounts {
			for _, s := range window {
				if got, want := d.DepCount(s.entry), ref.depCount[s.entry]; got != want {
					t.Fatalf("step %d: depCount(e%d) = %d, want %d", i, s.entry, got, want)
				}
			}
		}

		// Full ARVI front-end read on a random branch after every
		// mutation: the incremental leaf set and depth key against
		// the from-scratch reference recompute.
		branchSrcs := []PhysReg{mapTable[rng.Intn(logical)], mapTable[rng.Intn(logical)]}
		chain, set, depth := d.LeafSet(branchSrcs)
		wantLeaves := ref.leafSet(setOf(chain), branchSrcs)
		gotLeaves := setOf(set)
		if len(gotLeaves) != len(wantLeaves) {
			t.Fatalf("step %d: leafSet = %v, want %v", i, keys(gotLeaves), wantLeaves)
		}
		for r := range wantLeaves {
			if !gotLeaves[int(r)] {
				t.Fatalf("step %d: leafSet = %v, want %v", i, keys(gotLeaves), wantLeaves)
			}
		}
		wantDepth := 0
		for e := range setOf(chain) {
			if a := d.Age(e); a > wantDepth {
				wantDepth = a
			}
		}
		if depth != wantDepth {
			t.Fatalf("step %d: LeafSet depth = %d, want %d", i, depth, wantDepth)
		}
		// The running aggregate counters must match a from-scratch
		// recompute over the tracked chain and sparse marks.
		if err := d.VerifyRSEAggregates(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if inserts < 4*cfg.Entries {
		t.Fatalf("fuzz wrapped the table only %d/%d inserts", inserts, 4*cfg.Entries)
	}
}

// TestStaleWidthMatchesBruteForce drives random Insert, Commit and
// Rollback sequences and requires staleWidth to equal a count over the
// live window — the live entries allocated after the stamp — for row
// stamps, for the stamps on either side of live allocations, and for 0
// and the newest stamp. It runs at the Table 2 window, which fills and
// wraps, and at a small one that wraps many times, and requires both the
// gap-free-run subtraction and the binary search to have answered.
func TestStaleWidthMatchesBruteForce(t *testing.T) {
	for _, cfg := range []Config{{Entries: 256, PhysRegs: 296}, {Entries: 12, PhysRegs: 20}} {
		rng := rand.New(rand.NewSource(26))
		d := newDDT(t, cfg)
		inRun, searched := 0, 0
		check := func(step int, stamp int64) {
			want := 0
			for age := 1; age <= d.count; age++ {
				if d.allocSeq[d.entryAt(age)] > stamp {
					want++
				}
			}
			if got := d.staleWidth(stamp); got != want {
				t.Fatalf("%d entries, step %d: staleWidth(%d) = %d, brute force %d (seq %d, run from %d, %d live)",
					cfg.Entries, step, stamp, got, want, d.seq, d.runStart, d.count)
			}
			if d.count > 0 && d.allocSeq[d.entryAt(1)] > stamp {
				if d.runStart != 0 && stamp >= d.runStart-1 {
					inRun++
				} else {
					searched++
				}
			}
		}
		wraps := 0
		for step := 0; step < 20_000; step++ {
			switch r := rng.Intn(40); {
			case r < 24 && !d.Full():
				src := []PhysReg{PhysReg(rng.Intn(cfg.PhysRegs))}
				if e := mustInsert(t, d, PhysReg(rng.Intn(cfg.PhysRegs)), src, rng.Intn(4) == 0); e == cfg.Entries-1 {
					wraps++
				}
			case r < 38 && d.Len() > 0:
				if _, err := d.Commit(); err != nil {
					t.Fatal(err)
				}
			case d.Len() > 0:
				if err := d.Rollback(rng.Intn(min(d.Len(), 12) + 1)); err != nil {
					t.Fatal(err)
				}
			}
			check(step, 0)
			check(step, d.seq)
			for k := 0; k < 8; k++ {
				check(step, d.rowStamp[rng.Intn(cfg.PhysRegs)])
				if d.count > 0 {
					a := d.allocSeq[d.entryAt(1+rng.Intn(d.count))]
					check(step, a-1)
					check(step, a)
				}
			}
		}
		if wraps < 2 {
			t.Errorf("%d entries: the head wrapped %d times; want at least 2", cfg.Entries, wraps)
		}
		if inRun == 0 || searched == 0 {
			t.Errorf("%d entries: %d answers from the run, %d from the search; want both", cfg.Entries, inRun, searched)
		}
	}
}
