// Package core implements the paper's primary contribution: the Data
// Dependence Table (DDT) of Section 2 and the Register Set Extractor (RSE)
// of Section 4.2.
//
// The DDT is a RAM with one row per physical register and one column per
// in-flight instruction (ROB entry). Bit (r, e) means "the current value of
// physical register r is data dependent on the in-flight instruction in
// entry e". On insertion of an instruction with target register t and
// sources s1, s2 the hardware computes
//
//	DDT[t] = (DDT[s1] | DDT[s2]) & ValidVector | ownBit
//
// Entries are allocated in circular FIFO order with head/tail pointers, like
// the ROB. Commit clears the instruction's valid bit, which removes it from
// every chain on subsequent reads; misprediction rollback rewinds the head
// pointer.
//
// # Lazy column invalidation
//
// The hardware clears an entry's column in every row before reuse (a wired
// columnwise clear, free in silicon). Software emulating that literally
// pays an O(PhysRegs) cache-hostile strided walk on every insert — it was
// 40% of total simulation time. This implementation instead stamps work
// with a monotone 64-bit allocation counter: every row records the count at
// which it was last written (rowStamp) and every entry records the count at
// which its current occupant arrived (allocSeq). A bit (r, e) is stale
// exactly when entry e was re-allocated after row r was written, i.e.
// allocSeq[e] > rowStamp[r]. Because entries are allocated in FIFO order,
// allocSeq is monotone over the live window, so the stale bits of a row
// form one circular range ending at the head — found with an O(log Entries)
// binary search and masked with an O(Entries/64) fused pass. Insert cost
// therefore tracks the live chain width, not the table height, and the
// 63-bit counter cannot wrap in any feasible run (2^63 inserts), so no
// amortized restamping sweep is ever needed.
//
// The RSE is a parallel matrix holding a 2-bit Source/Target code per
// (register, entry) cell. Loads leave their cells unset — they terminate
// dependence chains for ARVI. Reading the RSE with a chain bit vector as the
// column enable yields the branch's leaf register set: registers used as a
// source by some enabled instruction and produced by none. The hardware
// OR-reduces the enabled columns combinationally every cycle; software
// paying that reduction per branch made ExtractSet the dominant kernel, so
// this implementation maintains the reduction incrementally instead. Each
// entry stores its marks sparsely (at most maxEntryMarks distinct source
// registers plus one target — the ISA carries at most two sources), and the
// table keeps running aggregates over the most recently extracted chain:
// per-register multiset counters (srcCnt/tgtCnt) and their nonzero-bit
// projections (aggS/aggT). ExtractSet diffs the requested chain against the
// previous one word by word, retracting departed entries and adopting new
// ones, so a read costs O(chain delta) instead of O(chain × registers);
// insert evicts the reused slot from the tracked chain before overwriting
// its marks, and commit/rollback need no bookkeeping at all because chains
// are always masked by the valid vector before extraction. The invariant,
// delta rules and rollback argument are spelled out in
// DESIGN.md's incremental RSE maintenance section.
//
// Dependence rows additionally carry a 64-bit word summary (rowSum, bit w
// set when row word w may be nonzero) so chain gathering on wide machines
// skips dead words; the summary is exact at row-write time and a superset
// forever after, which is all the sparse bitvec kernels require.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
)

// PhysReg names a physical register (a DDT row).
type PhysReg uint16

// NoPReg marks the absence of a target register (branches, stores, NOPs).
const NoPReg = PhysReg(0xffff)

// Config sizes the DDT and selects optional behaviours.
type Config struct {
	// Entries is the number of instruction columns; it must equal the
	// processor's in-flight instruction window (ROB size).
	Entries int
	// PhysRegs is the number of physical registers (rows).
	PhysRegs int
	// CutAtLoads, when set, stores only the load's own bit in its target
	// row instead of also inheriting the address-computation chain. This
	// is the ablation discussed in DESIGN.md: the paper's circuit ORs the
	// address chain into the row and only stops *marking* at loads.
	CutAtLoads bool
	// TrackDepCounts enables the Section 3 extension: a per-entry counter
	// of how many subsequently inserted instructions depend on the entry,
	// usable for issue prioritisation and selective value prediction.
	TrackDepCounts bool
}

// maxEntryMarks bounds the distinct source registers one entry can mark in
// the RSE. The ISA encodes at most two sources per instruction; four leaves
// slack for synthetic tests while keeping per-entry mark storage fixed.
const maxEntryMarks = 4

func (c Config) validate() error {
	if c.Entries <= 0 || c.PhysRegs <= 0 {
		return fmt.Errorf("core: non-positive DDT dimensions %+v", c)
	}
	if c.Entries > 4096 {
		// The per-row word summary is a single uint64: 64 words, 4096 bits.
		return fmt.Errorf("core: %d entries exceeds the 4096 row-summary limit", c.Entries)
	}
	return nil
}

// DDT is the Data Dependence Table together with its companion RSE planes.
type DDT struct {
	cfg   Config
	words int // words per row

	rows []uint64 // PhysRegs rows × words, flat
	//arvi:len entries
	valid bitvec.Vec

	// Lazy column invalidation (see the package comment).
	seq      int64   // monotone allocation counter; 0 = nothing inserted
	rowStamp []int64 // per register: seq when its row was last written
	//arvi:len entries
	allocSeq []int64 // per entry: seq when its current occupant arrived
	// runStart is the allocSeq at which the youngest gap-free allocation
	// run began: no rollback has happened since, so the live entries
	// allocated at or after it are the youngest and carry consecutive
	// stamps. 0 when a rollback ended the run and no Insert has started
	// another.
	runStart int64

	// rowSum[r] bit w is set when word w of register r's row may be
	// nonzero: exact when the row is written, a superset afterwards (bits
	// in the row can only go stale, never appear). Guides the sparse chain
	// gather so wide mostly-empty rows skip dead words.
	rowSum []uint64

	// RSE marks, stored sparsely per entry: up to maxEntryMarks distinct
	// source registers (markSrcs/markLen) and one target (markTgt; NoPReg
	// when targetless). Loads store no marks — they terminate chains. The
	// hardware stores the same information as 2-bit cells per (register,
	// entry); the representation change is exact.
	markSrcs []PhysReg // Entries × maxEntryMarks
	//arvi:len entries
	markLen []uint8 // per entry: live prefix of its markSrcs block
	//arvi:len entries
	markTgt []PhysReg // per entry

	// Incremental RSE aggregates over lastChain, the chain most recently
	// passed to ExtractSet: srcCnt[r]/tgtCnt[r] count the lastChain entries
	// marking register r, and aggS/aggT hold their nonzero bits, so the
	// leaf set is aggS &^ aggT with no per-entry reduction at read time.
	srcCnt, tgtCnt []uint16
	//arvi:len physregs
	aggS bitvec.Vec
	//arvi:len physregs
	aggT bitvec.Vec
	//arvi:len entries
	lastChain bitvec.Vec

	//arvi:len entries
	owner []PhysReg // entry -> target register (NoPReg if none)
	//arvi:len entries
	isLoad bitvec.Vec

	// head is the entry the next Insert will use; tail is the oldest
	// in-flight entry. Both are maintained in [0, Entries) by the ring
	// arithmetic of next/prev — count alone may reach Entries.
	//arvi:idx entries
	head int
	//arvi:idx entries
	tail  int
	count int

	depCount []int32 // optional Section 3 extension

	// scratch buffers reused across calls

	//arvi:scratch
	//arvi:len entries
	chainBuf bitvec.Vec
	//arvi:scratch
	//arvi:len entries
	keepBuf bitvec.Vec
	//arvi:scratch
	//arvi:len physregs
	setBuf bitvec.Vec
}

// NewDDT allocates a DDT.
func NewDDT(cfg Config) (*DDT, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &DDT{
		cfg:       cfg,
		words:     bitvec.WordsFor(cfg.Entries),
		valid:     bitvec.New(cfg.Entries),
		rowStamp:  make([]int64, cfg.PhysRegs),
		allocSeq:  make([]int64, cfg.Entries),
		rowSum:    make([]uint64, cfg.PhysRegs),
		markSrcs:  make([]PhysReg, cfg.Entries*maxEntryMarks),
		markLen:   make([]uint8, cfg.Entries),
		markTgt:   make([]PhysReg, cfg.Entries),
		srcCnt:    make([]uint16, cfg.PhysRegs),
		tgtCnt:    make([]uint16, cfg.PhysRegs),
		aggS:      bitvec.New(cfg.PhysRegs),
		aggT:      bitvec.New(cfg.PhysRegs),
		lastChain: bitvec.New(cfg.Entries),
		owner:     make([]PhysReg, cfg.Entries),
		isLoad:    bitvec.New(cfg.Entries),
	}
	d.rows = make([]uint64, cfg.PhysRegs*d.words)
	for i := range d.owner {
		d.owner[i] = NoPReg
	}
	for i := range d.markTgt {
		d.markTgt[i] = NoPReg
	}
	if cfg.TrackDepCounts {
		d.depCount = make([]int32, cfg.Entries)
	}
	d.chainBuf = bitvec.New(cfg.Entries)
	d.keepBuf = bitvec.New(cfg.Entries)
	d.setBuf = bitvec.New(cfg.PhysRegs)
	return d, nil
}

// MustNewDDT is NewDDT but panics on configuration errors.
func MustNewDDT(cfg Config) *DDT {
	d, err := NewDDT(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Reset returns the table to its freshly constructed state without
// re-allocating. The dependence matrix, its word summaries and the sparse
// marks are deliberately left dirty: a row is only ever read through its
// stamp (stamp zero masks every live entry, so stale matrix content and its
// summary are unreachable), and marks are only ever read through lastChain,
// which Reset empties — the reset cost is O(Entries + PhysRegs), not
// O(Entries × PhysRegs).
//
//arvi:hotpath
func (d *DDT) Reset() {
	d.seq, d.runStart = 0, 0
	clear(d.rowStamp)
	clear(d.allocSeq)
	d.valid.Reset()
	d.isLoad.Reset()
	for i := range d.owner {
		d.owner[i] = NoPReg
	}
	d.head, d.tail, d.count = 0, 0, 0
	if d.depCount != nil {
		clear(d.depCount)
	}
	clear(d.srcCnt)
	clear(d.tgtCnt)
	d.aggS.Reset()
	d.aggT.Reset()
	d.lastChain.Reset()
}

// Config returns the table's configuration.
func (d *DDT) Config() Config { return d.cfg }

// Len returns the number of in-flight (valid) entries.
//
//arvi:hotpath
func (d *DDT) Len() int { return d.count }

// Full reports whether every entry is occupied.
//
//arvi:hotpath
func (d *DDT) Full() bool { return d.count == d.cfg.Entries }

// Head returns the entry index that the next Insert will use.
//
//arvi:hotpath
func (d *DDT) Head() int { return d.head }

// Tail returns the oldest in-flight entry index.
//
//arvi:hotpath
func (d *DDT) Tail() int { return d.tail }

// row returns the Entries-wide dependence row of register r, aliasing the
// flat matrix.
//
//arvi:hotpath
//arvi:len entries
//arvi:panicfree r is a live physical register below cfg.PhysRegs (rename contract) and rows holds PhysRegs*words words, so the window fits
func (d *DDT) row(r PhysReg) bitvec.Vec {
	off := int(r) * d.words
	return bitvec.Vec(d.rows[off : off+d.words])
}

// entryAt returns the entry index of the live instruction with the given
// age (1 = most recently inserted). Callers pass 1 <= age <= count, so the
// single wrap lands the result back in [0, Entries).
//
//arvi:hotpath
//arvi:idx entries
func (d *DDT) entryAt(age int) int {
	e := d.head - age
	if e < 0 {
		e += d.cfg.Entries
	}
	return e
}

// staleWidth returns how many of the youngest live entries were allocated
// after a row written at the given stamp — the width of the circular range
// below the head whose bits in that row are stale aliases and must be
// masked on read. When the stamp falls inside the youngest gap-free run
// the stamps above it are consecutive and the width is a subtraction;
// otherwise, since allocSeq is monotone over the live window (FIFO
// allocation), a binary search over ages finds it.
//
//arvi:hotpath
func (d *DDT) staleWidth(stamp int64) int {
	n := d.count
	if n == 0 {
		return 0
	}
	youngest := d.allocSeq[d.entryAt(1)]
	if youngest <= stamp {
		return 0 // row written at or after the youngest live allocation
	}
	if d.runStart != 0 && stamp >= d.runStart-1 {
		// Every live entry allocated after the stamp is in the run, whose
		// live entries are the youngest and carry consecutive stamps.
		return int(min(youngest-stamp, int64(n)))
	}
	if d.allocSeq[d.entryAt(n)] > stamp {
		return n // row predates every live allocation
	}
	// Invariant: allocSeq[entryAt(lo)] > stamp >= allocSeq[entryAt(hi)].
	lo, hi := 1, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if d.allocSeq[d.entryAt(mid)] > stamp {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// gatherChain writes (OR of valid source-row bits) & valid into dst and
// returns its exact word summary: the reset-then-accumulate order matches
// the hardware read, so dst may alias a source row (the aliased source then
// contributes nothing, exactly like the wired read-modify-write). Stale row
// bits — entries re-allocated since the row was written — are masked per
// source via staleWidth. Row reads are summary-guided: only words rowSum
// flags are touched, so wide mostly-empty rows cost their live words.
//
//arvi:hotpath
//arvi:panicfree srcs hold live physical registers below cfg.PhysRegs (rename contract), which sizes rowStamp and rowSum
func (d *DDT) gatherChain(dst bitvec.Vec, srcs []PhysReg) uint64 {
	dst.Reset()
	var sum uint64
	for _, s := range srcs {
		if s == NoPReg {
			continue
		}
		k := d.staleWidth(d.rowStamp[s])
		switch {
		case k == 0:
			//arvi:lencheck dst is Entries-wide by ChainInto's documented contract
			sum |= dst.OrSparse(d.row(s), d.rowSum[s])
		case k == d.count:
			// Every live entry is younger than the row: nothing genuine
			// can survive the valid mask, skip the row read entirely.
		default:
			keep := d.keepBuf
			keep.Fill()
			if start := d.head - k; start >= 0 {
				keep.ClearRange(start, d.head)
			} else {
				keep.ClearRange(start+d.cfg.Entries, d.cfg.Entries)
				keep.ClearRange(0, d.head)
			}
			//arvi:lencheck dst is Entries-wide by ChainInto's documented contract
			sum |= dst.OrAndSparse(d.row(s), keep, d.rowSum[s])
		}
	}
	//arvi:lencheck dst is Entries-wide by ChainInto's documented contract
	return dst.AndSparse(d.valid, sum)
}

// Insert allocates the next instruction entry and updates the target row.
// tgt is NoPReg for instructions without a register destination (branches,
// stores); srcs are the source physical registers (duplicates allowed, at
// most maxEntryMarks distinct for a non-load). isLoad marks chain
// terminators for the RSE. It returns the allocated entry index, or an
// error when the table is full.
//
//arvi:hotpath
func (d *DDT) Insert(tgt PhysReg, srcs []PhysReg, isLoad bool) (int, error) {
	if d.Full() {
		//arvi:cold callers check Full before inserting; this is the misuse path
		return 0, fmt.Errorf("core: DDT full (%d entries)", d.cfg.Entries)
	}
	if len(srcs) > maxEntryMarks && !isLoad && tooManyDistinct(srcs) {
		//arvi:cold the ISA carries at most two sources; this is the misuse path
		return 0, fmt.Errorf("core: more than %d distinct source registers", maxEntryMarks)
	}
	e := d.head
	d.seq++
	d.allocSeq[e] = d.seq
	if d.runStart == 0 {
		d.runStart = d.seq
	}

	// The slot being reused may still be counted in the tracked chain's
	// aggregates; retract it while its old marks are still readable.
	if d.lastChain.Get(e) {
		d.lastChain.Clear(e)
		d.retractEntry(e)
	}

	// RSE marks, stored sparsely and deduplicated so each live (entry,
	// register) pair counts once in the aggregates; loads intentionally
	// store none (chain terminators, Figure 3's '*' cells).
	n := 0
	if !isLoad {
		//arvi:panicfree e < Entries and markSrcs is Entries*maxEntryMarks long, so entry e's window fits
		ms := d.markSrcs[e*maxEntryMarks : e*maxEntryMarks+maxEntryMarks]
		for _, s := range srcs {
			if s == NoPReg {
				continue
			}
			dup := false
			for i := 0; i < n; i++ {
				//arvi:panicfree n counts writes into ms, so i < n stays below the window length
				if ms[i] == s {
					dup = true
					break
				}
			}
			if !dup {
				//arvi:panicfree the tooManyDistinct guard bounds the distinct-source count, so n < maxEntryMarks == len(ms) here
				ms[n] = s
				n++
			}
		}
	}
	d.markLen[e] = uint8(n)
	if !isLoad && tgt != NoPReg {
		d.markTgt[e] = tgt
	} else {
		d.markTgt[e] = NoPReg
	}

	if tgt != NoPReg {
		row := d.row(tgt)
		var sum uint64
		if isLoad && d.cfg.CutAtLoads {
			row.Reset()
		} else {
			sum = d.gatherChain(row, srcs)
		}
		row.Set(e)
		//arvi:panicfree tgt is a live physical register below cfg.PhysRegs (rename contract), which sizes rowSum
		d.rowSum[tgt] = sum | 1<<uint(e>>6)
		//arvi:panicfree same rename contract: tgt < cfg.PhysRegs == len(rowStamp)
		d.rowStamp[tgt] = d.seq
	}

	if d.depCount != nil {
		//arvi:panicfree depCount is Entries-long whenever construction allocated it
		d.depCount[e] = 0
		if tgt != NoPReg && !(isLoad && d.cfg.CutAtLoads) {
			// Every chain entry gains one more trailing dependent.
			d.gatherChain(d.chainBuf, srcs)
			for wi, w := range d.chainBuf {
				base := wi << 6
				for w != 0 {
					//arvi:panicfree chainBuf is Entries bits wide, so every set bit position is below Entries == len(depCount)
					d.depCount[base+bits.TrailingZeros64(w)]++
					w &= w - 1
				}
			}
		}
	}

	d.valid.Set(e)
	d.owner[e] = tgt
	if isLoad {
		d.isLoad.Set(e)
	} else {
		d.isLoad.Clear(e)
	}
	d.head = d.next(e)
	d.count++
	return e, nil
}

// tooManyDistinct reports whether srcs names more than maxEntryMarks
// distinct physical registers. Only reached when len(srcs) exceeds the
// bound, which the ISA's two-source limit makes a misuse path; still
// allocation-free since Insert's guard condition evaluates it inline.
//
//arvi:hotpath
func tooManyDistinct(srcs []PhysReg) bool {
	distinct := 0
	for i, s := range srcs {
		if s == NoPReg {
			continue
		}
		seen := false
		for _, p := range srcs[:i] {
			if p == s {
				seen = true
				break
			}
		}
		if !seen {
			distinct++
		}
	}
	return distinct > maxEntryMarks
}

// retractEntry removes entry e's marks from the aggregate counters; the
// caller clears its lastChain bit. Must run against the same mark contents
// adoptEntry counted — Insert therefore evicts a slot before rewriting it.
//
//arvi:hotpath
//arvi:panicfree e is a chain bit index below Entries (chains are Entries bits wide), so its mark window fits, and marks hold registers below cfg.PhysRegs
func (d *DDT) retractEntry(e int) {
	off := e * maxEntryMarks
	for i := 0; i < int(d.markLen[e]); i++ {
		s := d.markSrcs[off+i]
		d.srcCnt[s]--
		if d.srcCnt[s] == 0 {
			d.aggS.Clear(int(s))
		}
	}
	if t := d.markTgt[e]; t != NoPReg {
		d.tgtCnt[t]--
		if d.tgtCnt[t] == 0 {
			d.aggT.Clear(int(t))
		}
	}
}

// adoptEntry adds entry e's marks to the aggregate counters; the caller
// sets its lastChain bit.
//
//arvi:hotpath
//arvi:panicfree e is a chain bit index below Entries (chains are Entries bits wide), so its mark window fits, and marks hold registers below cfg.PhysRegs
func (d *DDT) adoptEntry(e int) {
	off := e * maxEntryMarks
	for i := 0; i < int(d.markLen[e]); i++ {
		s := d.markSrcs[off+i]
		d.srcCnt[s]++
		if d.srcCnt[s] == 1 {
			d.aggS.Set(int(s))
		}
	}
	if t := d.markTgt[e]; t != NoPReg {
		d.tgtCnt[t]++
		if d.tgtCnt[t] == 1 {
			d.aggT.Set(int(t))
		}
	}
}

//arvi:hotpath
//arvi:idx entries
func (d *DDT) next(e int) int {
	e++
	if e == d.cfg.Entries {
		return 0
	}
	return e
}

//arvi:hotpath
//arvi:idx entries
func (d *DDT) prev(e int) int {
	if e == 0 {
		return d.cfg.Entries - 1
	}
	return e - 1
}

// ChainInto writes the dependence chain for the given source registers —
// the set of in-flight instruction entries the registers' current values
// transitively depend on — into dst, which must be sized for
// Config().Entries bits. It is the allocation-free form of Chain for
// callers reading chains per instruction (the timing engine, the SMT
// study, ddtviz).
//
//arvi:hotpath
func (d *DDT) ChainInto(dst bitvec.Vec, srcs []PhysReg) {
	d.gatherChain(dst, srcs)
}

// Chain returns a copy of the dependence chain for the given source
// registers. It allocates; per-instruction readers should use ChainInto
// with a reused buffer.
func (d *DDT) Chain(srcs ...PhysReg) bitvec.Vec {
	out := bitvec.New(d.cfg.Entries)
	d.gatherChain(out, srcs)
	return out
}

// Commit retires the oldest entry: its valid bit is cleared (removing it
// from all future chain reads) and the tail pointer advances. It returns
// the retired entry index.
//
//arvi:hotpath
func (d *DDT) Commit() (int, error) {
	if d.count == 0 {
		//arvi:cold commit on an empty table is a caller bug, not a steady state
		return 0, fmt.Errorf("core: commit on empty DDT")
	}
	e := d.tail
	d.valid.Clear(e)
	d.owner[e] = NoPReg
	if d.depCount != nil {
		//arvi:panicfree depCount is Entries-long whenever construction allocated it, and e = d.tail is a ring index
		d.depCount[e] = 0
	}
	d.tail = d.next(e)
	d.count--
	return e, nil
}

// Rollback squashes all entries younger than or equal to the given count of
// squashed instructions: it rewinds the head pointer by n entries, clearing
// their valid bits, exactly as the ROB pointer rewind the paper describes.
//
//arvi:hotpath
func (d *DDT) Rollback(n int) error {
	if n < 0 || n > d.count {
		//arvi:cold out-of-range rollback is a caller bug, not a steady state
		return fmt.Errorf("core: rollback %d of %d in-flight", n, d.count)
	}
	d.runStart = 0 // the rewound stamps leave a gap before the next Insert's
	for i := 0; i < n; i++ {
		d.head = d.prev(d.head)
		d.valid.Clear(d.head)
		d.owner[d.head] = NoPReg
		if d.depCount != nil {
			//arvi:panicfree depCount is Entries-long whenever construction allocated it, and d.head is a ring index
			d.depCount[d.head] = 0
		}
	}
	d.count -= n
	return nil
}

// InFlight reports whether entry e currently holds a live instruction.
//
//arvi:hotpath
func (d *DDT) InFlight(e int) bool { return d.valid.Get(e) }

// Owner returns the target register of the instruction at entry e
// (NoPReg if the entry is free or targetless).
//
//arvi:hotpath
//arvi:panicfree e is an entry index the caller got from Head, Tail, Commit or a chain bit, all below Entries by the ring invariant
func (d *DDT) Owner(e int) PhysReg { return d.owner[e] }

// EntryIsLoad reports whether the live entry e holds a load.
//
//arvi:hotpath
func (d *DDT) EntryIsLoad(e int) bool { return d.valid.Get(e) && d.isLoad.Get(e) }

// DepCount returns the number of instructions inserted after entry e whose
// dependence chains include e (the Section 3 counter extension). The DDT
// must have been configured with TrackDepCounts.
//
//arvi:hotpath
//arvi:panicfree e is an entry index below Entries by the ring invariant, and depCount is Entries-long once the nil guard passes
func (d *DDT) DepCount(e int) int {
	if d.depCount == nil {
		//arvi:cold misconfiguration trap, unreachable once construction succeeds
		panic("core: DepCount requires Config.TrackDepCounts")
	}
	return int(d.depCount[e])
}

// Age returns how many allocations ago entry e was inserted, relative to
// the current head (1 = the most recently inserted entry). This is the
// circular head-to-entry distance used for the chain depth key.
//
//arvi:hotpath
func (d *DDT) Age(e int) int {
	diff := d.head - e
	if diff <= 0 {
		diff += d.cfg.Entries
	}
	return diff
}

// Depth returns the paper's dependence-chain depth key for a chain bit
// vector: the maximum number of instructions spanned, i.e. the age of the
// furthest-back member of the chain. It is the software form of the
// Section 4.5 two-priority-encoder scheme: entries at or above the head
// wrapped past it and are older than every entry below it, so the
// furthest-back member is the lowest set bit >= head when one exists, else
// the lowest set bit overall. An empty chain has depth 0.
//
//arvi:hotpath
func (d *DDT) Depth(chain bitvec.Vec) int {
	if e := chain.FirstBitFrom(d.head); e >= 0 {
		return d.head - e + d.cfg.Entries
	}
	if e := chain.FirstBitFrom(0); e >= 0 {
		return d.head - e
	}
	return 0
}

// ExtractSet implements the RSE read: given a chain bit vector (the column
// enables, Config().Entries bits wide), plus the predicted instruction's
// own source marks, it returns the leaf register set as a bit vector over
// physical registers. A register is in the set iff some enabled instruction
// reads it and no enabled instruction writes it: included = S & ^T per
// Section 4.2.
//
// The read is incremental: the chain is diffed word by word against the
// previously extracted one, retracting departed entries from the running
// aggregates and adopting new ones, so the cost scales with the chain delta
// since the last read rather than with the chain or window size (see
// DESIGN.md's incremental RSE maintenance section).
//
// extraSrcs lets the caller include the branch's own source registers as S
// marks before the branch itself has been inserted (the branch's column is
// part of the enable in hardware). The returned vector aliases internal
// scratch and is valid until the next DDT mutation or extraction.
//
//arvi:hotpath
//arvi:panicfree chain and d.lastChain are both Config().Entries-bit vectors (documented contract), so chain's word indexes fit last, and extraSrcs hold registers below cfg.PhysRegs
func (d *DDT) ExtractSet(chain bitvec.Vec, extraSrcs []PhysReg) bitvec.Vec {
	last := d.lastChain
	for wi, cw := range chain {
		lw := last[wi]
		if cw == lw {
			continue
		}
		last[wi] = cw
		base := wi << 6
		for rm := lw &^ cw; rm != 0; rm &= rm - 1 {
			d.retractEntry(base + bits.TrailingZeros64(rm))
		}
		for ad := cw &^ lw; ad != 0; ad &= ad - 1 {
			d.adoptEntry(base + bits.TrailingZeros64(ad))
		}
	}
	set := d.setBuf
	set.CopyFrom(d.aggS)
	for _, r := range extraSrcs {
		if r != NoPReg {
			set.Set(int(r))
		}
	}
	set.AndNot(d.aggT)
	return set
}

// VerifyRSEAggregates recomputes the incremental aggregate state — the
// per-register mark counters and their nonzero projections — from scratch
// out of lastChain and the sparse marks, and checks the row summaries
// against the rows they guard. It is the differential oracle for the
// incremental ExtractSet path; test/debug use only, not a hot path.
func (d *DDT) VerifyRSEAggregates() error {
	srcCnt := make([]uint16, d.cfg.PhysRegs)
	tgtCnt := make([]uint16, d.cfg.PhysRegs)
	for wi, w := range d.lastChain {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			e := base + bits.TrailingZeros64(w)
			off := e * maxEntryMarks
			for i := 0; i < int(d.markLen[e]); i++ {
				srcCnt[d.markSrcs[off+i]]++
			}
			if t := d.markTgt[e]; t != NoPReg {
				tgtCnt[t]++
			}
		}
	}
	for r := 0; r < d.cfg.PhysRegs; r++ {
		if srcCnt[r] != d.srcCnt[r] {
			return fmt.Errorf("core: srcCnt[%d] = %d, recompute says %d", r, d.srcCnt[r], srcCnt[r])
		}
		if tgtCnt[r] != d.tgtCnt[r] {
			return fmt.Errorf("core: tgtCnt[%d] = %d, recompute says %d", r, d.tgtCnt[r], tgtCnt[r])
		}
		if d.aggS.Get(r) != (srcCnt[r] > 0) {
			return fmt.Errorf("core: aggS bit %d disagrees with count %d", r, srcCnt[r])
		}
		if d.aggT.Get(r) != (tgtCnt[r] > 0) {
			return fmt.Errorf("core: aggT bit %d disagrees with count %d", r, tgtCnt[r])
		}
		if d.rowStamp[r] > 0 {
			for wi, w := range d.row(PhysReg(r)) {
				if w != 0 && d.rowSum[r]&(1<<uint(wi)) == 0 {
					return fmt.Errorf("core: rowSum[%d] misses nonzero word %d", r, wi)
				}
			}
		}
	}
	return nil
}

// LeafSet is the full ARVI front-end read: the dependence chain for the
// branch's source registers, the extracted leaf register set, and the depth
// key, computed in one call. The returned vectors alias internal scratch
// buffers and are valid until the next DDT mutation or LeafSet call.
//
//arvi:hotpath
func (d *DDT) LeafSet(branchSrcs []PhysReg) (chain bitvec.Vec, set bitvec.Vec, depth int) {
	d.gatherChain(d.chainBuf, branchSrcs)
	set = d.ExtractSet(d.chainBuf, branchSrcs)
	return d.chainBuf, set, d.Depth(d.chainBuf)
}

// Bits returns the total storage the configured DDT would need in hardware,
// in bits: the dependence matrix plus the valid vector (the paper's 730
// bytes for 80x72 corresponds to the matrix alone).
func (d *DDT) Bits() int { return d.cfg.Entries*d.cfg.PhysRegs + d.cfg.Entries }
