package cpu

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/arvi"
	"repro/internal/bitvec"
	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/vm"
)

// slotLimiter enforces a per-cycle bandwidth for monotonically advancing
// pipeline stages (fetch, commit).
type slotLimiter struct {
	cycle int64
	used  int
	width int
}

// take grants a slot at the earliest cycle >= c and returns it.
//
//arvi:hotpath
func (s *slotLimiter) take(c int64) int64 {
	if c > s.cycle {
		s.cycle, s.used = c, 0
	}
	if s.used < s.width {
		s.used++
		return s.cycle
	}
	s.cycle++
	s.used = 1
	return s.cycle
}

// issueLimiter enforces a per-cycle issue width for non-monotonic issue
// cycles using a stamped ring of counters.
type issueLimiter struct {
	//arvi:len ilring
	counts []uint8
	//arvi:len ilring
	stamps []int64
	width  uint8
	//arvi:mask ilring
	mask int64
}

func newIssueLimiter(width int) *issueLimiter {
	const ring = 1 << 15
	return &issueLimiter{
		counts: make([]uint8, ring),
		stamps: make([]int64, ring),
		width:  uint8(width),
		mask:   ring - 1,
	}
}

// reset restores the freshly built state (stamp 0 rows with zero counts
// are indistinguishable from untouched ones at cycle 0).
//
//arvi:hotpath
func (l *issueLimiter) reset() {
	clear(l.counts)
	clear(l.stamps)
}

//arvi:hotpath
func (l *issueLimiter) take(c int64) int64 {
	for {
		i := c & l.mask
		if l.stamps[i] != c {
			l.stamps[i] = c
			l.counts[i] = 0
		}
		if l.counts[i] < l.width {
			l.counts[i]++
			return c
		}
		c++
	}
}

// funcUnits models one class of functional units.
type funcUnits struct {
	nextFree  []int64
	pipelined bool
	occupancy int // cycles a non-pipelined unit stays busy
}

// issue finds the earliest cycle >= ready at which a unit is free, books it
// and returns the cycle.
//
//arvi:hotpath
//arvi:panicfree cfg.validate demands at least one unit per class, so nextFree is nonempty and best stays a scanned index below its length
func (f *funcUnits) issue(ready int64, busy int) int64 {
	best := 0
	for i := 1; i < len(f.nextFree); i++ {
		if f.nextFree[i] < f.nextFree[best] {
			best = i
		}
	}
	c := ready
	if f.nextFree[best] > c {
		c = f.nextFree[best]
	}
	if f.pipelined {
		f.nextFree[best] = c + 1
	} else {
		f.nextFree[best] = c + int64(busy)
	}
	return c
}

// pregMeta is the per-physical-register bookkeeping used for ARVI value
// resolution (the shadow register file and shadow map table of Figure 4,
// plus timing metadata).
type pregMeta struct {
	doneC      int64  // writeback cycle of the current producer
	commitC    int64  // commit cycle of the current producer
	hoistAvail int64  // earliest availability under load-back hoisting
	val        uint16 // low value bits the producer writes (shadow regfile)
	prevVal    uint16 // previous occupant's value (StalePhysical reads)
	logical    uint8  // shadow map table: low logical-register bits
	isLoad     bool
}

type storeRec struct {
	seq     int64
	addrW   uint64 // word-aligned address
	readyC  int64  // when address + data are computed
	commitC int64
}

// pre is one pre-decoded static instruction: what the timing model reads
// of the instruction at a pc, derived once per run from the program text
// instead of by isa's switch predicates on every record.
type pre struct {
	imm   int64 // branch or jump target (the wrong-path walk follows it)
	lat   int32 // execution latency
	flags uint8 // preLoad, preStore, preCond, preJump, preDest
	fu    isa.FUClass
	op    isa.Op
	rd    isa.Reg
	nsrc  uint8      // source registers in src, at most 2 (the ISA's limit)
	src   [2]isa.Reg // source registers in SrcRegs order
}

const (
	preLoad uint8 = 1 << iota
	preStore
	preCond
	preJump
	preDest
)

// predecode returns the pre-decoded form of in.
//
//arvi:hotpath
func predecode(in isa.Inst) pre {
	s := pre{imm: in.Imm, lat: int32(in.ExecLatency()), fu: in.FU(), op: in.Op, rd: in.Rd}
	s.nsrc = uint8(len(in.SrcRegs(s.src[:0])))
	s.flags = flagIf(in.IsLoad(), preLoad) | flagIf(in.IsStore(), preStore) |
		flagIf(in.IsCondBranch(), preCond) | flagIf(in.IsJump(), preJump) |
		flagIf(in.HasDest(), preDest)
	return s
}

// flagIf returns f when on holds, else 0.
//
//arvi:hotpath
func flagIf(on bool, f uint8) uint8 {
	if on {
		return f
	}
	return 0
}

// Engine runs one configuration over one program.
type Engine struct {
	cfg  Config
	hier *mem.Hierarchy

	l1   *bpred.Gskew2Bc
	l2   *bpred.Gskew2Bc
	conf *bpred.Confidence
	av   *arvi.Predictor
	ddt  *core.DDT
	hist bpred.History

	// Rename state. The free list is a fixed ring (FIFO pop at freeHead,
	// push behind it): the paper's rotating free list, without the
	// append/reslice churn that re-allocated the backing array every
	// ~PhysRegs renames. FIFO order is load-bearing — StalePhysical reads
	// the previous occupant of a physical register, so the allocation
	// order is part of the simulated semantics.
	mapTable [isa.NumRegs]core.PhysReg
	//arvi:len pregs
	freeRing []core.PhysReg
	// freeHead stays in [0, physRegs) by the ring arithmetic of
	// freePop/freePushFront; freeLen may reach physRegs.
	//arvi:idx pregs
	freeHead int
	freeLen  int
	//arvi:len pregs
	meta []pregMeta

	// Per-seq rings, indexed by seq & robMask. Each is read at most ROB
	// instructions behind its newest write, so any power-of-two length
	// above ROB is exact and the index needs no division; see
	// DESIGN.md's replay loop section.

	//arvi:len robring
	commitRing []int64 // commit cycle by seq
	//arvi:len robring
	prevMapRing []core.PhysReg // displaced mapping by seq (freed at commit)
	//arvi:len robring
	destRing []uint8 // logical destination by seq (0xff = none)
	//arvi:len robring
	valRing []uint16 // low value bits written by seq
	//arvi:mask robring
	robMask int64
	// memRing is the commit cycle by memory-op ordinal, indexed by
	// memSeq & lsqMask: it is read at most LSQ ordinals back.
	//arvi:len lsqring
	memRing []int64
	//arvi:mask lsqring
	lsqMask int64
	// stores is the LSQ-window store history. Loads scan it whole, so it
	// keeps exactly LSQ slots; the memory op with ordinal memSeq owns slot
	// storeSlot == memSeq mod LSQ, advanced by wrap-by-compare.
	//arvi:len lsqslots
	stores []storeRec
	//arvi:idx lsqslots
	storeSlot int
	valMask   uint16 // the low ARVI.ValueBits value bits a leaf keeps

	// archVal is the shadow architectural register file: the low value
	// bits of each logical register as of the commit frontier. Leaves
	// whose values are not yet available read this committed copy
	// (32 x 11 bits of state, cheaper than shadowing every physical
	// register as the paper sizes it; see DESIGN.md).
	archVal [isa.NumRegs]uint16

	fetchSlots     slotLimiter
	commitSlots    slotLimiter
	issue          *issueLimiter
	alu, mul, memu *funcUnits

	frontier     int64 // next seq to retire from the DDT
	nextFetchMin int64
	lastCommitC  int64
	memSeq       int64
	frontLat     int64
	l2Lat        int64

	// Return-address stack: a fixed ring holding the youngest rasDepth
	// entries (pushing onto a full stack drops the oldest), replacing the
	// sliding-slice version whose backing array re-allocated as the slice
	// start crept forward.
	ras      [rasDepth]int64
	rasStart int
	rasLen   int

	// Per-branch pending front-end effects, set by predictBranch or
	// predictJump and consumed by resolveControl once the resolution
	// cycle is known.
	pendingOverride   int64
	pendingMispredict bool

	st Stats

	// Scratch, pre-sized by NewEngine and reused every event.

	//arvi:scratch
	srcPregs []core.PhysReg
	//arvi:scratch
	leafBuf []arvi.LeafValue
	//arvi:scratch
	wpUndo []wpUndo
	// static is the pre-decoded program text, indexed by pc and rebuilt
	// at the start of every run; it reallocates only for a longer program.
	//arvi:scratch
	static []pre
}

// rasDepth is the return-address stack capacity (power of two).
const rasDepth = 64

// rasPush pushes a predicted return address, dropping the oldest entry
// when the stack is full.
//
//arvi:hotpath
func (e *Engine) rasPush(v int64) {
	if e.rasLen == rasDepth {
		e.rasStart = (e.rasStart + 1) & (rasDepth - 1)
		e.rasLen--
	}
	e.ras[(e.rasStart+e.rasLen)&(rasDepth-1)] = v
	e.rasLen++
}

// rasPop pops the youngest return address; ok is false on an empty stack.
//
//arvi:hotpath
func (e *Engine) rasPop() (v int64, ok bool) {
	if e.rasLen == 0 {
		return 0, false
	}
	e.rasLen--
	return e.ras[(e.rasStart+e.rasLen)&(rasDepth-1)], true
}

// freePop takes the oldest free physical register (FIFO).
//
//arvi:hotpath
func (e *Engine) freePop() core.PhysReg {
	p := e.freeRing[e.freeHead]
	e.freeHead++
	if e.freeHead == len(e.freeRing) {
		e.freeHead = 0
	}
	e.freeLen--
	return p
}

// freePush returns a register to the back of the free list.
//
//arvi:hotpath
//arvi:panicfree freeHead < len(freeRing) and freeLen <= len(freeRing), so one wrap subtraction lands the write index in range
func (e *Engine) freePush(p core.PhysReg) {
	i := e.freeHead + e.freeLen
	if i >= len(e.freeRing) {
		i -= len(e.freeRing)
	}
	e.freeRing[i] = p
	e.freeLen++
}

// freePushFront puts a register back at the front of the free list — the
// wrong-path recovery undo, which must restore the exact pre-speculation
// allocation order.
//
//arvi:hotpath
func (e *Engine) freePushFront(p core.PhysReg) {
	e.freeHead--
	if e.freeHead < 0 {
		e.freeHead = len(e.freeRing) - 1
	}
	e.freeRing[e.freeHead] = p
	e.freeLen++
}

// NewEngine builds an engine for the configuration.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	physRegs := isa.NumRegs + cfg.ROB + 8
	ddt, err := core.NewDDT(core.Config{
		Entries:    cfg.ROB,
		PhysRegs:   physRegs,
		CutAtLoads: cfg.CutAtLoads,
	})
	if err != nil {
		return nil, err
	}
	l1, err := bpred.NewGskew2Bc(cfg.L1PredEntries)
	if err != nil {
		return nil, err
	}
	l2, err := bpred.NewGskew2Bc(cfg.L2PredEntries)
	if err != nil {
		return nil, err
	}
	conf, err := bpred.NewConfidence(4096, cfg.ConfThreshold)
	if err != nil {
		return nil, err
	}
	av, err := arvi.New(cfg.ARVI)
	if err != nil {
		return nil, err
	}
	robRing, lsqRing := ringAbove(cfg.ROB), ringAbove(cfg.LSQ)
	e := &Engine{
		cfg:  cfg,
		hier: mem.NewHierarchy(mem.LatenciesForDepth(cfg.Depth)),
		l1:   l1, l2: l2, conf: conf, av: av, ddt: ddt,
		meta:        make([]pregMeta, physRegs),
		commitRing:  make([]int64, robRing),
		prevMapRing: make([]core.PhysReg, robRing),
		destRing:    make([]uint8, robRing),
		valRing:     make([]uint16, robRing),
		robMask:     int64(robRing - 1),
		memRing:     make([]int64, lsqRing),
		lsqMask:     int64(lsqRing - 1),
		stores:      make([]storeRec, cfg.LSQ),
		valMask:     uint16(1)<<cfg.ARVI.ValueBits - 1,
		fetchSlots:  slotLimiter{width: cfg.FetchWidth},
		commitSlots: slotLimiter{width: cfg.CommitWidth},
		issue:       newIssueLimiter(cfg.FetchWidth),
		alu:         &funcUnits{nextFree: make([]int64, cfg.IntALU), pipelined: true},
		mul:         &funcUnits{nextFree: make([]int64, cfg.IntMul)},
		memu:        &funcUnits{nextFree: make([]int64, cfg.MemPorts), pipelined: true},
		frontLat:    int64(cfg.FrontLatency()),
		l2Lat:       int64(cfg.L2Latency()),
	}
	e.freeRing = make([]core.PhysReg, physRegs)
	e.srcPregs = make([]core.PhysReg, 0, 4)
	e.leafBuf = make([]arvi.LeafValue, 0, 64)
	e.wpUndo = make([]wpUndo, 0, wrongPathBurst)
	e.resetArchState()
	return e, nil
}

// ringAbove returns the smallest power of two above n: the length of a
// ring read at most n slots behind its newest write.
func ringAbove(n int) int { return 1 << bits.Len(uint(n)) }

// resetArchState (re)initialises every piece of engine state that varies
// over a run, leaving configuration-derived allocations in place. It is
// shared by NewEngine and Reset, so a reset engine is bit-for-bit
// equivalent to a fresh one (pinned by TestEngineResetDeterminism).
//
//arvi:hotpath
func (e *Engine) resetArchState() {
	for l := 0; l < isa.NumRegs; l++ {
		e.mapTable[l] = core.PhysReg(l)
	}
	clear(e.meta)
	for l := 0; l < isa.NumRegs; l++ {
		//arvi:panicfree meta holds physRegs = isa.NumRegs+ROB+8 entries, so the first NumRegs always exist
		e.meta[l].logical = uint8(l)
	}
	e.freeHead, e.freeLen = 0, 0
	for p := isa.NumRegs; p < len(e.meta); p++ {
		//arvi:panicfree freeLen == p - isa.NumRegs here, below len(meta) == len(freeRing)
		e.freeRing[e.freeLen] = core.PhysReg(p)
		e.freeLen++
	}
	clear(e.commitRing)
	clear(e.prevMapRing)
	clear(e.destRing)
	clear(e.valRing)
	clear(e.memRing)
	for i := range e.stores {
		e.stores[i] = storeRec{seq: -1}
	}
	e.storeSlot = 0
	e.archVal = [isa.NumRegs]uint16{}
	e.hist = bpred.History{}
	e.fetchSlots = slotLimiter{width: e.cfg.FetchWidth}
	e.commitSlots = slotLimiter{width: e.cfg.CommitWidth}
	e.issue.reset()
	clear(e.alu.nextFree)
	clear(e.mul.nextFree)
	clear(e.memu.nextFree)
	e.frontier, e.nextFetchMin, e.lastCommitC, e.memSeq = 0, 0, 0, 0
	e.rasStart, e.rasLen = 0, 0
	e.pendingOverride, e.pendingMispredict = 0, false
	e.st = Stats{}
}

// Reset returns the engine to its freshly constructed state without
// re-allocating any of its structures (tables, rings, the DDT matrix), so
// a sweep can reuse one engine per configuration instead of churning the
// allocator per matrix cell. A reset engine produces bit-identical
// statistics to a new one.
//
//arvi:hotpath
func (e *Engine) Reset() {
	e.hier.Reset()
	e.l1.Reset()
	e.l2.Reset()
	e.conf.Reset()
	e.av.Reset()
	e.ddt.Reset()
	e.resetArchState()
}

// Hierarchy exposes the memory system for inspection after a run.
func (e *Engine) Hierarchy() *mem.Hierarchy { return e.hier }

// Run executes the program on the functional VM and replays it through the
// timing model, returning the run statistics. It is the live-VM reference
// that replays of recorded traces are checked against.
func Run(p *prog.Program, cfg Config) (Stats, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Stats{}, err
	}
	return e.RunSource(p, &vmSource{m: vm.New(p)})
}

// EventSource streams the correct-path dynamic trace into the timing
// model one chunk at a time. NextChunk returns the next records in
// program order, at least one and at most n, or an empty chunk once the
// trace is exhausted. The chunk may alias the source's own storage: the
// engine only reads it, and only until its next call.
type EventSource interface {
	NextChunk(n int) ([]vm.Rec, error)
}

// vmSource is the live functional VM as an EventSource. It fills a buffer
// it owns, so a live run and a replay of a recorded trace are two
// independent producers of the same records.
type vmSource struct {
	m   *vm.VM
	ev  vm.Event
	buf []vm.Rec
}

// NextChunk steps the VM for up to n instructions.
func (s *vmSource) NextChunk(n int) ([]vm.Rec, error) {
	s.buf = s.buf[:0]
	for len(s.buf) < n && !s.m.Halt {
		if err := s.m.Step(&s.ev); err != nil {
			return nil, err
		}
		s.buf = append(s.buf, s.ev.Rec())
	}
	return s.buf, nil
}

// RunSource is RunSourceContext without cancellation.
//
//arvi:hotpath
func (e *Engine) RunSource(p *prog.Program, src EventSource) (Stats, error) {
	return e.RunSourceContext(background, p, src)
}

// background is RunSource's context, built once: hotalloc cannot audit
// a call to context.Background inside a hotpath function.
var background = context.Background()

// cancelChunk is the most records RunSourceContext asks its source for at
// once, and so how many instructions it replays between context checks.
// At simulator speed a chunk is well under a millisecond, so cancellation
// lands promptly without putting a context branch — or any interface
// call that could not be allocation-audited — inside the per-instruction
// hot loop.
const cancelChunk = 65536

// errPCOutside fails a replay whose source names a pc outside the
// program's text: a trace of another program.
var errPCOutside = errors.New("cpu: trace record pc outside the program text")

// RunSourceContext replays a trace of the given program (the live VM, or
// one recorded by package trace) through the timing model, reading it in
// chunks of at most cancelChunk records and checking ctx between them:
// the replay stops with ctx.Err() at the next chunk boundary after ctx is
// done, and the statistics of a canceled run are meaningless. The
// per-instruction loop itself (replay) stays context-free by design — see
// DESIGN.md's failure domains section. Chunking only changes where the
// instruction-budget comparison happens, not what is replayed.
//
//arvi:hotpath
func (e *Engine) RunSourceContext(ctx context.Context, p *prog.Program, src EventSource) (Stats, error) {
	e.static = e.static[:0]
	for _, in := range p.Text {
		e.static = append(e.static, predecode(in))
	}
	var n int64
	for {
		//arvi:dyncall a context's Err is an atomic load or a mutex-guarded read; it allocates nothing
		if err := ctx.Err(); err != nil {
			return e.st, err
		}
		limit := n + cancelChunk
		if e.cfg.MaxInsts > 0 && limit > e.cfg.MaxInsts {
			limit = e.cfg.MaxInsts
		}
		next, eof, err := e.replay(src, n, limit)
		if err != nil {
			return e.st, err
		}
		n = next
		if eof || (e.cfg.MaxInsts > 0 && n >= e.cfg.MaxInsts) {
			break
		}
	}
	return e.finish(n), nil
}

// replay reads one chunk of at most limit-n records from the source and
// streams it through the timing model, instruction n first. It returns
// the updated count and whether the source was exhausted. This is the
// per-instruction hot loop: it ranges over the chunk in place, and its one
// indirect call is the per-chunk read. Cancellation is layered above it
// in RunSourceContext.
//
//arvi:hotpath
func (e *Engine) replay(src EventSource, n, limit int64) (int64, bool, error) {
	recs, err := src.NextChunk(int(limit - n)) //arvi:dyncall once per chunk; the trace cursor is a hotpath sub-slice read, the live VM source exists for tests and small tools
	if err != nil {
		//arvi:cold a failing trace source aborts the run; once per chunk at most
		return n, false, fmt.Errorf("cpu: trace source failed: %w", err)
	}
	static := e.static
	for i := range recs {
		r := &recs[i]
		pc := int(r.PC)
		if pc >= len(static) {
			return n, false, errPCOutside
		}
		e.process(r, &static[pc], n)
		n++
	}
	return n, len(recs) == 0, nil
}

// finish stamps the end-of-run statistics for a replay of n instructions.
//
//arvi:hotpath
func (e *Engine) finish(n int64) Stats {
	e.st.Insts = n
	e.st.Cycles = e.lastCommitC
	if e.st.Cycles == 0 {
		e.st.Cycles = 1
	}
	e.st.L1DMissRate = e.hier.L1D.MissRate()
	e.st.L2MissRate = e.hier.L2.MissRate()
	e.st.L1IMissRate = e.hier.L1I.MissRate()
	a := e.av.Stats()
	e.st.ARVILookups = a.Lookups
	e.st.ARVIHits = a.Hits
	return e.st
}

// advanceFrontier retires every instruction whose commit cycle has passed
// now: its DDT entry is freed and the physical register it displaced
// returns to the free list — exactly the in-order commit the hardware
// performs.
//
//arvi:hotpath
//arvi:panicfree destRing values other than 0xff are logical registers below isa.NumRegs
func (e *Engine) advanceFrontier(seq, now int64) {
	for e.frontier < seq {
		idx := e.frontier & e.robMask
		if e.commitRing[idx] > now {
			return
		}
		if _, err := e.ddt.Commit(); err != nil {
			//arvi:cold invariant trap; Commit cannot fail while frontier < seq
			panic("cpu: DDT/frontier desync: " + err.Error())
		}
		if old := e.prevMapRing[idx]; old != core.NoPReg {
			e.freePush(old)
		}
		if d := e.destRing[idx]; d != 0xff {
			e.archVal[d] = e.valRing[idx] // shadow architectural file
		}
		e.frontier++
	}
}

// process replays one trace record, instruction seq, through the timing
// model; st is the pre-decoded instruction at its pc.
//
//arvi:hotpath
//arvi:panicfree pre-decoded registers (src, rd) are below isa.NumRegs and nsrc is at most len(src) == 2, and renamed physical registers are below physRegs == len(meta)
func (e *Engine) process(r *vm.Rec, st *pre, seq int64) {
	isLoad := st.flags&preLoad != 0
	isMem := st.flags&(preLoad|preStore) != 0

	// ---- Fetch ----------------------------------------------------------
	c := e.nextFetchMin
	// ROB occupancy: rename (at fetch, per Section 4.1's early rename)
	// needs a free entry.
	if seq >= int64(e.cfg.ROB) {
		if t := e.commitRing[(seq-int64(e.cfg.ROB))&e.robMask] + 1; t > c {
			c = t
		}
	}
	// LSQ occupancy for memory operations.
	if isMem && e.memSeq >= int64(e.cfg.LSQ) {
		if t := e.memRing[(e.memSeq-int64(e.cfg.LSQ))&e.lsqMask] + 1; t > c {
			c = t
		}
	}
	// Instruction cache.
	if lat := e.hier.FetchAccess(int(r.PC)); lat > 0 {
		c += int64(lat)
	}
	fetchC := e.fetchSlots.take(c)
	if fetchC > e.nextFetchMin {
		e.nextFetchMin = fetchC
	}

	// ---- In-order retirement up to this fetch point ---------------------
	e.advanceFrontier(seq, fetchC)

	// ---- Branch prediction ----------------------------------------------
	if st.flags&preCond != 0 {
		e.predictBranch(r, st, fetchC)
	} else if st.flags&preJump != 0 {
		e.predictJump(r, st)
	}

	// ---- Source operands (old mappings, before renaming the dest) -------
	e.srcPregs = e.srcPregs[:0]
	readyC := fetchC + e.frontLat
	addrReady := int64(0) // readiness of the address operand (loads)
	for k, lr := range st.src[:st.nsrc] {
		p := e.mapTable[lr]
		e.srcPregs = append(e.srcPregs, p)
		if t := e.meta[p].doneC + 1; t > readyC {
			readyC = t
		}
		if isLoad && k == 0 {
			addrReady = e.meta[p].doneC + 1
		}
	}

	// ---- Rename + DDT insert --------------------------------------------
	var dest = core.NoPReg
	var displaced = core.NoPReg
	if st.flags&preDest != 0 {
		if e.freeLen == 0 {
			//arvi:cold invariant trap; the ring holds ROB+8 spare registers
			panic("cpu: free list exhausted (rename invariant violated)")
		}
		dest = e.freePop()
		displaced = e.mapTable[st.rd]
		e.mapTable[st.rd] = dest
	}
	if _, err := e.ddt.Insert(dest, e.srcPregs, isLoad); err != nil {
		//arvi:cold invariant trap; the ROB occupancy stall keeps the table un-full
		panic("cpu: DDT insert failed: " + err.Error())
	}
	ri := seq & e.robMask
	e.prevMapRing[ri] = displaced
	if dest != core.NoPReg {
		e.destRing[ri] = uint8(st.rd)
		e.valRing[ri] = uint16(uint64(r.Val)) & e.valMask
	} else {
		e.destRing[ri] = 0xff
	}

	// ---- Issue and execute ----------------------------------------------
	var issueC, doneC, storeReady int64
	switch st.fu {
	case isa.FUIntMul:
		issueC = e.issue.take(e.mul.issue(readyC, int(st.lat)))
		doneC = issueC + int64(st.lat)
	case isa.FUMem:
		issueC = e.issue.take(e.memu.issue(readyC, 1))
		if isLoad {
			doneC, storeReady = e.executeLoad(r, seq, issueC)
		} else {
			doneC = issueC + 1
			e.st.Stores++
		}
	default:
		issueC = e.issue.take(e.alu.issue(readyC, 1))
		doneC = issueC + int64(st.lat)
	}

	// ---- Branch resolution penalties ------------------------------------
	if st.flags&(preCond|preJump) != 0 {
		e.resolveControl(fetchC, doneC)
	}

	// ---- Commit ----------------------------------------------------------
	cc := doneC + 1
	if cc < e.lastCommitC {
		cc = e.lastCommitC
	}
	commitC := e.commitSlots.take(cc)
	e.lastCommitC = commitC
	e.commitRing[seq&e.robMask] = commitC
	if isMem {
		e.memRing[e.memSeq&e.lsqMask] = commitC
		if st.flags&preStore != 0 {
			e.stores[e.storeSlot] = storeRec{seq: seq, addrW: r.Addr &^ 7, readyC: doneC, commitC: commitC}
		}
		e.memSeq++
		if e.storeSlot++; e.storeSlot == len(e.stores) {
			e.storeSlot = 0
		}
	}

	// ---- Wrong-path exercise (optional) ----------------------------------
	if e.cfg.WrongPathInject && e.pendingMispredict && st.flags&preCond != 0 {
		e.injectWrongPath(r, st)
	}

	// ---- Destination metadata (shadow register file update) --------------
	if dest != core.NoPReg {
		m := &e.meta[dest]
		m.prevVal = m.val
		m.val = uint16(uint64(r.Val)) & e.valMask
		m.doneC = doneC
		m.commitC = commitC
		m.logical = uint8(st.rd)
		m.isLoad = isLoad
		if isLoad {
			m.hoistAvail = hoistAvailability(addrReady, storeReady, doneC, issueC)
		} else {
			m.hoistAvail = doneC + 1
		}
	}
}

// executeLoad computes a load's completion cycle: store-to-load forwarding
// from the LSQ when an older in-flight store matches the word address,
// otherwise a cache hierarchy access. One scan of the store queue finds
// the forwarding store and storeReady, the latest ready cycle of any
// older store to the same word (0 when there is none), which the
// load-back model reads.
//
//arvi:hotpath
func (e *Engine) executeLoad(r *vm.Rec, seq, issueC int64) (doneC, storeReady int64) {
	e.st.Loads++
	addrW := r.Addr &^ 7
	var fwd *storeRec // the youngest older same-word store not yet drained
	for i := range e.stores {
		st := &e.stores[i]
		if st.seq < 0 || st.seq >= seq || st.addrW != addrW {
			continue
		}
		if st.readyC > storeReady {
			storeReady = st.readyC
		}
		// A store committed by issueC has drained to the cache.
		if st.commitC > issueC && (fwd == nil || st.seq > fwd.seq) {
			fwd = st
		}
	}
	if fwd != nil {
		e.st.StoreForwarded++
		d := issueC
		if fwd.readyC > d {
			d = fwd.readyC
		}
		return d + 1, storeReady
	}
	return issueC + int64(e.hier.DataAccess(r.Addr)), storeReady
}

// hoistAvailability implements the load-back model: the earliest cycle at
// which the loaded value would have been available had the load been moved
// back as far as its address operands (and conflicting older stores,
// resolved by run-time disambiguation, whose latest ready cycle is
// storeReady) allow.
//
//arvi:hotpath
func hoistAvailability(addrReady, storeReady, doneC, issueC int64) int64 {
	start := addrReady
	if storeReady > start {
		start = storeReady // must wait for the forwarding data
	}
	// The hoisted load takes the same memory latency the real one saw.
	lat := doneC - issueC
	if lat < 1 {
		lat = 1
	}
	avail := start + lat
	if avail > doneC {
		avail = doneC
	}
	return avail + 1
}

// predictBranch performs the full two-level prediction for a conditional
// branch fetched at fetchC and applies training updates.
//
//arvi:hotpath
func (e *Engine) predictBranch(r *vm.Rec, st *pre, fetchC int64) {
	pc := uint64(r.PC)
	taken := r.Taken
	hist := e.hist.Bits
	e.st.CondBranches++
	if taken {
		e.st.TakenBranches++
	}

	l1 := e.l1.Predict(pc, hist)
	final := l1
	overrode := false

	if e.cfg.Mode == PredBaseline2Lvl {
		l2 := e.l2.Predict(pc, hist)
		if l2 != l1 {
			final = l2
			overrode = true
		}
		e.l2.Update(pc, hist, taken)
	} else {
		highConf := e.conf.High(pc, hist)
		// DDT read: dependence chain and leaf set for the branch sources.
		e.srcPregs = e.srcPregs[:0]
		//arvi:panicfree nsrc is at most len(src) == 2
		for _, lr := range st.src[:st.nsrc] {
			//arvi:panicfree pre-decoded source registers are below isa.NumRegs == len(mapTable)
			e.srcPregs = append(e.srcPregs, e.mapTable[lr])
		}
		_, set, depth := e.ddt.LeafSet(e.srcPregs)
		leaves, class := e.resolveLeaves(set, fetchC)
		e.st.ChainDepthSum += int64(depth)
		e.st.LeafCountSum += int64(len(leaves))
		if class == ClassLoad {
			e.st.LoadBranches++
		} else {
			e.st.CalcBranches++
		}

		if !highConf {
			key := e.av.MakeKey(pc, leaves, depth)
			apred, hit, perf, strong := e.av.LookupEx(key)
			var used bool
			switch e.cfg.ARVIGateMode {
			case 1:
				used = hit && (strong || perf >= 3)
			case 2:
				used = hit && (strong || perf >= 2)
			default:
				used = hit && perf >= e.cfg.ARVIUseThreshold &&
					(!e.cfg.ARVIRequireStrong || strong)
			}
			if used {
				final = apred
				e.st.ARVIUsed++
				if final != l1 {
					overrode = true
				}
			}
			e.av.Update(key, taken, used)
		}
		if final != taken {
			if class == ClassLoad {
				e.st.LoadMispreds++
			} else {
				e.st.CalcMispreds++
			}
		}
	}

	if l1 != taken {
		e.st.L1Mispredicts++
	}
	if overrode {
		e.st.Overrides++
		if final == taken {
			e.st.OverrideGood++
		}
	}
	if final != taken {
		e.st.Mispredicts++
	}

	// Train the shared structures in program order.
	e.l1.Update(pc, hist, taken)
	e.conf.Update(pc, hist, l1 == taken)
	e.hist.Push(taken)

	// Front-end effects other than full misprediction are applied here;
	// the misprediction redirect needs the resolution cycle and is applied
	// in resolveControl.
	e.pendingOverride = 0
	if final == taken {
		if overrode {
			// The override restarted fetch at the L2 latency.
			e.pendingOverride = e.l2Lat
		} else if taken {
			e.pendingOverride = 1 // taken-branch fetch break
		}
	}
	e.pendingMispredict = final != taken
}

// predictJump models unconditional control flow: direct jumps are fully
// predicted (1-cycle taken bubble); JR uses a return-address stack pushed
// by JAL, with a misprediction redirect on a wrong target.
//
//arvi:hotpath
func (e *Engine) predictJump(r *vm.Rec, st *pre) {
	e.pendingOverride = 1 // taken redirect bubble
	e.pendingMispredict = false
	switch st.op {
	case isa.OpJal:
		e.rasPush(int64(r.PC) + 1)
	case isa.OpJr:
		predicted := int64(-1)
		if v, ok := e.rasPop(); ok {
			predicted = v
		}
		if predicted != int64(r.Next) {
			e.st.JumpMispreds++
			e.pendingMispredict = true
		}
	}
}

// resolveControl applies the front-end redirect cost decided during
// prediction, now that the resolution cycle is known.
//
//arvi:hotpath
func (e *Engine) resolveControl(fetchC, doneC int64) {
	if e.pendingMispredict {
		if t := doneC + 1; t > e.nextFetchMin {
			e.nextFetchMin = t
		}
		return
	}
	if e.pendingOverride > 0 {
		if t := fetchC + e.pendingOverride; t > e.nextFetchMin {
			e.nextFetchMin = t
		}
	}
}

// resolveLeaves turns the RSE leaf register set into (logical id, value)
// pairs according to the configured value-availability mode, and classifies
// the branch instance as calculated or load. The set is iterated with a
// direct word scan — a ForEach closure here escapes (it captures class by
// reference) and would heap-allocate on every predicted branch.
//
//arvi:hotpath
//arvi:panicfree set is a physRegs-bit vector (DDT contract), so its bit positions index meta, and pregMeta.logical always holds a logical register below isa.NumRegs == len(archVal)
func (e *Engine) resolveLeaves(set bitvec.Vec, fetchC int64) ([]arvi.LeafValue, BranchClass) {
	e.leafBuf = e.leafBuf[:0]
	class := ClassCalculated
	for wi, w := range set {
		base := wi << 6
		for w != 0 {
			p := base + bits.TrailingZeros64(w)
			w &= w - 1
			m := &e.meta[p]
			avail := m.commitC <= fetchC || m.doneC+1 <= fetchC
			if !avail && e.cfg.Mode == PredARVILoadBack && m.isLoad && m.hoistAvail <= fetchC {
				avail = true
			}
			if !avail {
				class = ClassLoad
			}
			val := m.val
			if !avail && e.cfg.Mode != PredARVIPerfect {
				switch e.cfg.StalePolicy {
				case StaleArchValue:
					// Committed architectural value of the leaf's logical
					// register (shadow architectural register file).
					val = e.archVal[m.logical]
				case StaleMask:
					val = 0
				default: // StalePhysical: the paper's shadow regfile read
					val = m.prevVal
				}
			}
			e.leafBuf = append(e.leafBuf, arvi.LeafValue{Logical: m.logical, Value: val})
		}
	}
	return e.leafBuf, class
}
