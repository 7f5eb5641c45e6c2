// Package wtrace holds the idealized in-flight window the paper's Section 3
// applications assume, and walks a program's dynamic trace through it.
//
// Window is that window: the last W instructions, renamed onto physical
// registers, with a DDT tracking their dependence chains. It is the one
// rename and dependence-tracking substrate of the Section 3 studies: the
// SMT fetch-priority study (internal/smt) runs one per thread, the
// selective value-prediction study (internal/vpred) one per cell, and
// Walk one per walk. DESIGN.md's Section 3 window section explains its
// register count and why its free-list order is fixed.
//
// Walk runs a program on the functional VM through a Window that retires
// its oldest instruction whenever it is full. Analyses (branch-slice
// studies, criticality measurements) subscribe via a callback that sees
// the DDT state exactly as the hardware would at that instruction's
// rename.
package wtrace

import (
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/vm"
)

// Window is an in-flight window of at most W instructions over
// isa.NumRegs+W+1 physical registers. Instructions enter in program order
// (Sources, then Insert) and leave oldest first (Retire). Physical
// registers are allocated from the front of a FIFO free list and freed to
// its back, so a given sequence of Insert and Retire calls always yields
// the same register numbers.
type Window struct {
	ddt      *core.DDT
	mapTable [isa.NumRegs]core.PhysReg
	freeList []core.PhysReg
	// displaced holds, per DDT entry, the mapping that entry's destination
	// replaced; Retire frees it.
	displaced []core.PhysReg
	srcs      [2]core.PhysReg
}

// NewWindow builds an empty window of the given number of entries; a DDT
// with trackDeps keeps the Section 3 dependent counts (DDT.DepCount).
func NewWindow(entries int, trackDeps bool) (*Window, error) {
	physRegs := isa.NumRegs + entries + 1
	ddt, err := core.NewDDT(core.Config{
		Entries: entries, PhysRegs: physRegs, TrackDepCounts: trackDeps,
	})
	if err != nil {
		return nil, err
	}
	w := &Window{
		ddt:       ddt,
		freeList:  make([]core.PhysReg, 0, entries+1),
		displaced: make([]core.PhysReg, entries),
	}
	for i := range w.mapTable {
		w.mapTable[i] = core.PhysReg(i)
	}
	for r := isa.NumRegs; r < physRegs; r++ {
		w.freeList = append(w.freeList, core.PhysReg(r))
	}
	return w, nil
}

// DDT returns the window's dependence table: one entry per in-flight
// instruction, the oldest at Tail.
func (w *Window) DDT() *core.DDT { return w.ddt }

// Sources returns in's source registers renamed through the current map
// table, in isa.Inst.SrcRegs order. It must run before Insert renames in's
// destination, so an instruction that reads the register it writes
// (addi r1, r1, 1) reads the older mapping. The slice is reused by the
// next call.
func (w *Window) Sources(in isa.Inst) []core.PhysReg {
	var regs [2]isa.Reg
	srcs := w.srcs[:0]
	for _, r := range in.SrcRegs(regs[:0]) {
		srcs = append(srcs, w.mapTable[r])
	}
	return srcs
}

// Insert renames in's destination onto the oldest free physical register
// and enters in into the DDT with srcs, its renamed sources from Sources.
// It returns the physical destination, or core.NoPReg when in writes no
// register. The window must not be full: Retire first.
func (w *Window) Insert(in isa.Inst, srcs []core.PhysReg) (core.PhysReg, error) {
	dest, displaced := core.NoPReg, core.NoPReg
	if in.HasDest() {
		dest = w.freeList[0]
		w.freeList = w.freeList[1:]
		displaced = w.mapTable[in.Rd]
		w.mapTable[in.Rd] = dest
	}
	e, err := w.ddt.Insert(dest, srcs, in.IsLoad())
	if err != nil {
		return core.NoPReg, err
	}
	w.displaced[e] = displaced
	return dest, nil
}

// Retire commits the oldest instruction and frees the register its
// destination displaced: every reader of that older mapping was renamed
// before it, so none is still in flight.
func (w *Window) Retire() error {
	e, err := w.ddt.Commit()
	if err != nil {
		return err
	}
	if old := w.displaced[e]; old != core.NoPReg {
		w.freeList = append(w.freeList, old)
	}
	return nil
}

// Step is the per-instruction view handed to the callback, valid only for
// the duration of the call.
type Step struct {
	Event *vm.Event
	// DDT is the window's dependence table *before* this instruction is
	// inserted (the state a predictor reading at rename would see).
	DDT *core.DDT
	// SrcPregs are the instruction's renamed source registers.
	SrcPregs []core.PhysReg
	// Window is the current number of in-flight instructions.
	Window int
}

// Walk runs the program functionally for up to maxInsts instructions
// (0 = to halt) through a Window of size window, invoking fn before each
// instruction is inserted; the oldest instruction retires whenever the
// window is full. trackDeps selects the DDT's dependent counts.
func Walk(p *prog.Program, maxInsts int64, window int, trackDeps bool,
	fn func(*Step) error) error {
	w, err := NewWindow(window, trackDeps)
	if err != nil {
		return err
	}
	step := Step{DDT: w.ddt}
	_, err = vm.New(p).Run(maxInsts, func(ev *vm.Event) error {
		if w.ddt.Full() {
			if rerr := w.Retire(); rerr != nil {
				return rerr
			}
		}
		step.Event = ev
		step.SrcPregs = w.Sources(ev.Inst)
		step.Window = w.ddt.Len()
		if ferr := fn(&step); ferr != nil {
			return ferr
		}
		_, ierr := w.Insert(ev.Inst, step.SrcPregs)
		return ierr
	})
	return err
}
