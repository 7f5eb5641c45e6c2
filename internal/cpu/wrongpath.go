package cpu

import (
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/vm"
)

// wrongPathBurst is how many wrong-path instructions a misprediction
// injects: roughly the front end's runahead before resolution.
const wrongPathBurst = 12

// wpUndo records one wrong-path rename so recovery can restore the
// checkpointed state. The engine keeps a reusable scratch slice of these
// (e.wpUndo) so injection allocates nothing in steady state.
type wpUndo struct {
	rd        isa.Reg
	newP      core.PhysReg
	oldP      core.PhysReg
	savedMeta pregMeta
}

// injectWrongPath renames a burst of wrong-path instructions into the DDT
// after a mispredicted conditional branch, then recovers exactly as the
// hardware would: the DDT head pointer rewinds (core.DDT.Rollback) and the
// rename map, free list and shadow state are restored from the checkpoint.
// The net effect on simulation state is nil; the value is exercising the
// recovery machinery under the full pipeline. The wrong path is walked
// through the pre-decoded program text.
//
//arvi:hotpath
//arvi:panicfree pre-decoded registers (src, rd, the recorded u.rd) are below isa.NumRegs == len(mapTable) and nsrc is at most len(src) == 2; freePop results and saved u.newP are below physRegs == len(meta); the recovery index starts at len(wpUndo)-1 and only decrements
func (e *Engine) injectWrongPath(r *vm.Rec, st *pre) {
	// The wrong path is the direction fetch actually followed: the target
	// when the branch was really not taken, the fall-through otherwise.
	wpc := int(r.PC) + 1
	if !r.Taken {
		wpc = int(st.imm)
	}
	static := e.static

	e.wpUndo = e.wpUndo[:0]
	inserted := 0

	for k := 0; k < wrongPathBurst && wpc >= 0 && wpc < len(static); k++ {
		w := &static[wpc]
		if w.op == isa.OpHalt || e.ddt.Full() {
			break
		}
		e.srcPregs = e.srcPregs[:0]
		for _, lr := range w.src[:w.nsrc] {
			e.srcPregs = append(e.srcPregs, e.mapTable[lr])
		}
		isLoad := w.flags&preLoad != 0
		dest := core.NoPReg
		if w.flags&preDest != 0 {
			if e.freeLen == 0 {
				break
			}
			dest = e.freePop()
			e.wpUndo = append(e.wpUndo, wpUndo{
				rd: w.rd, newP: dest, oldP: e.mapTable[w.rd],
				savedMeta: e.meta[dest],
			})
			e.mapTable[w.rd] = dest
			// A real rename would start tracking the new producer; give
			// the recovery something to undo.
			e.meta[dest].logical = uint8(w.rd)
			e.meta[dest].isLoad = isLoad
		}
		if _, err := e.ddt.Insert(dest, e.srcPregs, isLoad); err != nil {
			//arvi:cold invariant trap; the loop breaks before the table fills
			panic("cpu: wrong-path DDT insert failed: " + err.Error())
		}
		inserted++

		// Follow the wrong path through unconditional direct jumps; stop
		// at anything whose target we cannot know statically.
		switch {
		case w.op == isa.OpJ || w.op == isa.OpJal:
			wpc = int(w.imm)
		case w.op == isa.OpJr:
			wpc = len(static) // terminate
		default:
			wpc++
		}
	}

	// Recovery: the paper's Section 2 rollback plus rename checkpoint
	// restore, applied youngest-first. Registers return to the *front* of
	// the free ring so the pre-speculation allocation order is restored
	// exactly.
	if err := e.ddt.Rollback(inserted); err != nil {
		//arvi:cold invariant trap; inserted never exceeds the in-flight count
		panic("cpu: wrong-path rollback failed: " + err.Error())
	}
	for i := len(e.wpUndo) - 1; i >= 0; i-- {
		u := e.wpUndo[i]
		e.mapTable[u.rd] = u.oldP
		e.meta[u.newP] = u.savedMeta
		e.freePushFront(u.newP)
	}
}
