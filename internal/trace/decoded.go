package trace

import (
	"unsafe"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/vm"
)

// recBytes is the in-memory footprint of one record. Static instruction
// bits are not stored (they are the program text at the record's pc), so
// a decoded trace costs 32 bytes per dynamic instruction.
const recBytes = int64(unsafe.Sizeof(vm.Rec{}))

// Decoded is a fully decoded trace held in memory. The record slice is
// immutable after construction, so any number of goroutines may replay the
// same Decoded concurrently, each through its own Cursor, without locks or
// re-decoding.
type Decoded struct {
	prog *prog.Program
	recs []vm.Rec
}

// preallocCap bounds RecordAll's speculative record-slice preallocation
// (4M records = 128 MiB): a budget is a hint, not a trusted size, and a
// program may halt long before its budget.
const preallocCap = 4 << 20

// RecordAll runs the program on a fresh VM for up to max instructions
// (0 = to halt) and returns the decoded correct-path trace.
func RecordAll(p *prog.Program, max int64) (*Decoded, error) {
	d := &Decoded{prog: p}
	if max > 0 {
		d.recs = make([]vm.Rec, 0, min(max, preallocCap))
	}
	machine := vm.New(p)
	if _, err := machine.Run(max, func(ev *vm.Event) error {
		d.recs = append(d.recs, ev.Rec())
		return nil
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// Len returns the number of recorded events.
//
//arvi:hotpath
func (d *Decoded) Len() int64 { return int64(len(d.recs)) }

// Prog returns the program the trace was recorded from.
//
//arvi:hotpath
func (d *Decoded) Prog() *prog.Program { return d.prog }

// Halted reports whether the trace ends with the program halting, as
// opposed to being cut short by a budget.
func (d *Decoded) Halted() bool {
	n := len(d.recs)
	return n > 0 && d.prog.Text[d.recs[n-1].PC].Op == isa.OpHalt
}

// MemBytes estimates the resident size of the decoded record store; the
// trace store's memory budget is accounted in these units.
func (d *Decoded) MemBytes() int64 { return int64(len(d.recs)) * recBytes }

// Cursor reads a Decoded trace as a cpu.EventSource. Cursors are cheap;
// create one per replaying goroutine.
type Cursor struct {
	d *Decoded
	i int // records already returned
}

// Cursor returns a fresh cursor positioned at the first record.
func (d *Decoded) Cursor() *Cursor { return &Cursor{d: d} }

// NextChunk returns the next at most n records as a sub-slice of the
// trace's own record array, with no copy; the chunk is empty once every
// record has been returned. It implements cpu.EventSource, and never
// fails. The caller must not modify the records; the chunk's capacity
// ends with it, so an append cannot reach the records after it.
//
//arvi:hotpath
//arvi:panicfree c.i starts at 0 and only moves to end, which lies in [c.i, len(recs)]
func (c *Cursor) NextChunk(n int) ([]vm.Rec, error) {
	end := len(c.d.recs)
	if n < end-c.i {
		end = c.i + max(n, 0)
	}
	chunk := c.d.recs[c.i:end:end]
	c.i = end
	return chunk, nil
}
