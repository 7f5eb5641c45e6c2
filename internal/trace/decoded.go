package trace

import (
	"io"
	"unsafe"

	"repro/internal/prog"
	"repro/internal/vm"
)

// rec is the in-memory decoded form of one trace record. Static
// instruction bits are not stored — they are recovered from the program
// text when a cursor materialises the event — so a decoded trace costs
// ~32 bytes per dynamic instruction.
type rec struct {
	addr  uint64
	val   int64
	pc    uint32
	next  uint32
	taken bool
}

// recBytes is the in-memory footprint of one decoded record.
const recBytes = int64(unsafe.Sizeof(rec{}))

// Decoded is a fully decoded trace held in memory. The record slice is
// immutable after construction, so any number of goroutines may replay the
// same Decoded concurrently, each through its own Cursor, without locks or
// re-decoding.
type Decoded struct {
	prog *prog.Program
	recs []rec
}

// preallocCap bounds speculative record-slice preallocation (4M records =
// 128 MiB): budgets and header counts are hints, not trusted sizes, and a
// program may halt long before its budget.
const preallocCap = 4 << 20

// RecordAll runs the program on a fresh VM for up to max instructions
// (0 = to halt) and returns the decoded correct-path trace.
func RecordAll(p *prog.Program, max int64) (*Decoded, error) {
	d := &Decoded{prog: p}
	if max > 0 {
		d.recs = make([]rec, 0, min(max, preallocCap))
	}
	machine := vm.New(p)
	if _, err := machine.Run(max, func(ev *vm.Event) error {
		d.recs = append(d.recs, rec{
			addr: ev.Addr, val: ev.Val,
			pc: uint32(ev.PC), next: uint32(ev.NextPC), taken: ev.Taken,
		})
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

// MemBytes estimates the resident size of the decoded record store; the
// trace store's memory budget is accounted in these units.
func (d *Decoded) MemBytes() int64 { return int64(len(d.recs)) * recBytes }

// Cursor iterates a Decoded trace as a cpu.EventSource. Cursors are cheap;
// create one per replaying goroutine.
type Cursor struct {
	d *Decoded
	i int64
}

// Cursor returns a fresh iterator positioned at the first event.
func (d *Decoded) Cursor() *Cursor { return &Cursor{d: d} }

// Next fills ev with the next event, returning io.EOF at the end of the
// trace. It implements cpu.EventSource.
//
//arvi:hotpath
//arvi:panicfree c.i starts at 0 and only increments, and record pcs were validated against len(prog.Text) at decode time
func (c *Cursor) Next(ev *vm.Event) error {
	if c.i >= int64(len(c.d.recs)) {
		return io.EOF
	}
	r := &c.d.recs[c.i]
	*ev = vm.Event{
		Seq:    c.i,
		PC:     int(r.pc),
		Inst:   c.d.prog.Text[r.pc],
		NextPC: int(r.next),
		Taken:  r.taken,
		Addr:   r.addr,
		Val:    r.val,
	}
	c.i++
	return nil
}
