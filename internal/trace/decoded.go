package trace

import (
	"bufio"
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
		n := max
		if n > preallocCap {
			n = preallocCap
		}
		d.recs = make([]rec, 0, n)
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

// Decode reads an entire trace into memory; p must be the program the
// trace was recorded from. Every record is validated once here, so cursor
// replay needs no per-event checks.
func Decode(p *prog.Program, r io.Reader) (*Decoded, error) {
	rd, err := NewReader(p, r)
	if err != nil {
		return nil, err
	}
	d := &Decoded{prog: p}
	// Preallocate from the declared count, but never trust it with more
	// than a modest allocation up front: a count that lies about a short
	// file must surface as a truncation error from Next, not as an
	// out-of-memory condition here.
	if n := rd.Len(); n > 0 {
		if n > preallocCap {
			n = preallocCap
		}
		d.recs = make([]rec, 0, n)
	}
	var ev vm.Event
	for {
		if err := rd.Next(&ev); err != nil {
			if err == io.EOF {
				return d, nil
			}
			return nil, err
		}
		d.recs = append(d.recs, rec{
			addr: ev.Addr, val: ev.Val,
			pc: uint32(ev.PC), next: uint32(ev.NextPC), taken: ev.Taken,
		})
	}
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

// WriteTo serialises the trace in the on-disk format. The record count is
// known up front, so the header carries it even when w is not seekable.
func (d *Decoded) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, d.prog, uint64(len(d.recs))); err != nil {
		return 0, err
	}
	n := int64(headerSize)
	var buf [recordSize]byte
	var ev vm.Event
	for i := range d.recs {
		r := &d.recs[i]
		// putRecord only reads the five persisted fields; no need to
		// materialise the static instruction.
		ev = vm.Event{
			PC: int(r.pc), NextPC: int(r.next), Taken: r.taken,
			Addr: r.addr, Val: r.val,
		}
		putRecord(&buf, &ev)
		if _, err := bw.Write(buf[:]); err != nil {
			return n, err
		}
		n += recordSize
	}
	return n, bw.Flush()
}

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
