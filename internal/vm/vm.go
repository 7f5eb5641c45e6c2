// Package vm implements the architectural (functional) simulator for the
// ISA. It executes a program in program order and produces the dynamic
// instruction trace the timing core replays: one Event per retired
// instruction carrying its result value, memory address and branch
// outcome, and the 32-byte Rec a trace keeps of it. The VM is the oracle:
// the ARVI "perfect value" configuration and the load-back
// disambiguation checks read values from these records.
package vm

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
)

// pageBits selects the sparse-memory page size (4 KiB).
const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse byte-addressable memory backed by 4 KiB pages that are
// allocated on first touch.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// NewMemory returns an empty sparse memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, alloc bool) *[pageSize]byte {
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil && alloc {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// LoadByte returns the byte at addr (0 for untouched memory).
func (m *Memory) LoadByte(addr uint64) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&(pageSize-1)]
	}
	return 0
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.page(addr, true)[addr&(pageSize-1)] = b
}

// LoadWord returns the little-endian 8-byte word at addr. Words may straddle
// page boundaries.
func (m *Memory) LoadWord(addr uint64) int64 {
	if addr&(pageSize-1) <= pageSize-8 {
		if p := m.page(addr, false); p != nil {
			off := addr & (pageSize - 1)
			var u uint64
			for i := uint64(0); i < 8; i++ {
				u |= uint64(p[off+i]) << (8 * i)
			}
			return int64(u)
		}
		return 0
	}
	var u uint64
	for i := uint64(0); i < 8; i++ {
		u |= uint64(m.LoadByte(addr+i)) << (8 * i)
	}
	return int64(u)
}

// StoreWord stores v little-endian at addr.
func (m *Memory) StoreWord(addr uint64, v int64) {
	u := uint64(v)
	if addr&(pageSize-1) <= pageSize-8 {
		p := m.page(addr, true)
		off := addr & (pageSize - 1)
		for i := uint64(0); i < 8; i++ {
			p[off+i] = byte(u >> (8 * i))
		}
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.StoreByte(addr+i, byte(u>>(8*i)))
	}
}

// LoadImage copies data into memory starting at base.
func (m *Memory) LoadImage(base uint64, data []byte) {
	for i, b := range data {
		m.StoreByte(base+uint64(i), b)
	}
}

// Pages reports how many distinct pages have been touched.
func (m *Memory) Pages() int { return len(m.pages) }

// Event describes one dynamically executed (retired) instruction, with
// its decoded static instruction.
type Event struct {
	Seq    int64    // dynamic instruction number, starting at 0
	PC     int      // instruction index
	Inst   isa.Inst // the decoded instruction
	NextPC int      // architectural next PC (fall-through or target)
	Taken  bool     // for conditional branches: outcome
	Addr   uint64   // effective address for loads/stores
	Val    int64    // result value written to Rd (loads: loaded value)
}

// Rec is one retired instruction as a trace stores it and the timing
// core reads it: 32 bytes. The static instruction is not kept; it is the
// program text at PC, and the dynamic instruction number is the record's
// position in its trace.
type Rec struct {
	Addr  uint64 // effective address for loads/stores
	Val   int64  // result value written to Rd (stores: the stored value)
	PC    uint32 // instruction index
	Next  uint32 // architectural next PC
	Taken bool   // for conditional branches: outcome
}

// Rec returns the event's trace record.
func (ev *Event) Rec() Rec {
	return Rec{Addr: ev.Addr, Val: ev.Val, PC: uint32(ev.PC), Next: uint32(ev.NextPC), Taken: ev.Taken}
}

// VM is the architectural simulator state.
type VM struct {
	Prog  *prog.Program
	Regs  [isa.NumRegs]int64
	Mem   *Memory
	PC    int
	Seq   int64
	Halt  bool
	fault error
}

// ErrHalted is returned by Step after the program executed HALT.
var ErrHalted = errors.New("vm: halted")

// New creates a VM with the program image loaded and the stack pointer
// initialised to prog.DefaultStackTop.
func New(p *prog.Program) *VM {
	v := &VM{Prog: p, Mem: NewMemory(), PC: p.Entry}
	v.Mem.LoadImage(p.DataBase, p.Data)
	v.Regs[isa.SP] = int64(prog.DefaultStackTop)
	return v
}

// Fault returns the sticky execution fault, if any (e.g. PC out of range).
func (v *VM) Fault() error { return v.fault }

func (v *VM) faultf(format string, args ...any) error {
	v.fault = fmt.Errorf("vm: pc=%d seq=%d: %s", v.PC, v.Seq, fmt.Sprintf(format, args...))
	return v.fault
}

// Step executes one instruction and fills ev with its trace record.
// It returns ErrHalted once the program has halted.
func (v *VM) Step(ev *Event) error {
	if v.Halt {
		return ErrHalted
	}
	if v.fault != nil {
		return v.fault
	}
	if v.PC < 0 || v.PC >= len(v.Prog.Text) {
		return v.faultf("pc outside text segment")
	}
	in := v.Prog.Text[v.PC]
	*ev = Event{Seq: v.Seq, PC: v.PC, Inst: in, NextPC: v.PC + 1}

	r1, r2 := v.Regs[in.Rs1], v.Regs[in.Rs2]
	setRd := func(val int64) {
		ev.Val = val
		if in.Rd != isa.Zero {
			v.Regs[in.Rd] = val
		}
	}

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		setRd(r1 + r2)
	case isa.OpSub:
		setRd(r1 - r2)
	case isa.OpAnd:
		setRd(r1 & r2)
	case isa.OpOr:
		setRd(r1 | r2)
	case isa.OpXor:
		setRd(r1 ^ r2)
	case isa.OpSll:
		setRd(r1 << (uint64(r2) & 63))
	case isa.OpSrl:
		setRd(int64(uint64(r1) >> (uint64(r2) & 63)))
	case isa.OpSra:
		setRd(r1 >> (uint64(r2) & 63))
	case isa.OpSlt:
		setRd(b2i(r1 < r2))
	case isa.OpSltu:
		setRd(b2i(uint64(r1) < uint64(r2)))
	case isa.OpMul:
		setRd(r1 * r2)
	case isa.OpDiv:
		if r2 == 0 {
			setRd(0)
		} else if r1 == -1<<63 && r2 == -1 {
			setRd(r1)
		} else {
			setRd(r1 / r2)
		}
	case isa.OpRem:
		if r2 == 0 {
			setRd(r1)
		} else if r1 == -1<<63 && r2 == -1 {
			setRd(0)
		} else {
			setRd(r1 % r2)
		}
	case isa.OpAddi:
		setRd(r1 + in.Imm)
	case isa.OpAndi:
		setRd(r1 & in.Imm)
	case isa.OpOri:
		setRd(r1 | in.Imm)
	case isa.OpXori:
		setRd(r1 ^ in.Imm)
	case isa.OpSlti:
		setRd(b2i(r1 < in.Imm))
	case isa.OpSlli:
		setRd(r1 << (uint64(in.Imm) & 63))
	case isa.OpSrli:
		setRd(int64(uint64(r1) >> (uint64(in.Imm) & 63)))
	case isa.OpSrai:
		setRd(r1 >> (uint64(in.Imm) & 63))
	case isa.OpLi:
		setRd(in.Imm)
	case isa.OpLw:
		ev.Addr = uint64(r1 + in.Imm)
		setRd(v.Mem.LoadWord(ev.Addr))
	case isa.OpLb:
		ev.Addr = uint64(r1 + in.Imm)
		setRd(int64(int8(v.Mem.LoadByte(ev.Addr))))
	case isa.OpSw:
		ev.Addr = uint64(r1 + in.Imm)
		ev.Val = r2
		v.Mem.StoreWord(ev.Addr, r2)
	case isa.OpSb:
		ev.Addr = uint64(r1 + in.Imm)
		ev.Val = r2
		v.Mem.StoreByte(ev.Addr, byte(r2))
	case isa.OpBeq:
		ev.Taken = r1 == r2
	case isa.OpBne:
		ev.Taken = r1 != r2
	case isa.OpBlt:
		ev.Taken = r1 < r2
	case isa.OpBge:
		ev.Taken = r1 >= r2
	case isa.OpBltz:
		ev.Taken = r1 < 0
	case isa.OpBgez:
		ev.Taken = r1 >= 0
	case isa.OpJ:
		ev.NextPC = int(in.Imm)
	case isa.OpJal:
		setRd(int64(v.PC + 1))
		ev.NextPC = int(in.Imm)
	case isa.OpJr:
		ev.NextPC = int(r1)
	case isa.OpHalt:
		v.Halt = true
	default:
		return v.faultf("undefined opcode %v", in.Op)
	}

	if in.IsCondBranch() && ev.Taken {
		ev.NextPC = int(in.Imm)
	}
	if ev.NextPC < 0 || (ev.NextPC >= len(v.Prog.Text) && !v.Halt) {
		return v.faultf("control transfer to %d outside text", ev.NextPC)
	}
	v.PC = ev.NextPC
	v.Seq++
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Run executes up to max instructions (or until halt/fault if max <= 0),
// invoking fn for each event when fn is non-nil. An error from fn stops
// the run and is returned. It returns the number of instructions retired,
// counting the one whose callback failed.
func (v *VM) Run(max int64, fn func(*Event) error) (int64, error) {
	var ev Event
	var n int64
	for max <= 0 || n < max {
		if err := v.Step(&ev); err != nil {
			if errors.Is(err, ErrHalted) {
				return n, nil
			}
			return n, err
		}
		n++
		if fn != nil {
			if err := fn(&ev); err != nil {
				return n, err
			}
		}
		if v.Halt {
			return n, nil
		}
	}
	return n, nil
}
