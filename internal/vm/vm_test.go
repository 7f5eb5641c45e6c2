package vm

import (
	"errors"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/prog"
)

func run(t *testing.T, src string, max int64) (*VM, []Event) {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	v := New(p)
	var evs []Event
	if _, err := v.Run(max, func(e *Event) error { evs = append(evs, *e); return nil }); err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, evs
}

func TestMemoryByteWord(t *testing.T) {
	m := NewMemory()
	if m.LoadByte(100) != 0 || m.LoadWord(100) != 0 {
		t.Error("untouched memory must read zero")
	}
	m.StoreWord(64, -2)
	if got := m.LoadWord(64); got != -2 {
		t.Errorf("word roundtrip = %d", got)
	}
	if got := m.LoadByte(64); got != 0xfe {
		t.Errorf("byte of word = %#x", got)
	}
	m.StoreByte(7, 0x80)
	if got := m.LoadByte(7); got != 0x80 {
		t.Errorf("byte roundtrip = %#x", got)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3)
	m.StoreWord(addr, 0x0102030405060708)
	if got := m.LoadWord(addr); got != 0x0102030405060708 {
		t.Errorf("straddling word = %#x", got)
	}
	if m.Pages() != 2 {
		t.Errorf("pages = %d, want 2", m.Pages())
	}
}

func TestMemoryWordQuick(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v int64) bool {
		a := uint64(addr)
		m.StoreWord(a, v)
		return m.LoadWord(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithmetic(t *testing.T) {
	v, _ := run(t, `
main:
    li   r1, 7
    li   r2, 3
    add  r3, r1, r2
    sub  r4, r1, r2
    mul  r5, r1, r2
    div  r6, r1, r2
    rem  r7, r1, r2
    and  r8, r1, r2
    or   r9, r1, r2
    xor  r10, r1, r2
    slt  r11, r2, r1
    slt  r12, r1, r2
    sll  r13, r1, r2
    srl  r14, r13, r2
    halt
`, 0)
	want := map[isa.Reg]int64{
		3: 10, 4: 4, 5: 21, 6: 2, 7: 1, 8: 3, 9: 7, 10: 4,
		11: 1, 12: 0, 13: 56, 14: 7,
	}
	for r, w := range want {
		if v.Regs[r] != w {
			t.Errorf("r%d = %d, want %d", r, v.Regs[r], w)
		}
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	v, _ := run(t, `
main:
    li  r1, 5
    li  r2, 0
    div r3, r1, r2      # /0 -> 0
    rem r4, r1, r2      # %0 -> dividend
    li  r5, -9223372036854775808
    li  r6, -1
    div r7, r5, r6      # overflow -> dividend
    rem r8, r5, r6      # -> 0
    halt
`, 0)
	if v.Regs[3] != 0 || v.Regs[4] != 5 {
		t.Errorf("div/rem by zero: r3=%d r4=%d", v.Regs[3], v.Regs[4])
	}
	if v.Regs[7] != -9223372036854775808 || v.Regs[8] != 0 {
		t.Errorf("overflow div: r7=%d r8=%d", v.Regs[7], v.Regs[8])
	}
}

func TestR0IsZero(t *testing.T) {
	v, _ := run(t, `
main:
    li   r0, 99
    addi r0, r0, 5
    add  r1, r0, r0
    halt
`, 0)
	if v.Regs[0] != 0 || v.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d, want 0, 0", v.Regs[0], v.Regs[1])
	}
}

func TestLoadsStores(t *testing.T) {
	v, _ := run(t, `
    .data
tab: .word 11, 22, 33
buf: .space 16
    .text
main:
    la  r1, tab
    lw  r2, 8(r1)       # 22
    la  r3, buf
    sw  r2, 0(r3)
    lw  r4, buf(r0)
    li  r5, -1
    sb  r5, 8(r3)
    lb  r6, 8(r3)       # sign-extended -1
    halt
`, 0)
	if v.Regs[2] != 22 || v.Regs[4] != 22 {
		t.Errorf("lw/sw: r2=%d r4=%d", v.Regs[2], v.Regs[4])
	}
	if v.Regs[6] != -1 {
		t.Errorf("lb sign extension: r6=%d", v.Regs[6])
	}
}

func TestBranchOutcomes(t *testing.T) {
	_, evs := run(t, `
main:
    li   r1, 2
loop:
    addi r1, r1, -1
    bne  r1, r0, loop
    bltz r1, main       # not taken (r1 == 0)
    bgez r1, end        # taken
    nop
end:
    halt
`, 0)
	var outcomes []bool
	for _, e := range evs {
		if e.Inst.IsCondBranch() {
			outcomes = append(outcomes, e.Taken)
		}
	}
	want := []bool{true, false, false, true}
	if len(outcomes) != len(want) {
		t.Fatalf("branch count = %d, want %d (%v)", len(outcomes), len(want), outcomes)
	}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Errorf("branch %d taken = %v, want %v", i, outcomes[i], want[i])
		}
	}
}

func TestCallReturn(t *testing.T) {
	v, _ := run(t, `
main:
    li   r1, 5
    call double
    add  r3, r2, r0
    halt
double:
    add  r2, r1, r1
    ret
`, 0)
	if v.Regs[3] != 10 {
		t.Errorf("r3 = %d, want 10", v.Regs[3])
	}
}

func TestEventFields(t *testing.T) {
	_, evs := run(t, `
    .data
x: .word 42
    .text
main:
    lw  r1, x(r0)
    add r2, r1, r1
    beq r2, r0, main
    halt
`, 0)
	lw := evs[0]
	if !lw.Inst.IsLoad() || lw.Addr != prog.DefaultDataBase || lw.Val != 42 {
		t.Errorf("load event = %+v", lw)
	}
	add := evs[1]
	if add.Val != 84 {
		t.Errorf("add event = %+v", add)
	}
	br := evs[2]
	if br.Taken || br.NextPC != 3 {
		t.Errorf("branch event = %+v", br)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Error("seq numbering wrong")
	}
}

func TestHalted(t *testing.T) {
	v, _ := run(t, "main:\n  halt\n", 0)
	var ev Event
	if err := v.Step(&ev); !errors.Is(err, ErrHalted) {
		t.Errorf("step after halt = %v, want ErrHalted", err)
	}
}

func TestMaxInstructions(t *testing.T) {
	p := asm.MustAssemble("loop", "main:\n  j main\n")
	v := New(p)
	n, err := v.Run(100, nil)
	if err != nil || n != 100 {
		t.Errorf("Run = %d, %v; want 100, nil", n, err)
	}
}

func TestJrFault(t *testing.T) {
	p := asm.MustAssemble("bad", "main:\n  li r1, 500\n  jr r1\n  halt")
	v := New(p)
	if _, err := v.Run(0, nil); err == nil {
		t.Error("expected fault on wild jr")
	}
	if v.Fault() == nil {
		t.Error("fault must be sticky")
	}
}

// Property: a random straight-line arithmetic computation matches a Go
// reference evaluation of the same expression DAG.
func TestQuickArithmeticVsReference(t *testing.T) {
	f := func(a, b, c int64) bool {
		p := asm.MustAssemble("q", `
main:
    add r4, r1, r2
    xor r5, r4, r3
    sub r6, r5, r1
    mul r7, r6, r2
    halt
`)
		v := New(p)
		v.Regs[1], v.Regs[2], v.Regs[3] = a, b, c
		if _, err := v.Run(0, nil); err != nil {
			return false
		}
		r4 := a + b
		r5 := r4 ^ c
		r6 := r5 - a
		r7 := r6 * b
		return v.Regs[4] == r4 && v.Regs[5] == r5 && v.Regs[6] == r6 && v.Regs[7] == r7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: store then load round-trips through VM memory at random
// addresses within the data segment.
func TestQuickStoreLoadRoundTrip(t *testing.T) {
	p := asm.MustAssemble("q", `
    .data
buf: .space 4096
    .text
main:
    la r3, buf
    add r3, r3, r1
    sw r2, 0(r3)
    lw r4, 0(r3)
    halt
`)
	f := func(off uint16, val int64) bool {
		v := New(p)
		v.Regs[1] = int64(off % 4088)
		v.Regs[2] = val
		if _, err := v.Run(0, nil); err != nil {
			return false
		}
		return v.Regs[4] == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRecIs32Bytes pins the trace record's size: resident traces and the
// trace store's memory budget are sized in these units.
func TestRecIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Rec{}); got != 32 {
		t.Errorf("vm.Rec is %d bytes, want 32", got)
	}
}
