package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/vm"
	"repro/internal/workload"
)

const loopSrc = `
    .data
tab: .word 5, 3, 9
    .text
main:
    li  r1, 0
    li  r2, 200
loop:
    andi r3, r1, 1
    slli r3, r3, 3
    lw  r4, tab(r3)
    add r5, r5, r4
    addi r1, r1, 1
    bne r1, r2, loop
    halt
`

func TestRecordReplayMatchesLive(t *testing.T) {
	p := asm.MustAssemble("loop", loopSrc)
	var buf bytes.Buffer
	n, err := Record(p, 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}

	// Replaying the trace must yield event-for-event identity with a live
	// functional run.
	rd, err := NewReader(p, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(p)
	var live, replay vm.Event
	for i := int64(0); ; i++ {
		rerr := rd.Next(&replay)
		lerr := machine.Step(&live)
		if rerr == io.EOF {
			if lerr == nil && !machine.Halt {
				// Step after halt should error; the trace ends with halt.
				t.Fatalf("trace ended early at %d", i)
			}
			break
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
		if lerr != nil {
			t.Fatal(lerr)
		}
		if replay.PC != live.PC || replay.NextPC != live.NextPC ||
			replay.Taken != live.Taken || replay.Addr != live.Addr ||
			replay.Val != live.Val || replay.Seq != live.Seq {
			t.Fatalf("event %d mismatch:\nreplay %+v\nlive   %+v", i, replay, live)
		}
		if machine.Halt {
			if err := rd.Next(&replay); err != io.EOF {
				t.Fatalf("expected EOF after halt, got %v", err)
			}
			break
		}
	}
}

func TestTimingFromTraceMatchesLive(t *testing.T) {
	// The whole point of the trace: feeding it to the timing model must
	// reproduce the live run's statistics exactly.
	b := workload.ByName("perl")
	var buf bytes.Buffer
	if _, err := Record(b.Prog, 30_000, &buf); err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig(20, cpu.PredARVICurrent)
	cfg.MaxInsts = 30_000

	live, err := cpu.Run(b.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cpu.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(b.Prog, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := eng.RunSource(b.Prog, rd)
	if err != nil {
		t.Fatal(err)
	}
	if live != replayed {
		t.Errorf("trace replay diverged:\nlive   %+v\nreplay %+v", live, replayed)
	}
}

// TestTimingFromTraceWithWrongPathInject pins the RunSource/Run parity
// contract for the full pipeline: the wrong-path rename/rollback machinery
// needs only the program text plus the correct-path events, so a trace
// replay must drive it identically to a live run.
func TestTimingFromTraceWithWrongPathInject(t *testing.T) {
	b := workload.ByName("li")
	dec, err := RecordAll(b.Prog, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig(20, cpu.PredARVICurrent)
	cfg.MaxInsts = 20_000
	cfg.WrongPathInject = true

	live, err := cpu.Run(b.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cpu.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := eng.RunSource(b.Prog, dec.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if live != replayed {
		t.Errorf("wrong-path replay diverged:\nlive   %+v\nreplay %+v", live, replayed)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	p := asm.MustAssemble("x", "main:\n  halt\n")
	if _, err := NewReader(p, strings.NewReader("BADMAGIC")); err == nil {
		t.Error("bad magic accepted")
	}
	// A record pointing outside the text segment.
	var buf bytes.Buffer
	w, err := NewWriter(p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&vm.Event{PC: 99}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(p, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ev vm.Event
	if err := rd.Next(&ev); err == nil {
		t.Error("out-of-range pc accepted")
	}
}

func TestReaderRejectsTruncatedHeader(t *testing.T) {
	p := asm.MustAssemble("x", "main:\n  halt\n")
	var buf bytes.Buffer
	if _, err := Record(p, 0, &buf); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, len(magic), headerSize - 1} {
		if _, err := NewReader(p, bytes.NewReader(buf.Bytes()[:n])); err == nil {
			t.Errorf("header truncated to %d bytes accepted", n)
		}
	}
}

func TestReaderRejectsWrongProgram(t *testing.T) {
	// Two programs of identical text length: without the fingerprint check
	// a cross-replay would silently decode garbage instructions.
	a := asm.MustAssemble("a", "main:\n  li r1, 1\n  halt\n")
	b := asm.MustAssemble("b", "main:\n  li r1, 2\n  halt\n")
	var buf bytes.Buffer
	if _, err := Record(a, 0, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(b, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("trace of program a accepted for program b")
	}
	if _, err := NewReader(a, bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("trace rejected for its own program: %v", err)
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	prg := asm.MustAssemble("loop", loopSrc)
	path := filepath.Join(t.TempDir(), "loop.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Record(prg, 100, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := headerSize + int(n)*recordSize; len(raw) != want {
		t.Fatalf("trace file is %d bytes, want %d", len(raw), want)
	}

	drain := func(b []byte) (int64, error) {
		rd, err := NewReader(prg, bytes.NewReader(b))
		if err != nil {
			return 0, err
		}
		var ev vm.Event
		var got int64
		for {
			if err := rd.Next(&ev); err != nil {
				if err == io.EOF {
					return got, nil
				}
				return got, err
			}
			got++
		}
	}

	// Intact file: all declared records, clean EOF.
	if got, err := drain(raw); err != nil || got != n {
		t.Fatalf("intact drain = (%d, %v), want (%d, nil)", got, err, n)
	}
	// Cut at a record boundary: silent-shortening must be detected.
	cut := raw[:headerSize+10*recordSize]
	if _, err := drain(cut); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("boundary truncation: err = %v, want truncation error", err)
	}
	// Cut mid-record.
	mid := raw[:headerSize+10*recordSize+7]
	if _, err := drain(mid); err == nil {
		t.Error("mid-record truncation accepted")
	}
	// Trailing garbage after the declared records.
	trailing := append(append([]byte(nil), raw...), 0xAB)
	if _, err := drain(trailing); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing data: err = %v, want trailing-data error", err)
	}
}

// TestReaderRejectsCorruptCount: a flipped count field must fail the
// header check, never size an allocation (a count of 2^40 once drove
// Decode into an unrecoverable out-of-memory fatal before the self-heal
// path could remove the file).
func TestReaderRejectsCorruptCount(t *testing.T) {
	prg := asm.MustAssemble("loop", loopSrc)
	var buf bytes.Buffer
	if _, err := Record(prg, 100, &buf); err != nil {
		t.Fatal(err)
	}
	for _, count := range []uint64{1 << 40, 1<<64 - 2} {
		raw := append([]byte(nil), buf.Bytes()...)
		for i := 0; i < 8; i++ {
			raw[int(countOffset)+i] = byte(count >> (8 * i))
		}
		if _, err := NewReader(prg, bytes.NewReader(raw)); err == nil {
			t.Errorf("count %d accepted", count)
		}
		if _, err := Decode(prg, bytes.NewReader(raw)); err == nil {
			t.Errorf("count %d decoded", count)
		}
	}
	// A lying-but-plausible count must surface as truncation, not OOM.
	raw := append([]byte(nil), buf.Bytes()...)
	lie := uint64(1 << 24)
	for i := 0; i < 8; i++ {
		raw[int(countOffset)+i] = byte(lie >> (8 * i))
	}
	if _, err := Decode(prg, bytes.NewReader(raw)); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Errorf("plausible lying count: err = %v, want truncation error", err)
	}
}

func TestReaderLenFromHeader(t *testing.T) {
	prg := asm.MustAssemble("loop", loopSrc)

	// Seekable sink: exact count in the header.
	path := filepath.Join(t.TempDir(), "loop.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Record(prg, 50, f)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	raw, _ := os.ReadFile(path)
	rd, err := NewReader(prg, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Len() != n {
		t.Errorf("Len = %d, want %d", rd.Len(), n)
	}

	// Pure stream: unknown count.
	var buf bytes.Buffer
	if _, err := Record(prg, 50, &buf); err != nil {
		t.Fatal(err)
	}
	rd2, err := NewReader(prg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rd2.Len() != -1 {
		t.Errorf("streamed Len = %d, want -1", rd2.Len())
	}
}

func TestWriterLen(t *testing.T) {
	p := asm.MustAssemble("x", "main:\n  halt\n")
	var buf bytes.Buffer
	w, err := NewWriter(p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(&vm.Event{PC: i}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 5 {
		t.Errorf("len = %d", w.Len())
	}
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

var errSinkFull = errors.New("sink full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errSinkFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestRecordStopsOnWriteError pins that a failing sink stops the
// recording: Record returns the sink's error as soon as a buffered write
// reaches it, instead of stepping the VM on to its budget.
func TestRecordStopsOnWriteError(t *testing.T) {
	p := asm.MustAssemble("spin", "main:\n  j main\n")
	const max = 100_000
	n, err := Record(p, max, &failingWriter{limit: 4 << 10})
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if n >= max/10 {
		t.Errorf("recorded %d of %d instructions after the sink failed", n, max)
	}
}
