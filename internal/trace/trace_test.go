package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/prog"
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

// encode records up to max instructions of p and returns the trace file.
func encode(t testing.TB, p *prog.Program, max int64) []byte {
	t.Helper()
	d, err := RecordAll(p, max)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withCount returns a copy of the trace file raw whose header declares
// count records.
func withCount(raw []byte, count uint64) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(out[headerSize-8:], count)
	return out
}

// records reads d through a fresh cursor, in chunks of at most 7 records
// so that chunk boundaries fall inside every trace longer than that, and
// requires every chunk's capacity to end with it.
func records(t testing.TB, d *Decoded) []vm.Rec {
	t.Helper()
	var out []vm.Rec
	c := d.Cursor()
	for {
		chunk, err := c.NextChunk(7)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			return out
		}
		if len(chunk) > 7 || cap(chunk) != len(chunk) {
			t.Fatalf("chunk of %d records with capacity %d, asked for at most 7", len(chunk), cap(chunk))
		}
		out = append(out, chunk...)
	}
}

// wantDecodeErr requires Decode of raw against p to fail with exactly msg.
func wantDecodeErr(t *testing.T, name string, p *prog.Program, raw []byte, msg string) {
	t.Helper()
	d, err := Decode(p, bytes.NewReader(raw))
	if err == nil {
		t.Errorf("%s: decoded %d events, want error %q", name, d.Len(), msg)
	} else if err.Error() != msg {
		t.Errorf("%s: err = %q, want %q", name, err, msg)
	}
}

func TestRecordReplayMatchesLive(t *testing.T) {
	p := asm.MustAssemble("loop", loopSrc)
	d, err := Decode(p, bytes.NewReader(encode(t, p, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Fatal("empty trace")
	}

	// Replaying the trace file must yield record-for-record identity with
	// a live functional run, which it ends with the halt.
	machine := vm.New(p)
	var live vm.Event
	for i, replay := range records(t, d) {
		if err := machine.Step(&live); err != nil {
			t.Fatalf("live step %d: %v", i, err)
		}
		if replay != live.Rec() {
			t.Fatalf("record %d mismatch:\nreplay %+v\nlive   %+v", i, replay, live)
		}
	}
	if !machine.Halt {
		t.Fatalf("trace ended after %d events, before the live run halted", d.Len())
	}
}

func TestTimingFromTraceMatchesLive(t *testing.T) {
	// The whole point of the trace: feeding it to the timing model must
	// reproduce the live run's statistics exactly.
	b := workload.ByName("perl")
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
	d, err := Decode(b.Prog, bytes.NewReader(encode(t, b.Prog, 30_000)))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := eng.RunSource(b.Prog, d.Cursor())
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
	bad := append([]byte("BADMAGIC"), make([]byte, headerSize-len(magic))...)
	wantDecodeErr(t, "bad magic", p, bad, `trace: bad magic "BADMAGIC"`)

	// A record pointing outside the text segment.
	var buf bytes.Buffer
	if _, err := (&Decoded{prog: p, recs: []vm.Rec{{PC: 0}, {PC: 99}}}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wantDecodeErr(t, "pc 99", p, buf.Bytes(), "trace: record 1: pc 99 outside program text")
}

func TestReaderRejectsTruncatedHeader(t *testing.T) {
	p := asm.MustAssemble("x", "main:\n  halt\n")
	raw := encode(t, p, 0)
	wantDecodeErr(t, "empty file", p, nil, "trace: reading header: EOF")
	for _, n := range []int{3, len(magic), headerSize - 1} {
		wantDecodeErr(t, "header cut", p, raw[:n], "trace: reading header: unexpected EOF")
	}
}

func TestReaderRejectsWrongProgram(t *testing.T) {
	// Two programs of identical text length: without the fingerprint check
	// a cross-replay would silently decode garbage instructions.
	a := asm.MustAssemble("a", "main:\n  li r1, 1\n  halt\n")
	b := asm.MustAssemble("b", "main:\n  li r1, 2\n  halt\n")
	raw := encode(t, a, 0)
	wantDecodeErr(t, "program b", b, raw, `trace: program mismatch: trace was not recorded from "b"`)
	if _, err := Decode(a, bytes.NewReader(raw)); err != nil {
		t.Errorf("trace rejected for its own program: %v", err)
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	prg := asm.MustAssemble("loop", loopSrc)
	raw := encode(t, prg, 100)
	if want := headerSize + 100*recordSize; len(raw) != want {
		t.Fatalf("trace file is %d bytes, want %d", len(raw), want)
	}

	// Intact file: all declared records.
	if d, err := Decode(prg, bytes.NewReader(raw)); err != nil || d.Len() != 100 {
		t.Fatalf("intact decode: err %v, want 100 events", err)
	}
	// Cut at a record boundary: silent shortening must be detected.
	wantDecodeErr(t, "boundary cut", prg, raw[:headerSize+10*recordSize],
		"trace: truncated: 10 of 100 declared records")
	// Cut mid-record.
	wantDecodeErr(t, "mid-record cut", prg, raw[:headerSize+10*recordSize+7],
		"trace: record 10: unexpected EOF")
	// Trailing garbage after the declared records.
	wantDecodeErr(t, "trailing byte", prg, append(raw[:len(raw):len(raw)], 0xAB),
		"trace: trailing data after 100 declared records")
}

// TestDecodeReadsEOFTerminatedTrace pins the reading of traces whose
// header count is countUnknown, as earlier builds wrote them to pipes:
// the records run to EOF, a partial record is still an error, and only a
// cut at a record boundary goes unseen (the reason the count is written).
func TestDecodeReadsEOFTerminatedTrace(t *testing.T) {
	prg := asm.MustAssemble("loop", loopSrc)
	raw := encode(t, prg, 100)
	want, err := Decode(prg, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	open := withCount(raw, countUnknown)
	got, err := Decode(prg, bytes.NewReader(open))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := records(t, got), records(t, want); len(a) != 100 || !slices.Equal(a, b) {
		t.Fatalf("EOF-terminated trace decoded %d events unlike its counted form's %d", len(a), len(b))
	}
	if d, err := Decode(prg, bytes.NewReader(open[:headerSize+10*recordSize])); err != nil || d.Len() != 10 {
		t.Errorf("boundary cut: err %v, want 10 events", err)
	}
	wantDecodeErr(t, "mid-record cut", prg, open[:headerSize+10*recordSize+7],
		"trace: record 10: unexpected EOF")
	wantDecodeErr(t, "trailing byte", prg, append(open, 0xAB),
		"trace: record 100: unexpected EOF")
}

// TestReaderRejectsCorruptCount: a flipped count field must fail the
// header check, never size an allocation (a count of 2^40 once drove
// Decode into an unrecoverable out-of-memory fatal before the self-heal
// path could remove the file).
func TestReaderRejectsCorruptCount(t *testing.T) {
	prg := asm.MustAssemble("loop", loopSrc)
	raw := encode(t, prg, 100)
	for _, count := range []uint64{1 << 40, 1<<64 - 2} {
		wantDecodeErr(t, "corrupt count", prg, withCount(raw, count),
			"trace: unreasonable record count "+strconv.FormatUint(count, 10)+" in header")
	}
	// A lying-but-plausible count must surface as truncation, not OOM.
	wantDecodeErr(t, "lying count", prg, withCount(raw, 1<<24),
		"trace: truncated: 100 of 16777216 declared records")
}

// TestDecodeLyingCountAllocatesLittle pins that the header count does not
// size an allocation: a 48-byte file, all header, that claims 2^22
// records costs what the file holds to reject, not 2^22 records' worth
// (128 MiB).
func TestDecodeLyingCountAllocatesLittle(t *testing.T) {
	prg := asm.MustAssemble("loop", loopSrc)
	raw := withCount(encode(t, prg, 0)[:headerSize], 1<<22)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(prg, bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if want := "trace: truncated: 0 of 4194304 declared records"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("decoding a %d-byte file allocated %d bytes, want under 1 MiB", len(raw), got)
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

// TestWriteToStopsOnWriteError pins that a failing sink stops the
// encoding: WriteTo returns the sink's error as soon as a buffered write
// reaches it, instead of encoding the rest of the trace.
func TestWriteToStopsOnWriteError(t *testing.T) {
	p := asm.MustAssemble("spin", "main:\n  j main\n")
	d, err := RecordAll(p, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	whole := int64(headerSize) + d.Len()*recordSize
	n, err := d.WriteTo(&failingWriter{limit: 4 << 10})
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if n >= whole/10 {
		t.Errorf("encoded %d of %d bytes after the sink failed", n, whole)
	}
}
