package trace

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestRecordAllMatchesStreamedRecord pins RecordAll's in-memory trace to
// the event stream a VM run hands its callback: every field a trace keeps.
func TestRecordAllMatchesStreamedRecord(t *testing.T) {
	p := asm.MustAssemble("loop", loopSrc)
	dec, err := RecordAll(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stream []vm.Rec
	if _, err := vm.New(p).Run(0, func(ev *vm.Event) error {
		stream = append(stream, ev.Rec())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := records(t, dec); !slices.Equal(got, stream) {
		t.Fatalf("RecordAll's %d events differ from the VM's %d streamed events", len(got), len(stream))
	}
}

func TestDecodedWriteToRoundTrip(t *testing.T) {
	p := asm.MustAssemble("loop", loopSrc)
	dec, err := RecordAll(p, 300)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := dec.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(headerSize) + dec.Len()*recordSize; n != want || int64(buf.Len()) != want {
		t.Errorf("WriteTo wrote %d bytes (reported %d), want %d", buf.Len(), n, want)
	}

	// The serialised form carries the exact count even though bytes.Buffer
	// is not seekable.
	if count := binary.LittleEndian.Uint64(buf.Bytes()[headerSize-8:]); count != uint64(dec.Len()) {
		t.Errorf("header count %d, want %d", count, dec.Len())
	}

	back, err := Decode(p, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(records(t, back), records(t, dec)) {
		t.Fatalf("round trip changed the trace: %d events back from %d", back.Len(), dec.Len())
	}
}

// TestDecodeRejectsWrongProgram checks the fingerprint ahead of the
// count: an EOF-terminated trace of another program is refused as well.
func TestDecodeRejectsWrongProgram(t *testing.T) {
	a := asm.MustAssemble("a", "main:\n  li r1, 1\n  halt\n")
	b := asm.MustAssemble("b", "main:\n  li r1, 2\n  halt\n")
	wantDecodeErr(t, "EOF-terminated", b, withCount(encode(t, a, 0), countUnknown),
		`trace: program mismatch: trace was not recorded from "b"`)
}

// TestConcurrentCursorReplay drives many timing engines off one shared
// Decoded simultaneously — the sharing model the sim trace store relies
// on. Run under -race, this is the proof that replay is data-race free.
func TestConcurrentCursorReplay(t *testing.T) {
	b := workload.ByName("compress")
	const budget = 8_000
	dec, err := RecordAll(b.Prog, budget)
	if err != nil {
		t.Fatal(err)
	}

	cfg := cpu.DefaultConfig(20, cpu.PredARVICurrent)
	cfg.MaxInsts = budget
	want, err := cpu.Run(b.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const replayers = 8
	var wg sync.WaitGroup
	got := make([]cpu.Stats, replayers)
	errs := make([]error, replayers)
	for i := 0; i < replayers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, err := cpu.NewEngine(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = eng.RunSource(b.Prog, dec.Cursor())
		}(i)
	}
	wg.Wait()
	for i := 0; i < replayers; i++ {
		if errs[i] != nil {
			t.Fatalf("replayer %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("replayer %d diverged from live stats", i)
		}
	}
}

func TestDecodedMemBytes(t *testing.T) {
	p := asm.MustAssemble("loop", loopSrc)
	dec, err := RecordAll(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if dec.MemBytes() != dec.Len()*recBytes {
		t.Errorf("MemBytes = %d, want %d", dec.MemBytes(), dec.Len()*recBytes)
	}
	if dec.Prog() != p {
		t.Error("Prog identity lost")
	}
}

// TestHalted pins Halted to the trace's last record: a run to the halt
// ends with it, a budget that stops short does not, and neither does an
// empty trace.
func TestHalted(t *testing.T) {
	p := asm.MustAssemble("loop", loopSrc)
	for _, tc := range []struct {
		max  int64
		want bool
	}{{0, true}, {100, false}} {
		d, err := RecordAll(p, tc.max)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Halted(); got != tc.want {
			t.Errorf("RecordAll(-n %d).Halted() = %v, want %v", tc.max, got, tc.want)
		}
	}
	if (&Decoded{prog: p}).Halted() {
		t.Error("an empty trace reports a halt")
	}
}
