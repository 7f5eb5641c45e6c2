package trace

// Fuzz over the trace file format: Decode is the one parser of trace
// files, which arrive from disk or a pipe, so arbitrary input must never
// panic, and whatever it accepts must mean exactly what its header says
// and survive a WriteTo round trip.

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/asm"
)

// The seed corpus under testdata/fuzz/FuzzDecode holds, for the loop
// program, an 8-record counted trace, its EOF-terminated form, a cut in
// the middle of its sixth record, the trace with one byte of trailing
// data, and a trace of another program. The added seed re-records the
// counted trace, so a valid input stays in the corpus even if the
// program's fingerprint ever changes.
func FuzzDecode(f *testing.F) {
	p := asm.MustAssemble("loop", loopSrc)
	f.Add(encode(f, p, 8))

	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := Decode(p, bytes.NewReader(raw))
		if err != nil {
			return
		}
		if want := headerSize + int(d.Len())*recordSize; len(raw) != want {
			t.Fatalf("accepted %d bytes as %d records (%d bytes)", len(raw), d.Len(), want)
		}
		if count := binary.LittleEndian.Uint64(raw[headerSize-8:]); count != countUnknown && count != uint64(d.Len()) {
			t.Fatalf("header declares %d records, decoded %d", count, d.Len())
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(p, &buf)
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if !slices.Equal(records(t, back), records(t, d)) {
			t.Fatalf("round trip changed the trace: %d events back from %d", back.Len(), d.Len())
		}
	})
}
