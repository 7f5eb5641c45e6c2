package dist

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestStreamRoundTrip encodes a small stream and decodes it back.
func TestStreamRoundTrip(t *testing.T) {
	spec := sim.Spec{Bench: "li", Depth: 20, MaxInsts: 5000}
	var b strings.Builder
	b.Write(EncodeStreamLine(StreamLine{Result: &sim.Result{Spec: spec}}))
	b.WriteString("\n") // blank lines are tolerated between objects
	b.Write(EncodeStreamLine(StreamLine{Done: &StreamTrailer{MaxInsts: 5000, Cells: 1}}))

	results, trailer, err := DecodeMatrixStream(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Spec != spec {
		t.Errorf("results = %+v", results)
	}
	if trailer.Cells != 1 || trailer.MaxInsts != 5000 || trailer.Error != "" {
		t.Errorf("trailer = %+v", trailer)
	}
}

// TestStreamDecodeRejects pins the decoder's strictness: every malformed
// shape fails with an error rather than passing as a short result set.
func TestStreamDecodeRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "no trailer"},
		{"truncated", `{"result":{}}` + "\n", "no trailer"},
		{"junk line", "not json\n", "bad line"},
		{"unknown field", `{"shrug":1}` + "\n", "bad line"},
		{"neither field", `{}` + "\n", "exactly one"},
		{"both fields", `{"result":{},"done":{"max_insts":1,"cells":0}}` + "\n", "exactly one"},
		{"data after trailer", `{"done":{"max_insts":1,"cells":0}}` + "\n" + `{"result":{}}` + "\n", "data after trailer"},
		{"two objects one line", `{"result":{}} {"result":{}}` + "\n", "trailing data"},
		// A stray closing delimiter is trailing data too (json.Decoder's
		// More reports false in front of one).
		{"stray brace after trailer", `{"done":{"max_insts":1,"cells":0}}}` + "\n", "trailing data"},
		{"stray brace and bracket after trailer", `{"done":{"max_insts":1,"cells":0}}}]` + "\n", "trailing data"},
		{"stray brace after cell", `{"result":{"Spec":{"Bench":"li"}}}}` + "\n" + `{"done":{"max_insts":1,"cells":1}}` + "\n", "trailing data"},
		{"oversized line", `{"result":{"Spec":{"Bench":"` + strings.Repeat("a", MaxStreamLine) + `"}}}` + "\n", "stream read"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeMatrixStream(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestStreamDecodeKeepsCellsBeforeCorruption pins the partial-result
// contract: cells decoded before the corruption survive, so a client can
// degrade (e.g. recompute only the tail) instead of starting over.
func TestStreamDecodeKeepsCellsBeforeCorruption(t *testing.T) {
	in := `{"result":{"Spec":{"Bench":"li"}}}` + "\ngarbage\n"
	results, trailer, err := DecodeMatrixStream(strings.NewReader(in))
	if err == nil || trailer != nil {
		t.Fatalf("corrupt stream decoded cleanly: trailer=%+v err=%v", trailer, err)
	}
	if len(results) != 1 || results[0].Spec.Bench != "li" {
		t.Errorf("surviving cells = %+v, want the one pre-corruption cell", results)
	}
}
