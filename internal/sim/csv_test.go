package sim

import (
	"encoding/csv"
	"io"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestWriteCSV(t *testing.T) {
	mx := smallMatrix(t, workload.Names, []int{20}, Modes)
	var sb strings.Builder
	if err := mx.WriteCSV(&sb, []int{20}); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + len(workload.Names)*len(Modes)
	if len(recs) != want {
		t.Fatalf("rows = %d, want %d", len(recs), want)
	}
	if recs[0][0] != "bench" || len(recs[0]) != 11 {
		t.Errorf("header = %v", recs[0])
	}
	// Baseline rows must have norm_ipc exactly 1.0000.
	for _, r := range recs[1:] {
		if r[2] == "2lvl-2bc-gskew" && r[4] != "1.0000" {
			t.Errorf("baseline norm = %s", r[4])
		}
	}
}

// TestWriteCSVRule pins the one CSV rule all three grids' records follow:
// scalar fields in declaration order headed by their JSON names, floats
// at 4 decimals, a nil *float64 as an empty field, and slice and struct
// fields left to the JSON.
func TestWriteCSVRule(t *testing.T) {
	norm := 1.0
	for _, tc := range []struct {
		name  string
		write func(io.Writer) error
		want  string
	}{
		{"matrix", func(w io.Writer) error {
			return writeCSV(w, []Record{{Bench: "li", Depth: 20, Mode: "m", IPC: 0.123456, NormIPC: &norm, Mispredicts: 3}, {Bench: "gcc"}})
		}, "bench,depth,mode,ipc,norm_ipc,accuracy,calc_acc,load_acc,load_frac,mispredicts,cond_branches\n" +
			"li,20,m,0.1235,1.0000,0.0000,0.0000,0.0000,0.0000,3,0\n" +
			"gcc,0,,0.0000,,0.0000,0.0000,0.0000,0.0000,0,0\n"},
		{"smt", func(w io.Writer) error {
			g := &SMTGrid{Cells: []SMTRecord{{Mix: "quad", Benches: []string{"li"}, Policy: "icount", IPC: 2,
				Cycles: 5, TotalInsts: 10, PerThread: []int64{10}, PeakWindow: 4}}}
			return g.WriteCSV(w)
		}, "mix,policy,ipc,cycles,total_insts,peak_window\nquad,icount,2.0000,5,10,4\n"},
		{"vpred", func(w io.Writer) error {
			g := &VPredGrid{Cells: []VPredRecord{{Bench: "li", Predictor: "stride", Selective: true,
				Insts: 9, Candidates: 8, Predictions: 7, Correct: 6, Coverage: 0.5, Accuracy: 0.25}}}
			return g.WriteCSV(w)
		}, "bench,predictor,selective,insts,candidates,predictions,correct,coverage,accuracy\n" +
			"li,stride,true,9,8,7,6,0.5000,0.2500\n"},
	} {
		var sb strings.Builder
		if err := tc.write(&sb); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sb.String() != tc.want {
			t.Errorf("%s CSV:\n got %q\nwant %q", tc.name, sb.String(), tc.want)
		}
	}
}
