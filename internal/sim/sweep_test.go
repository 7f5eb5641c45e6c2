package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// runArtifact runs one entry of the artifact table on an uncached engine.
func runArtifact(t *testing.T, name string, maxInsts int64) (Artifact, *Matrix) {
	t.Helper()
	a, ok := LookupArtifact(name)
	if !ok {
		t.Fatalf("no artifact %q", name)
	}
	var eng Engine
	mx, err := RunArtifacts(context.Background(), &eng, []Artifact{a}, maxInsts, 20)
	if err != nil {
		t.Fatal(err)
	}
	return a, mx
}

func TestConfThresholdSweep(t *testing.T) {
	a, mx := runArtifact(t, "sweep-conf", 5000)
	for _, b := range workload.Names {
		for _, p := range confSweep.points {
			st, ok := mx.LookupSpec(p.spec(b, 5000, 20))
			if !ok || st.Insts == 0 {
				t.Errorf("cell %s/%s missing or degenerate", b, p.name)
			}
		}
	}
	// ARVI is consulted only when the L1 prediction is *not*
	// high-confidence, so raising the threshold (fewer branches reach
	// high confidence) must not shrink ARVI usage.
	loosest, strictest := confSweep.points[0], confSweep.points[len(confSweep.points)-1]
	var loose, strict int64
	for _, b := range workload.Names {
		l, _ := mx.LookupSpec(loosest.spec(b, 5000, 20))
		s, _ := mx.LookupSpec(strictest.spec(b, 5000, 20))
		loose += l.ARVIUsed
		strict += s.ARVIUsed
	}
	if strict < loose {
		t.Errorf("threshold inverted ARVI usage: %s used %d, %s used %d", loosest.name, loose, strictest.name, strict)
	}
	tables := a.Tables(mx, 20)
	if len(tables) != 3 {
		t.Fatalf("sweep-conf renders %d tables, want accuracy, ARVI use and IPC", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != len(workload.Names) || len(tb.Header) != 1+len(DefaultConfThresholds) {
			t.Errorf("table %q shape: %d rows, %d cols", tb.Title, len(tb.Rows), len(tb.Header))
		}
	}
}

func TestCutAtLoadsSweep(t *testing.T) {
	_, mx := runArtifact(t, "sweep-cut", 5000)
	full, ok1 := mx.LookupSpec(Spec{Bench: "m88ksim", Depth: 20, Mode: cpu.PredARVICurrent})
	cut, ok2 := mx.LookupSpec(Spec{Bench: "m88ksim", Depth: 20, Mode: cpu.PredARVICurrent, CutAtLoads: true})
	if !ok1 || !ok2 {
		t.Fatal("sweep cells missing")
	}
	if full.Insts != cut.Insts || full.Insts == 0 {
		t.Errorf("ablation runs diverged: %d vs %d insts", full.Insts, cut.Insts)
	}
}

// TestSweepPartialGridRenders renders a sweep from a grid holding one of
// its cells: every benchmark keeps its row, and the missing cells read
// n/a.
func TestSweepPartialGridRenders(t *testing.T) {
	s := sweep{
		label:   "test",
		points:  []sweepPoint{{"a", func(*Spec) {}}, {"b", func(s *Spec) { s.CutAtLoads = true }}},
		metrics: []sweepMetric{accuracyMetric},
	}
	var mx Matrix
	mx.Add(Result{Spec: s.points[0].spec("gcc", 0, 20), Stats: cpu.Stats{Insts: 100, Cycles: 50, CondBranches: 10}})
	tb := s.tables(&mx, 20)[0]
	if len(tb.Rows) != len(workload.Names) {
		t.Fatalf("rows = %d, want one per benchmark (%d)", len(tb.Rows), len(workload.Names))
	}
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "n/a") {
		t.Errorf("missing cell not marked n/a:\n%s", sb.String())
	}
}

// TestSweepPartialFailureKeepsCompletedCells runs a sweep with a broken
// point through the artifact driver: the completed cells survive, the
// error names the failure, and the failed column renders n/a.
func TestSweepPartialFailureKeepsCompletedCells(t *testing.T) {
	s := sweep{
		label: "inject",
		points: []sweepPoint{
			{"ok", func(*Spec) {}},
			{"broken", func(s *Spec) { s.Depth = 0 }},
		},
		metrics: []sweepMetric{ipcMetric},
	}
	var eng Engine
	arts := []Artifact{{Name: "inject", Specs: s.specs, Tables: s.tables}}
	mx, err := RunArtifacts(context.Background(), &eng, arts, 2000, 20)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("err = %v, want the broken point's joined failures", err)
	}
	if mx.Len() != len(workload.Names) {
		t.Errorf("kept %d cells, want the %d completed ones", mx.Len(), len(workload.Names))
	}
	for _, row := range s.tables(mx, 20)[0].Rows {
		if row[1] == na || row[2] != na {
			t.Errorf("row %v: want the ok cell rendered and the broken one n/a", row)
		}
	}
}

// TestArtifactTable pins each artifact's cell count — the server's
// per-request budget cap multiplies by it — and that the driver runs the
// union of the whole table once: fig5a, fig5b and the conf=8 and
// full-chain sweep points are fig6 cells, so 96 + 8 x (5-1) + 8 x (2-1)
// = 136 cells are simulated, not 184.
func TestArtifactTable(t *testing.T) {
	want := map[string]int{"table2": 0, "table4": 0, "fig5a": 24, "fig5b": 8, "fig6": 96, "sweep-conf": 40, "sweep-cut": 16}
	if names := strings.Join(ArtifactNames(), " "); names != "table2 table4 fig5a fig5b fig6 sweep-conf sweep-cut" {
		t.Errorf("artifacts = %s", names)
	}
	for _, a := range Artifacts {
		if n := len(a.Specs(1000, 20)); n != want[a.Name] {
			t.Errorf("%s: %d cells, want %d", a.Name, n, want[a.Name])
		}
	}
	var eng Engine
	mx, err := RunArtifacts(context.Background(), &eng, Artifacts, 1000, 20)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Simulated(); n != 136 {
		t.Errorf("simulated %d cells, want 136 (96 + 8 x 5)", n)
	}
	if mx.Len() != 136 {
		t.Errorf("matrix holds %d cells, want 136", mx.Len())
	}
}
