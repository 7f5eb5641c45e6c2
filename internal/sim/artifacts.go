package sim

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// Artifact is one text artifact of the paper's Section 5 evaluation: the
// branch-prediction cells it reads and the tables it renders from them.
// Artifacts declares every one, and both front ends — cmd/experiments
// and the service's GET /v1/artifacts/{name} — run and render through
// this one table, so they print the same bytes by construction.
type Artifact struct {
	Name string
	// Grid marks a figure of the paper grid: its -csv/-json export is the
	// whole grid (MatrixSpecs over the suite, Depths and Modes), as the
	// /v1/matrix body is.
	Grid bool
	// Specs lists the cells the artifact reads at an instruction budget
	// and a pipeline depth (the depth of fig5b and the sweeps).
	Specs func(maxInsts int64, depth int) []Spec
	// Tables renders the artifact from a possibly partial matrix; a
	// missing cell renders as n/a.
	Tables func(m *Matrix, depth int) []Table
}

// Artifacts lists every text artifact, in render order.
var Artifacts = []Artifact{
	{Name: "table2", Specs: noSpecs, Tables: func(*Matrix, int) []Table { return []Table{Table2()} }},
	{Name: "table4", Specs: noSpecs, Tables: func(*Matrix, int) []Table { return []Table{Table4()} }},
	{
		Name: "fig5a", Grid: true,
		Specs: func(n int64, _ int) []Spec {
			return MatrixSpecs(workload.Names, Depths, []cpu.PredMode{cpu.PredARVICurrent}, n)
		},
		Tables: func(m *Matrix, _ int) []Table { return []Table{Fig5a(m)} },
	},
	{
		Name: "fig5b", Grid: true,
		Specs: func(n int64, depth int) []Spec {
			return MatrixSpecs(workload.Names, []int{depth}, []cpu.PredMode{cpu.PredARVICurrent}, n)
		},
		Tables: func(m *Matrix, depth int) []Table { return []Table{Fig5b(m, depth)} },
	},
	{
		Name: "fig6", Grid: true,
		Specs:  func(n int64, _ int) []Spec { return MatrixSpecs(workload.Names, Depths, Modes, n) },
		Tables: fig6Tables,
	},
	{Name: "sweep-conf", Specs: confSweep.specs, Tables: confSweep.tables},
	{Name: "sweep-cut", Specs: cutSweep.specs, Tables: cutSweep.tables},
}

func noSpecs(int64, int) []Spec { return nil }

// LookupArtifact returns the artifact with the given name.
func LookupArtifact(name string) (Artifact, bool) {
	for _, a := range Artifacts {
		if a.Name == name {
			return a, true
		}
	}
	return Artifact{}, false
}

// ArtifactNames lists the artifacts' names in render order.
func ArtifactNames() []string {
	names := make([]string, len(Artifacts))
	for i, a := range Artifacts {
		names[i] = a.Name
	}
	return names
}

// ArtifactSpecs returns the union of the artifacts' cells at the budget
// and depth and of the extra cells, each cell once: specs are
// deduplicated on matrix identity (specKey), keeping the first. A sweep
// point that is also a figure cell (conf=8, full-chain) is therefore
// simulated once, as that figure cell.
func ArtifactSpecs(arts []Artifact, maxInsts int64, depth int, extra ...Spec) []Spec {
	var specs []Spec
	for _, a := range arts {
		specs = append(specs, a.Specs(maxInsts, depth)...)
	}
	specs = append(specs, extra...)
	seen := make(map[matrixKey]bool, len(specs))
	out := specs[:0]
	for _, s := range specs {
		if k := specKey(s); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// RunArtifacts is the artifacts' one driver: it runs ArtifactSpecs(arts,
// maxInsts, depth, extra...) on r and gathers the cells into one Matrix
// for RenderArtifacts. It keeps Run's partial-result contract: the matrix
// holds every completed cell and the error joins the failures.
func RunArtifacts(ctx context.Context, r Runner, arts []Artifact, maxInsts int64, depth int, extra ...Spec) (*Matrix, error) {
	return runMatrix(ctx, r, ArtifactSpecs(arts, maxInsts, depth, extra...), maxInsts)
}

// RenderArtifacts writes the artifacts' tables, in order.
//
//arvi:det
func RenderArtifacts(w io.Writer, arts []Artifact, m *Matrix, depth int) error {
	for _, a := range arts {
		for _, t := range a.Tables(m, depth) {
			if err := t.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// fig6Tables renders Figure 6's two panels for every depth, then the
// headline: each ARVI mode's average IPC improvement per depth.
//
//arvi:det
func fig6Tables(m *Matrix, _ int) []Table {
	head := Table{
		Title:  "Headline: average IPC improvement over the two-level 2Bc-gskew baseline",
		Note:   "paper: +12.6% at 20 stages, +15.6% at 60 stages (ARVI current value)",
		Header: []string{"depth", "arvi-current", "arvi-loadback", "arvi-perfect"},
	}
	var out []Table
	for _, d := range Depths {
		ipc, sum := Fig6IPC(m, d)
		out = append(out, Fig6Accuracy(m, d), ipc)
		row := []string{fmt.Sprintf("%d", d)}
		for _, md := range Modes[1:] {
			if v, ok := sum.AvgImprovement[md]; ok {
				row = append(row, fmt.Sprintf("%+.1f%%", 100*v))
			} else {
				row = append(row, na) // every cell of this mode is missing at this depth
			}
		}
		head.AddRow(row...)
	}
	return append(out, head)
}
