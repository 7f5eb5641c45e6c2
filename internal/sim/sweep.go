package sim

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// DefaultConfThresholds is the JRS confidence-threshold grid of the
// sweep-conf artifact. The paper's operating point is 8; the grid
// brackets it on both sides. Zero is not sweepable (Spec treats it as
// "keep default").
var DefaultConfThresholds = []uint8{1, 4, 8, 12, 15}

// sweep is an ablation: a label naming the swept parameter, its points,
// and the metrics it renders one table each for. Every point mutates the
// ARVI current-value cell at the artifact's depth. The knobs a point sets
// are part of a matrix cell's identity (specKey), so a sweep's cells are
// ordinary matrix cells: the artifact driver runs them with the figures'
// cells, and its tables read them back with Matrix.LookupSpec.
type sweep struct {
	label   string
	points  []sweepPoint
	metrics []sweepMetric
}

// sweepPoint is one column of a sweep: a short name and the spec mutation
// that realises the point.
type sweepPoint struct {
	name   string
	mutate func(*Spec)
}

// sweepMetric is one table of a sweep: the metric's name and how a cell
// renders it.
type sweepMetric struct {
	name string
	cell func(cpu.Stats) string
}

var (
	accuracyMetric = sweepMetric{"prediction accuracy", func(st cpu.Stats) string { return pct(st.PredAccuracy()) }}
	ipcMetric      = sweepMetric{"IPC", func(st cpu.Stats) string { return f3(st.IPC()) }}
	// arviUseMetric is the fraction of conditional branches where the
	// ARVI prediction steered fetch — the quantity the confidence
	// threshold and the chain ablation directly move.
	arviUseMetric = sweepMetric{"ARVI steer fraction", func(st cpu.Stats) string {
		if st.CondBranches == 0 {
			return na
		}
		return pct(float64(st.ARVIUsed) / float64(st.CondBranches))
	}}
)

// confSweep sweeps the JRS confidence threshold gating ARVI use (Section
// 4.3 machinery).
var confSweep = sweep{
	label:   "JRS confidence threshold",
	points:  confPoints(DefaultConfThresholds),
	metrics: []sweepMetric{accuracyMetric, arviUseMetric, ipcMetric},
}

// cutSweep compares the paper's full dependence-chain semantics against
// the cut-at-loads DDT ablation (DESIGN.md ablation A1).
var cutSweep = sweep{
	label: "DDT chain semantics",
	points: []sweepPoint{
		{"full-chain", func(s *Spec) { s.CutAtLoads = false }},
		{"cut-at-loads", func(s *Spec) { s.CutAtLoads = true }},
	},
	metrics: []sweepMetric{accuracyMetric, ipcMetric},
}

func confPoints(thresholds []uint8) []sweepPoint {
	points := make([]sweepPoint, len(thresholds))
	for i, th := range thresholds {
		points[i] = sweepPoint{fmt.Sprintf("conf=%d", th), func(s *Spec) { s.ConfThreshold = th }}
	}
	return points
}

// spec is the point's cell for one benchmark.
func (p sweepPoint) spec(bench string, maxInsts int64, depth int) Spec {
	s := Spec{Bench: bench, Depth: depth, Mode: cpu.PredARVICurrent, MaxInsts: maxInsts}
	p.mutate(&s)
	return s
}

// specs enumerates the sweep's cells, point-major.
func (s sweep) specs(maxInsts int64, depth int) []Spec {
	specs := make([]Spec, 0, len(s.points)*len(workload.Names))
	for _, p := range s.points {
		for _, b := range workload.Names {
			specs = append(specs, p.spec(b, maxInsts, depth))
		}
	}
	return specs
}

// tables renders one table per metric: a row per benchmark in suite
// order and a column per point, with n/a for a missing cell — the rule
// the figure tables follow.
//
//arvi:det
func (s sweep) tables(m *Matrix, depth int) []Table {
	out := make([]Table, len(s.metrics))
	for i, mt := range s.metrics {
		t := Table{
			Title:  fmt.Sprintf("Ablation: %s — %s, %d-cycle pipeline (%s)", s.label, mt.name, depth, cpu.PredARVICurrent),
			Header: []string{"benchmark"},
		}
		for _, p := range s.points {
			t.Header = append(t.Header, p.name)
		}
		for _, b := range workload.Names {
			row := []string{b}
			for _, p := range s.points {
				if st, ok := m.LookupSpec(p.spec(b, m.MaxInsts, depth)); ok {
					row = append(row, mt.cell(st))
				} else {
					row = append(row, na)
				}
			}
			t.AddRow(row...)
		}
		out[i] = t
	}
	return out
}
