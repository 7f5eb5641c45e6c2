package sim

import (
	"context"
	"fmt"
	"io"

	"repro/internal/vpred"
	"repro/internal/workload"
)

// VPredPredictors lists the evaluated value-predictor families in
// presentation order.
var VPredPredictors = []string{"last-value", "stride"}

// VPredParams bundles the knobs shared by every cell of a selective
// value-prediction ablation.
type VPredParams struct {
	// Entries sizes the predictor table (power of two).
	Entries int `json:"entries"`
	// ConfMin is the predictor's confidence threshold.
	ConfMin uint8 `json:"conf_min"`
	// MaxInsts bounds the functional run (<= 0: run to halt).
	MaxInsts int64 `json:"max_insts"`
	// Window is the idealised in-flight window the DDT tracks.
	Window int `json:"window"`
	// DepThreshold is the criticality cut for the *selective* cells: an
	// instruction is a candidate only when at least this many dependents
	// accumulated on its DDT entry. The all-instructions cells use 0.
	DepThreshold int `json:"dep_threshold"`
}

// DefaultVPredParams mirrors the Section 3 sketch: a 4K-entry predictor,
// a 64-entry window, and prediction restricted to instructions with a
// non-trivial dependence tail.
func DefaultVPredParams(maxInsts int64) VPredParams {
	return VPredParams{Entries: 4096, ConfMin: 2, MaxInsts: maxInsts, Window: 64, DepThreshold: 4}
}

// VPredStudy is one cell of the Section 3 selective value-prediction
// ablation: one benchmark, one predictor family, predicting either every
// value-producing instruction (Selective false) or only the DDT-critical
// ones (Selective true, threshold Params.DepThreshold).
type VPredStudy struct {
	Bench     string
	Predictor string
	Selective bool
	Params    VPredParams

	// bench holds the pre-resolved benchmark (see VPredStudies). Nil
	// means resolve on use, so hand-constructed studies stay valid.
	bench *workload.Benchmark
}

// resolve returns the study's benchmark, preferring the pre-resolved one.
func (s VPredStudy) resolve() (workload.Benchmark, bool) {
	if s.bench != nil {
		return *s.bench, true
	}
	return workload.Lookup(s.Bench)
}

// Kind implements Study.
func (s VPredStudy) Kind() string { return "vpred" }

// String implements Study.
func (s VPredStudy) String() string {
	sel := "all"
	if s.Selective {
		sel = fmt.Sprintf("dep>=%d", s.Params.DepThreshold)
	}
	return fmt.Sprintf("%s/%s/%s", s.Bench, s.Predictor, sel)
}

// depThreshold resolves the cell's effective criticality cut.
func (s VPredStudy) depThreshold() int {
	if !s.Selective {
		return 0
	}
	return s.Params.DepThreshold
}

// Identity implements Study. It covers the benchmark's program content
// fingerprint, so a workload-generator change invalidates stale entries
// instead of serving them.
func (s VPredStudy) Identity() any {
	type id struct {
		Bench        string `json:"bench"`
		Program      string `json:"program,omitempty"`
		Predictor    string `json:"predictor"`
		Entries      int    `json:"entries"`
		ConfMin      uint8  `json:"conf_min"`
		MaxInsts     int64  `json:"max_insts"`
		Window       int    `json:"window"`
		DepThreshold int    `json:"dep_threshold"`
	}
	fp := ""
	if b, ok := s.resolve(); ok {
		fp = b.Prog.FingerprintHex()
	}
	return id{
		Bench: s.Bench, Program: fp, Predictor: s.Predictor,
		Entries: s.Params.Entries, ConfMin: s.Params.ConfMin,
		MaxInsts: s.Params.MaxInsts, Window: s.Params.Window,
		DepThreshold: s.depThreshold(),
	}
}

// newPredictor builds the cell's predictor.
func (s VPredStudy) newPredictor() (vpred.Predictor, error) {
	switch s.Predictor {
	case "last-value":
		return vpred.NewLastValue(s.Params.Entries, s.Params.ConfMin)
	case "stride":
		return vpred.NewStride(s.Params.Entries, s.Params.ConfMin)
	}
	return nil, fmt.Errorf("sim: unknown value predictor %q", s.Predictor)
}

// Simulate implements Study.
func (s VPredStudy) Simulate() (any, error) {
	b, ok := s.resolve()
	if !ok {
		return nil, fmt.Errorf("sim: unknown benchmark %q", s.Bench)
	}
	pred, err := s.newPredictor()
	if err != nil {
		return nil, err
	}
	res, err := vpred.EvaluateSelective(b.Prog, pred, s.Params.MaxInsts, s.Params.Window, s.depThreshold())
	if err != nil {
		return nil, err
	}
	return res, nil
}

// VPredGrid is a (benchmark × predictor × selection) ablation grid and
// its JSON body: the parameters and the completed cells in run order
// (bench-major, then predictor, all before selective). Like Matrix it
// may be partial; the tables go through Lookup.
type VPredGrid struct {
	Params VPredParams   `json:"params"`
	Cells  []VPredRecord `json:"cells"`
	// Error is the joined error of a partial result, in the service's
	// body only.
	Error string `json:"error,omitempty"`

	// Benches and Predictors are the requested axes the tables render.
	Benches    []string `json:"-"`
	Predictors []string `json:"-"`
}

// VPredRecord is one exported grid cell: its coordinates, every
// vpred.Result field and the derived metrics.
type VPredRecord struct {
	Bench       string  `json:"bench"`
	Predictor   string  `json:"predictor"`
	Selective   bool    `json:"selective"`
	Insts       int64   `json:"insts"`
	Candidates  int64   `json:"candidates"`
	Predictions int64   `json:"predictions"`
	Correct     int64   `json:"correct"`
	Coverage    float64 `json:"coverage"`
	Accuracy    float64 `json:"accuracy"`
}

// Lookup returns one cell's stats and whether it is populated. It scans
// the cells: grids are small, and only tables and tests look cells up.
func (g *VPredGrid) Lookup(bench, predictor string, selective bool) (vpred.Result, bool) {
	for _, c := range g.Cells {
		if c.Bench == bench && c.Predictor == predictor && c.Selective == selective {
			return vpred.Result{Insts: c.Insts, Candidates: c.Candidates, Predictions: c.Predictions, Correct: c.Correct}, true
		}
	}
	return vpred.Result{}, false
}

// Len reports the number of populated cells.
func (g *VPredGrid) Len() int { return len(g.Cells) }

// VPredStudies enumerates the (benchmark × predictor × selection) cells
// in the canonical bench-major order RunVPredGrid runs them and the
// service keys its flights by. Each benchmark is resolved once and
// shared by its cells; an unknown name stays unresolved, so each of its
// cells' Simulate surfaces it through the usual partial-result contract.
func VPredStudies(benches, predictors []string, params VPredParams) []VPredStudy {
	studies := make([]VPredStudy, 0, len(benches)*len(predictors)*2)
	for _, b := range benches {
		var resolved *workload.Benchmark
		if wb, ok := workload.Lookup(b); ok {
			resolved = &wb
		}
		for _, p := range predictors {
			for _, sel := range []bool{false, true} {
				studies = append(studies, VPredStudy{Bench: b, Predictor: p, Selective: sel, Params: params, bench: resolved})
			}
		}
	}
	return studies
}

// RunVPredGrid evaluates the all-vs-selective ablation for every
// (benchmark × predictor) through the engine's worker pool and cache,
// with the usual partial-result contract.
func (e *Engine) RunVPredGrid(ctx context.Context, benches []string, predictors []string, params VPredParams) (*VPredGrid, error) {
	res, err := RunStudies[VPredStudy, vpred.Result](ctx, e, VPredStudies(benches, predictors, params))
	g := &VPredGrid{Params: params, Cells: make([]VPredRecord, 0, len(res)), Benches: benches, Predictors: predictors}
	for _, r := range res {
		s, st := r.Study, r.Stats
		g.Cells = append(g.Cells, VPredRecord{
			Bench: s.Bench, Predictor: s.Predictor, Selective: s.Selective,
			Insts: st.Insts, Candidates: st.Candidates, Predictions: st.Predictions, Correct: st.Correct,
			Coverage: st.Coverage(), Accuracy: st.Accuracy(),
		})
	}
	return g, err
}

// vpredTable renders one metric across the grid's predictor × selection
// columns, marking unpopulated cells n/a.
//
//arvi:det
func vpredTable(g *VPredGrid, metric string, cell func(vpred.Result) string) Table {
	t := Table{
		Title: fmt.Sprintf("Selective value prediction: %s (DDT dependents >= %d vs all instructions)",
			metric, g.Params.DepThreshold),
		Note:   "Section 3: the DDT dependent counter supplies Calder's criticality filter",
		Header: []string{"benchmark"},
	}
	for _, p := range g.Predictors {
		t.Header = append(t.Header, p+"/all", p+"/sel")
	}
	for _, b := range g.Benches {
		row := []string{b}
		for _, p := range g.Predictors {
			for _, sel := range []bool{false, true} {
				if st, ok := g.Lookup(b, p, sel); ok {
					row = append(row, cell(st))
				} else {
					row = append(row, na)
				}
			}
		}
		t.AddRow(row...)
	}
	return t
}

// VPredAccuracyTable renders prediction accuracy per cell — selection
// should raise it.
func VPredAccuracyTable(g *VPredGrid) Table {
	return vpredTable(g, "accuracy", func(r vpred.Result) string { return pct(r.Accuracy()) })
}

// VPredCoverageTable renders coverage (predictions per value-producing
// instruction) per cell — selection deliberately lowers it.
func VPredCoverageTable(g *VPredGrid) Table {
	return vpredTable(g, "coverage", func(r vpred.Result) string { return pct(r.Coverage()) })
}

// WriteCSV exports the populated grid as tidy CSV for external plotting.
func (g *VPredGrid) WriteCSV(w io.Writer) error { return writeCSV(w, g.Cells) }

// WriteJSON exports the grid's body as indented JSON.
func (g *VPredGrid) WriteJSON(w io.Writer) error { return writeJSON(w, g) }
