package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/smt"
	"repro/internal/workload"
)

// fakeWorker answers /v1/run by echoing the requested spec through
// mutate, /v1/study/smt with one cell per policy under the requested
// config passed through mutateSMT, and /v1/study/vpred with the pair's
// all-instructions and selective cells — a worker whose answers are well
// formed but, unless the mutations are no-ops, for another cell. A
// non-nil cell hook picks which asked-for study cell (by run order) the
// answer's i-th cell is built for.
func fakeWorker(t *testing.T, mutate func(*sim.Spec), mutateSMT func(*smt.Config), cell func(i int) int) *httptest.Server {
	t.Helper()
	if cell == nil {
		cell = func(i int) int { return i }
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		var req RunRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		md, err := sim.ParseMode(req.Mode)
		if err != nil {
			t.Error(err)
		}
		spec := sim.Spec{Bench: req.Bench, Depth: req.Depth, Mode: md, MaxInsts: req.MaxInsts,
			CutAtLoads: req.CutAtLoads, ConfThreshold: uint8(req.ConfThreshold)}
		mutate(&spec)
		_ = json.NewEncoder(w).Encode(sim.Result{Spec: spec, Stats: cpu.Stats{Insts: 1}})
	})
	mux.HandleFunc("POST /v1/study/smt", func(w http.ResponseWriter, r *http.Request) {
		var req SMTRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		resp := sim.SMTGrid{Config: smt.DefaultConfig()}
		resp.Config.MaxCycles = req.MaxCycles
		mutateSMT(&resp.Config)
		for i := range sim.SMTPolicies {
			p := sim.SMTPolicies[cell(i)]
			resp.Cells = append(resp.Cells, sim.SMTRecord{Mix: req.Mixes[0], Policy: p.String(), Cycles: 1})
		}
		_ = json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("POST /v1/study/vpred", func(w http.ResponseWriter, r *http.Request) {
		var req VPredRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		resp := sim.VPredGrid{Params: sim.DefaultVPredParams(req.MaxInsts)}
		resp.Params.DepThreshold = req.DepThreshold
		for i := range 2 {
			resp.Cells = append(resp.Cells, sim.VPredRecord{Bench: req.Benches[0], Predictor: req.Predictors[0],
				Selective: cell(i) == 1, Insts: 1})
		}
		_ = json.NewEncoder(w).Encode(resp)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestAnswersForAnotherCellFallBackToLocal pins the full-identity answer
// check: a worker answer for any cell other than the one asked for —
// another instruction budget, another ablation knob, another study
// configuration — is a failed attempt, so the local engine answers
// instead of the wrong cell being merged. The unmutated fake's answers
// are accepted, so each rejection is the identity check's doing.
func TestAnswersForAnotherCellFallBackToLocal(t *testing.T) {
	spec := sim.Spec{Bench: "gcc", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 2000}
	smtCfg := smt.DefaultConfig()
	smtCfg.MaxCycles = 2000
	mix := workload.MixByName("ijpeg+li")
	vpParams := sim.DefaultVPredParams(2000)
	keep := func(*sim.Spec) {}
	keepSMT := func(*smt.Config) {}
	firstCell := func(int) int { return 0 }

	// runSpec runs the spec through Matrix, so an answer filed under
	// another matrix cell shows as the requested cell going missing.
	runSpec := func(ctx context.Context, c *Coordinator) (int64, error) {
		mx, err := c.Matrix(ctx, []string{spec.Bench}, []int{spec.Depth}, []cpu.PredMode{spec.Mode}, spec.MaxInsts)
		if err != nil {
			return 0, err
		}
		st, ok := mx.LookupSpec(spec)
		if !ok || mx.Len() != 1 {
			t.Errorf("matrix holds %d cells, requested cell present %v", mx.Len(), ok)
		}
		return st.Insts, nil
	}
	runSMT := func(ctx context.Context, c *Coordinator) (int64, error) {
		g, err := c.RunSMTGrid(ctx, []workload.Mix{mix}, smtCfg)
		if err != nil || len(g.Cells) != len(sim.SMTPolicies) {
			t.Fatalf("smt: %d cells, err %v", len(g.Cells), err)
		}
		return g.Cells[0].Cycles, nil
	}
	runVPred := func(ctx context.Context, c *Coordinator) (int64, error) {
		g, err := c.RunVPredGrid(ctx, []string{"li"}, []string{"stride"}, vpParams)
		if err != nil {
			return 0, err
		}
		_, all := g.Lookup("li", "stride", false)
		_, sel := g.Lookup("li", "stride", true)
		if len(g.Cells) != 2 || !all || !sel {
			return 0, fmt.Errorf("vpred: %d cells, all-instructions present %v, selective present %v", len(g.Cells), all, sel)
		}
		return g.Cells[0].Insts, nil
	}
	for _, tc := range []struct {
		name      string
		mutate    func(*sim.Spec)
		mutateSMT func(*smt.Config)
		run       func(context.Context, *Coordinator) (int64, error)
		remote    bool          // whether the fake's answer should be merged
		cell      func(int) int // the fake's study-cell hook (nil: as asked)
	}{
		{"run answered as asked", keep, keepSMT, runSpec, true, nil},
		{"run answered for max_insts+1", func(s *sim.Spec) { s.MaxInsts++ }, keepSMT, runSpec, false, nil},
		{"run answered with cut_at_loads", func(s *sim.Spec) { s.CutAtLoads = true }, keepSMT, runSpec, false, nil},
		{"smt answered as asked", keep, keepSMT, runSMT, true, nil},
		{"smt answered under another window", keep, func(c *smt.Config) { c.Window++ }, runSMT, false, nil},
		{"smt answered with the first policy thrice", keep, keepSMT, runSMT, false, firstCell},
		{"vpred answered as asked", keep, keepSMT, runVPred, true, nil},
		{"vpred answered with two all-instructions cells", keep, keepSMT, runVPred, false, firstCell},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := fakeWorker(t, tc.mutate, tc.mutateSMT, tc.cell)
			c := &Coordinator{Local: &sim.Engine{}, Client: ts.Client(), Backoff: time.Millisecond}
			c.SetWorkers([]string{ts.URL})
			got, err := tc.run(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			// The fake's answers carry the marker value 1.
			if fromFake := got == 1; fromFake != tc.remote {
				t.Errorf("fake worker's answer merged = %v, want %v", fromFake, tc.remote)
			}
			wantRemote, wantLocal := int64(1), int64(0)
			if !tc.remote {
				wantRemote, wantLocal = 0, 1
			}
			if c.RemoteJobs() != wantRemote || c.LocalJobs() != wantLocal {
				t.Errorf("remote %d, local %d; want %d, %d", c.RemoteJobs(), c.LocalJobs(), wantRemote, wantLocal)
			}
		})
	}
}
