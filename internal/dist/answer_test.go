package dist

import (
	"context"
	"encoding/json"
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
// mutate, and /v1/study/smt with one cell per policy under the requested
// config passed through mutateSMT — a worker whose answers are well
// formed but, unless the mutations are no-ops, for another cell.
func fakeWorker(t *testing.T, mutate func(*sim.Spec), mutateSMT func(*smt.Config)) *httptest.Server {
	t.Helper()
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
		for _, p := range sim.SMTPolicies {
			resp.Cells = append(resp.Cells, sim.SMTRecord{Mix: req.Mixes[0], Policy: p.String(), Cycles: 1})
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
	keep := func(*sim.Spec) {}
	keepSMT := func(*smt.Config) {}

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
		g, err := c.SMTGrid(ctx, []workload.Mix{mix}, smtCfg)
		if err != nil || len(g.Cells) != len(sim.SMTPolicies) {
			t.Fatalf("smt: %d cells, err %v", len(g.Cells), err)
		}
		return g.Cells[0].Cycles, nil
	}
	for _, tc := range []struct {
		name      string
		mutate    func(*sim.Spec)
		mutateSMT func(*smt.Config)
		run       func(context.Context, *Coordinator) (int64, error)
		remote    bool // whether the fake's answer should be merged
	}{
		{"run answered as asked", keep, keepSMT, runSpec, true},
		{"run answered for max_insts+1", func(s *sim.Spec) { s.MaxInsts++ }, keepSMT, runSpec, false},
		{"run answered with cut_at_loads", func(s *sim.Spec) { s.CutAtLoads = true }, keepSMT, runSpec, false},
		{"smt answered as asked", keep, keepSMT, runSMT, true},
		{"smt answered under another window", keep, func(c *smt.Config) { c.Window++ }, runSMT, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := fakeWorker(t, tc.mutate, tc.mutateSMT)
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
