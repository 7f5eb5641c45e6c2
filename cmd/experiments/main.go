// Command experiments regenerates every artifact of the paper's
// evaluation: the Section 5 branch-prediction study (Tables 2 and 4,
// Figures 5 and 6, ablation sweeps, headline summary) and the Section 3
// applications — the SMT fetch-policy comparison over multi-program mixes
// and the selective value-prediction ablation — writing aligned text
// tables to stdout (or -out).
//
// The text artifacts (table2 … sweep-cut) are internal/sim's artifact
// table, which the service's GET /v1/artifacts/{name} renders too, so
// both print the same bytes for the same -n and -sweep-depth.
//
// Runs are resumable: results are cached on disk keyed by a content hash
// of each cell's full identity, so a second invocation — after a crash, or
// with a larger grid — only simulates missing cells, and a warm re-run
// renders byte-identical output without simulating at all.
//
// Usage:
//
//	experiments                 # everything, default budget, cache in .simcache
//	experiments -n 500000       # bigger per-run instruction budget
//	experiments -only fig6      # one artifact: table2 table4 fig5a fig5b fig6
//	                            #   sweep-conf sweep-cut smt vpred
//	experiments -only smt       # Section 3 SMT fetch-policy study
//	experiments -only vpred     # Section 3 selective value prediction
//	experiments -sweep-depth 40 # fig5b and the ablation sweeps at 40 stages
//	experiments -cache ""       # disable the result cache
//	experiments -json out.json  # raw export of the selected study (also -csv)
//
// Each benchmark's correct-path stream is recorded once into an in-memory
// trace store and replayed by every (depth × predictor) configuration, so
// a cold full sweep executes the functional VM eight times instead of
// once per cell. A warm run simulates nothing and so records nothing; a
// resumed run records the traces of the cells it still has to simulate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/smt"
	"repro/internal/workload"
)

// flushProfiles is profiling.Setup's flush once configured; fail routes
// through it so error exits still produce usable profiles (the flush is
// idempotent, so the deferred call after a fail-free run is harmless).
var flushProfiles = func() {}

func fail(err error) {
	flushProfiles()
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func main() {
	n := flag.Int64("n", sim.DefaultMaxInsts, "dynamic instruction budget per run (>= 1)")
	only := flag.String("only", "", "render one artifact: table2 table4 fig5a fig5b fig6 sweep-conf sweep-cut smt vpred")
	outPath := flag.String("out", "", "write to this file instead of stdout")
	csvPath := flag.String("csv", "", "additionally export the selected study's raw grid as CSV")
	jsonPath := flag.String("json", "", "additionally export the selected study's raw grid (full stats) as JSON")
	cacheDir := flag.String("cache", ".simcache", "result cache directory (empty = no cache)")
	traceMem := flag.Int64("trace-mem", 0, "resident decoded-trace budget in MiB (0 = default)")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	sweepDepth := flag.Int("sweep-depth", 20, "pipeline depth for fig5b and the ablation sweeps (>= 1)")
	smtCycles := flag.Int64("smt-cycles", smt.DefaultConfig().MaxCycles, "cycle budget per SMT fetch-policy run (>= 1)")
	depThreshold := flag.Int("dep-threshold", sim.DefaultVPredParams(0).DepThreshold,
		"DDT dependent-count cut for the selective value-prediction cells (>= 1)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	// The text artifacts are sim.Artifacts, which the service renders
	// too; the Section 3 studies follow them.
	arts := sim.Artifacts
	if *only != "" {
		arts = nil
		if a, ok := sim.LookupArtifact(*only); ok {
			arts = []sim.Artifact{a}
		} else if *only != "smt" && *only != "vpred" {
			fmt.Fprintf(os.Stderr, "experiments: unknown artifact %q (valid: %v)\n", *only, append(sim.ArtifactNames(), "smt", "vpred"))
			os.Exit(2)
		}
	}
	// The validation rules (and their message text) are shared with
	// cmd/arvisim and the HTTP service; see internal/sim/validate.go.
	for _, err := range []error{
		sim.ValidateBudget(*n),
		sim.ValidateDepth(*sweepDepth),
		sim.ValidateTraceMem(*traceMem),
		sim.ValidateNonNegative("-workers", *workers),
		sim.ValidateSMTCycles(*smtCycles),
		// Threshold 0 would make the "selective" cells identical to the
		// all-instructions cells, silently collapsing the ablation.
		sim.ValidateDepThreshold(*depThreshold),
	} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
	}

	// Profiling starts only after argument validation (a usage error must
	// not leave a truncated profile behind); fail() flushes the profiles
	// too, because os.Exit skips the defer.
	flush, err := profiling.Setup(*cpuProfile, *memProfile, "experiments")
	if err != nil {
		fail(err)
	}
	flushProfiles = flush
	defer flush()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		out = f
	}

	// -csv/-json export the grid of the selected study: the SMT or vpred
	// grid under -only smt/vpred, and the paper's whole branch-prediction
	// grid (the /v1/matrix body) when a figure is selected, which then
	// simulates that grid too.
	export := *csvPath != "" || *jsonPath != ""
	var grid []sim.Spec
	for _, a := range arts {
		if a.Grid && export {
			grid = sim.MatrixSpecs(workload.Names, sim.Depths, sim.Modes, *n)
		}
	}
	// want reports whether a Section 3 study is part of this invocation.
	want := func(name string) bool { return *only == "" || *only == name }

	var mx *sim.Matrix
	var smtGrid *sim.SMTGrid
	var vpredGrid *sim.VPredGrid
	// Tables 2 and 4 alone simulate nothing: no engine, no stores.
	if cells := len(sim.ArtifactSpecs(arts, *n, *sweepDepth, grid...)); cells > 0 || want("smt") || want("vpred") {
		ts := sim.NewTraceStore(*traceMem << 20)
		eng := &sim.Engine{Workers: *workers, Traces: ts}
		if *cacheDir != "" {
			c, err := sim.OpenCache(*cacheDir)
			if err != nil {
				fail(err)
			}
			eng.Cache = c
		}

		// Ctrl-C cancels in-flight cells at their next checkpoint; completed
		// cells are already in the cache, so an interrupted sweep resumes
		// where it stopped.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()

		start := time.Now()
		if cells > 0 {
			fmt.Fprintf(os.Stderr, "experiments: running %d branch-prediction cells (%d insts each)...\n", cells, *n)
			var err error
			mx, err = sim.RunArtifacts(ctx, eng, arts, *n, *sweepDepth, grid...)
			if err != nil {
				// Partial grids still render (missing cells show n/a); report
				// the failures and degrade rather than discarding the run.
				reportCellErr(ctx, "some cells failed", err)
			}
		}
		if want("smt") {
			cfg := smt.DefaultConfig()
			cfg.MaxCycles = *smtCycles
			g, err := eng.RunSMTGrid(ctx, workload.Mixes(), cfg)
			if err != nil {
				reportCellErr(ctx, "some SMT cells failed", err)
			}
			smtGrid = g
		}
		if want("vpred") {
			params := sim.DefaultVPredParams(*n)
			params.DepThreshold = *depThreshold
			g, err := eng.RunVPredGrid(ctx, workload.Names, sim.VPredPredictors, params)
			if err != nil {
				reportCellErr(ctx, "some value-prediction cells failed", err)
			}
			vpredGrid = g
		}

		fmt.Fprintf(os.Stderr, "experiments: done in %v (%d simulated, %d from cache)\n",
			time.Since(start).Round(time.Millisecond), eng.Simulated(), eng.CacheHits())
		fmt.Fprintf(os.Stderr, "experiments: traces: %d VM runs, %d memory hits\n", ts.Recorded(), ts.MemHits())
	}

	if export {
		var csvFn, jsonFn func(io.Writer) error
		switch {
		case *only == "smt":
			csvFn = smtGrid.WriteCSV
			jsonFn = smtGrid.WriteJSON
		case *only == "vpred":
			csvFn = vpredGrid.WriteCSV
			jsonFn = vpredGrid.WriteJSON
		case grid != nil:
			csvFn = func(w io.Writer) error { return mx.WriteCSV(w, sim.Depths) }
			jsonFn = func(w io.Writer) error { return mx.WriteJSON(w, sim.Depths) }
		default:
			fmt.Fprintln(os.Stderr, "experiments: -csv/-json export a study grid; nothing to export with -only", *only)
		}
		if csvFn != nil && *csvPath != "" {
			if err := writeFile(*csvPath, csvFn); err != nil {
				fail(err)
			}
		}
		if jsonFn != nil && *jsonPath != "" {
			if err := writeFile(*jsonPath, jsonFn); err != nil {
				fail(err)
			}
		}
	}

	if err := sim.RenderArtifacts(out, arts, mx, *sweepDepth); err != nil {
		fail(err)
	}
	emit := func(t sim.Table) {
		if err := t.Render(out); err != nil {
			fail(err)
		}
	}
	if smtGrid != nil {
		emit(sim.SMTThroughputTable(smtGrid))
		emit(sim.SMTBalanceTable(smtGrid))
	}
	if vpredGrid != nil {
		emit(sim.VPredAccuracyTable(vpredGrid))
		emit(sim.VPredCoverageTable(vpredGrid))
	}
}

// reportCellErr prints a partial-failure report, collapsing the joined
// per-cell context errors of an interrupted run into one line instead of
// one error per canceled cell.
func reportCellErr(ctx context.Context, what string, err error) {
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		fmt.Fprintf(os.Stderr, "experiments: interrupted; %s: %v (completed cells are cached)\n", what, ctx.Err())
		return
	}
	fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", what, err)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
