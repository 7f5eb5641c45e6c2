// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (see DESIGN.md's per-experiment index) and runs
// the ablations it calls out. Each benchmark executes the simulations its
// artifact needs and reports the headline numbers as custom metrics, so
// `go test -bench=.` reproduces the paper's results end to end.
//
// The instruction budget per simulation is reduced relative to
// cmd/experiments to keep benchmark runtime reasonable; cmd/experiments
// regenerates the full-budget artifacts.
package repro

import (
	"context"
	"testing"

	"repro/internal/arvi"
	"repro/internal/benchkit"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

const benchInsts = 80_000

func runSpec(b *testing.B, spec sim.Spec) cpu.Stats {
	b.Helper()
	if spec.MaxInsts == 0 {
		spec.MaxInsts = benchInsts
	}
	return runCfg(b, spec.Bench, spec.Config())
}

func runCfg(b *testing.B, bench string, cfg cpu.Config) cpu.Stats {
	b.Helper()
	if cfg.MaxInsts == 0 {
		cfg.MaxInsts = benchInsts
	}
	st, err := cpu.Run(workload.ByName(bench).Prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkTable2Echo regenerates Table 2 (architectural parameters).
func BenchmarkTable2Echo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sim.Table2()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4Latencies regenerates Table 4 (predictor access latencies).
func BenchmarkTable4Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sim.Table4()
		if len(t.Rows) != 3 {
			b.Fatal("table4 shape")
		}
	}
}

// BenchmarkFig5a regenerates Figure 5(a): load-branch fraction per
// benchmark and depth under ARVI current value. It reports the suite
// average fraction at each depth.
func BenchmarkFig5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mx, err := sim.RunMatrix(context.Background(), &sim.Engine{}, workload.Names, sim.Depths,
			[]cpu.PredMode{cpu.PredARVICurrent}, benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		_ = sim.Fig5a(mx)
		for _, d := range sim.Depths {
			total := 0.0
			for _, w := range workload.Names {
				total += mx.Get(w, d, cpu.PredARVICurrent).LoadBranchFraction()
			}
			b.ReportMetric(total/float64(len(workload.Names)),
				map[int]string{20: "loadfrac20", 40: "loadfrac40", 60: "loadfrac60"}[d])
		}
	}
}

// BenchmarkFig5b regenerates Figure 5(b): accuracy of calculated versus
// load branches at 20 stages. It reports the suite-average accuracies.
func BenchmarkFig5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mx, err := sim.RunMatrix(context.Background(), &sim.Engine{}, workload.Names, []int{20},
			[]cpu.PredMode{cpu.PredARVICurrent}, benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		_ = sim.Fig5b(mx, 20)
		var calc, load float64
		for _, w := range workload.Names {
			st := mx.Get(w, 20, cpu.PredARVICurrent)
			calc += st.ClassAccuracy(cpu.ClassCalculated)
			load += st.ClassAccuracy(cpu.ClassLoad)
		}
		n := float64(len(workload.Names))
		b.ReportMetric(calc/n, "calcacc")
		b.ReportMetric(load/n, "loadacc")
	}
}

func benchFig6(b *testing.B, depth int) {
	for i := 0; i < b.N; i++ {
		mx, err := sim.RunMatrix(context.Background(), &sim.Engine{}, workload.Names, []int{depth}, sim.Modes, benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		_ = sim.Fig6Accuracy(mx, depth)
		_, summ := sim.Fig6IPC(mx, depth)
		b.ReportMetric(100*summ.AvgImprovement[cpu.PredARVICurrent], "cur_ipc_%")
		b.ReportMetric(100*summ.AvgImprovement[cpu.PredARVILoadBack], "lb_ipc_%")
		b.ReportMetric(100*summ.AvgImprovement[cpu.PredARVIPerfect], "perf_ipc_%")
	}
}

// BenchmarkFig6Depth20 regenerates Figure 6(a)(b): 20-stage accuracy and
// normalised IPC (paper headline: +12.6% for ARVI current value).
func BenchmarkFig6Depth20(b *testing.B) { benchFig6(b, 20) }

// BenchmarkFig6Depth40 regenerates Figure 6(c)(d).
func BenchmarkFig6Depth40(b *testing.B) { benchFig6(b, 40) }

// BenchmarkFig6Depth60 regenerates Figure 6(e)(f) (paper: +15.6%).
func BenchmarkFig6Depth60(b *testing.B) { benchFig6(b, 60) }

// BenchmarkAblationChainSemantics compares the literal DDT chain semantics
// (address chains flow through loads) against CutAtLoads on the benchmarks
// most sensitive to chain shape (DESIGN.md ablation A1).
func BenchmarkAblationChainSemantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []string{"m88ksim", "li"} {
			lit := runSpec(b, sim.Spec{Bench: w, Depth: 20, Mode: cpu.PredARVICurrent})
			cut := runSpec(b, sim.Spec{Bench: w, Depth: 20, Mode: cpu.PredARVICurrent, CutAtLoads: true})
			b.ReportMetric(lit.PredAccuracy(), w+"_literal")
			b.ReportMetric(cut.PredAccuracy(), w+"_cut")
		}
	}
}

// BenchmarkAblationStalePolicy compares the three stale-value policies for
// unavailable leaves (DESIGN.md: StalePhysical is the paper-literal default).
func BenchmarkAblationStalePolicy(b *testing.B) {
	pols := []struct {
		name string
		p    cpu.StalePolicy
	}{{"phys", cpu.StalePhysical}, {"mask", cpu.StaleMask}, {"arch", cpu.StaleArchValue}}
	for i := 0; i < b.N; i++ {
		for _, w := range []string{"m88ksim", "li"} {
			for _, pol := range pols {
				cfg := cpu.DefaultConfig(20, cpu.PredARVICurrent)
				cfg.StalePolicy = pol.p
				st := runCfg(b, w, cfg)
				b.ReportMetric(st.PredAccuracy(), w+"_"+pol.name)
			}
		}
	}
}

// BenchmarkAblationGating compares the ARVI-use gates: the plain Heil
// performance-counter threshold against the saturated-counter requirement.
func BenchmarkAblationGating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range []string{"go", "li"} {
			plain := cpu.DefaultConfig(20, cpu.PredARVICurrent)
			strong := plain
			strong.ARVIRequireStrong = true
			b.ReportMetric(runCfg(b, w, plain).PredAccuracy(), w+"_plain")
			b.ReportMetric(runCfg(b, w, strong).PredAccuracy(), w+"_strong")
		}
	}
}

// BenchmarkAblationBVIT sweeps the BVIT geometry (DESIGN.md ablation A2):
// a quarter-size table and a direct-mapped variant against the paper's
// 2K-set 4-way configuration, on the value-sensitive benchmarks.
func BenchmarkAblationBVIT(b *testing.B) {
	geoms := []struct {
		name string
		cfg  arvi.Config
	}{
		{"2kx4", arvi.DefaultConfig()},
		{"512x4", func() arvi.Config { c := arvi.DefaultConfig(); c.Sets = 512; return c }()},
		{"2kx1", func() arvi.Config { c := arvi.DefaultConfig(); c.Ways = 1; return c }()},
	}
	for i := 0; i < b.N; i++ {
		for _, w := range []string{"m88ksim", "perl"} {
			for _, g := range geoms {
				cfg := cpu.DefaultConfig(20, cpu.PredARVICurrent)
				cfg.ARVI = g.cfg
				st := runCfg(b, w, cfg)
				b.ReportMetric(st.PredAccuracy(), w+"_"+g.name)
			}
		}
	}
}

// BenchmarkEngineThroughput measures simulator speed (ns per simulated
// instruction) on the full ARVI configuration.
func BenchmarkEngineThroughput(b *testing.B) {
	p := workload.ByName("gcc").Prog
	cfg := cpu.DefaultConfig(20, cpu.PredARVICurrent)
	cfg.MaxInsts = 50_000
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		st, err := cpu.Run(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Insts
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// BenchmarkReplayThroughput measures the same configuration fed from a
// pre-recorded decoded trace instead of a live functional VM, reusing one
// engine via Reset — the hot path of trace-store sweeps (sim pools engines
// per configuration the same way). It delegates to the shared benchkit
// body, the same one cmd/benchjson records into the BENCH_*.json
// trajectory, so the interactive and recorded numbers cannot diverge. The
// gap to BenchmarkEngineThroughput is the per-configuration VM cost the
// trace tier amortises away.
func BenchmarkReplayThroughput(b *testing.B) {
	benchkit.EngineThroughput(b)
}

// BenchmarkMatrixTraceStore runs a full-suite single-depth matrix through
// the record-once trace store, the configuration cold sweeps actually use.
// It reports how many functional-VM executions the sweep needed (one per
// benchmark) against the matrix cells it filled.
func BenchmarkMatrixTraceStore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		store := sim.NewTraceStore(0)
		eng := &sim.Engine{Traces: store}
		mx, err := sim.RunMatrix(context.Background(), eng, workload.Names, []int{20}, sim.Modes, benchInsts)
		if err != nil {
			b.Fatal(err)
		}
		if mx.Len() != len(workload.Names)*len(sim.Modes) {
			b.Fatalf("cells = %d", mx.Len())
		}
		if store.Recorded() != int64(len(workload.Names)) {
			b.Fatalf("recorded = %d, want one VM run per benchmark", store.Recorded())
		}
		b.ReportMetric(float64(store.Recorded()), "vmruns")
		b.ReportMetric(float64(mx.Len()), "cells")
	}
}
