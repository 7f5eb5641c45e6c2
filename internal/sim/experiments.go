package sim

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/workload"
)

// na marks a cell whose simulation has not completed (partial grid).
const na = "n/a"

// Fig5a renders Figure 5(a): the fraction of dynamic conditional branches
// classified as load branches, per benchmark and pipeline depth, under the
// ARVI current-value configuration. Missing cells render as n/a.
//
//arvi:det
func Fig5a(m *Matrix) Table {
	t := Table{
		Title:  "Figure 5(a): Load branch fraction (ARVI current value)",
		Header: []string{"benchmark", "20-cycle", "40-cycle", "60-cycle"},
	}
	for _, b := range workload.Names {
		row := []string{b}
		for _, d := range Depths {
			if st, ok := m.Lookup(b, d, cpu.PredARVICurrent); ok {
				row = append(row, f3(st.LoadBranchFraction()))
			} else {
				row = append(row, na)
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig5b renders Figure 5(b): prediction accuracy of calculated versus load
// branches at the given depth under ARVI current value.
//
//arvi:det
func Fig5b(m *Matrix, depth int) Table {
	t := Table{
		Title:  fmt.Sprintf("Figure 5(b): Prediction accuracy by class, %d-cycle (ARVI current value)", depth),
		Header: []string{"benchmark", "calc branch", "load branch", "calc frac"},
	}
	for _, b := range workload.Names {
		st, ok := m.Lookup(b, depth, cpu.PredARVICurrent)
		if !ok {
			t.AddRow(b, na, na, na)
			continue
		}
		t.AddRow(b,
			pct(st.ClassAccuracy(cpu.ClassCalculated)),
			pct(st.ClassAccuracy(cpu.ClassLoad)),
			f3(1-st.LoadBranchFraction()))
	}
	return t
}

// Fig6Accuracy renders the prediction-accuracy panel of Figure 6 for one
// pipeline depth across the four predictor configurations.
func Fig6Accuracy(m *Matrix, depth int) Table {
	t := Table{
		Title:  fmt.Sprintf("Figure 6: Prediction rates, %d-cycle pipeline", depth),
		Header: []string{"benchmark", "2lvl-gskew", "arvi-current", "arvi-loadback", "arvi-perfect"},
	}
	for _, b := range workload.Names {
		row := []string{b}
		for _, md := range Modes {
			if st, ok := m.Lookup(b, depth, md); ok {
				row = append(row, pct(st.PredAccuracy()))
			} else {
				row = append(row, na)
			}
		}
		t.AddRow(row...)
	}
	return t
}

// IPCSummary holds the Figure 6 IPC panel for one depth.
type IPCSummary struct {
	Depth int
	// Normalised[mode][bench] = IPC(mode)/IPC(baseline).
	Normalized map[cpu.PredMode]map[string]float64
	// AvgImprovement[mode] is the arithmetic-mean normalised IPC minus 1
	// (the paper's "overall IPC improvement").
	AvgImprovement map[cpu.PredMode]float64
}

// Fig6IPC computes the normalised-IPC panel of Figure 6 for one depth.
func Fig6IPC(m *Matrix, depth int) (Table, IPCSummary) {
	sum := IPCSummary{
		Depth:          depth,
		Normalized:     make(map[cpu.PredMode]map[string]float64),
		AvgImprovement: make(map[cpu.PredMode]float64),
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 6: Normalized IPC, %d-cycle pipeline (baseline = two-level 2Bc-gskew)", depth),
		Header: []string{"benchmark", "2lvl-gskew", "arvi-current", "arvi-loadback", "arvi-perfect"},
	}
	for _, md := range Modes {
		sum.Normalized[md] = make(map[string]float64)
	}
	for _, b := range workload.Names {
		row := []string{b}
		baseSt, baseOK := m.Lookup(b, depth, cpu.PredBaseline2Lvl)
		for _, md := range Modes {
			st, ok := m.Lookup(b, depth, md)
			if !ok || !baseOK || baseSt.IPC() == 0 {
				row = append(row, na)
				continue
			}
			n := st.IPC() / baseSt.IPC()
			sum.Normalized[md][b] = n
			row = append(row, ratio(n))
		}
		t.AddRow(row...)
	}
	// The average covers only benchmarks whose cells completed, so a
	// partial grid yields a partial (but well-defined) summary.
	avgRow := []string{"average"}
	for _, md := range Modes {
		total, count := 0.0, 0
		for _, b := range workload.Names {
			if n, ok := sum.Normalized[md][b]; ok {
				total += n
				count++
			}
		}
		if count == 0 {
			avgRow = append(avgRow, na)
			continue
		}
		avg := total / float64(count)
		sum.AvgImprovement[md] = avg - 1
		avgRow = append(avgRow, ratio(avg))
	}
	t.AddRow(avgRow...)
	return t, sum
}

// Table2 echoes the architectural parameters of the simulated machine.
//
//arvi:det
func Table2() Table {
	cfg := cpu.DefaultConfig(20, cpu.PredBaseline2Lvl)
	t := Table{
		Title:  "Table 2: Architectural parameters",
		Header: []string{"parameter", "value"},
	}
	t.AddRow("fetch/decode/commit width", fmt.Sprintf("%d", cfg.FetchWidth))
	t.AddRow("ROB entries", fmt.Sprintf("%d", cfg.ROB))
	t.AddRow("load/store queue", fmt.Sprintf("%d", cfg.LSQ))
	t.AddRow("integer ALUs", fmt.Sprintf("%d", cfg.IntALU))
	t.AddRow("integer mult/div", fmt.Sprintf("%d", cfg.IntMul))
	t.AddRow("memory ports", fmt.Sprintf("%d", cfg.MemPorts))
	t.AddRow("L1 I-cache", "64 KB 4-way, 32 B lines")
	t.AddRow("L1 D-cache", "64 KB 4-way, 32 B lines")
	t.AddRow("L2 unified", "512 KB 4-way, 64 B lines")
	t.AddRow("ITLB / DTLB", "64 / 128 entries, 4-way, 8 KB pages, 30-cycle miss")
	for _, d := range Depths {
		l := mem.LatenciesForDepth(d)
		t.AddRow(fmt.Sprintf("latencies @%d stages", d),
			fmt.Sprintf("L1 %d / L2 %d / mem %d cycles", l.L1Hit, l.L2Hit, l.Mem))
	}
	return t
}

// Table4 echoes the predictor access latencies.
//
//arvi:det
func Table4() Table {
	t := Table{
		Title:  "Table 4: Predictor access latencies (cycles)",
		Header: []string{"predictor", "size", "20-cycle", "40-cycle", "60-cycle"},
	}
	row := func(name, size string, mode cpu.PredMode, level1 bool) {
		cells := []string{name, size}
		for _, d := range Depths {
			if level1 {
				cells = append(cells, "1")
				continue
			}
			cells = append(cells, fmt.Sprintf("%d", cpu.DefaultConfig(d, mode).L2Latency()))
		}
		t.AddRow(cells...)
	}
	row("Level-1 hybrid (2Bc-gskew)", "4 KB", cpu.PredBaseline2Lvl, true)
	row("Level-2 hybrid (2Bc-gskew)", "32 KB", cpu.PredBaseline2Lvl, false)
	row("Level-2 ARVI", "32 KB", cpu.PredARVICurrent, false)
	return t
}
