package sim

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/workload"
)

func smallMatrix(t *testing.T, benches []string, depths []int, modes []cpu.PredMode) *Matrix {
	t.Helper()
	mx, err := RunMatrix(context.Background(), &Engine{}, benches, depths, modes, 8000)
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

// live runs spec on the functional VM through cpu.Run: the reference
// every replayed cell must equal.
func live(t *testing.T, spec Spec) cpu.Stats {
	t.Helper()
	st, err := cpu.Run(workload.ByName(spec.Bench).Prog, spec.Config())
	if err != nil {
		t.Fatalf("%s: live: %v", spec, err)
	}
	return st
}

func TestSimulateSingle(t *testing.T) {
	spec := Spec{Bench: "compress", Depth: 20, Mode: cpu.PredBaseline2Lvl, MaxInsts: 5000}
	res, err := (&Engine{}).Run(context.Background(), []Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Stats.Insts != 5000 {
		t.Errorf("insts = %d", r.Stats.Insts)
	}
	if r.Stats.Cycles <= 0 || r.Stats.CondBranches == 0 {
		t.Errorf("degenerate stats: %+v", r.Stats)
	}
	if r.Stats != live(t, spec) {
		t.Errorf("replayed stats differ from the live VM's:\nreplay %+v\nlive   %+v", r.Stats, live(t, spec))
	}
	if got := r.Spec.String(); !strings.Contains(got, "compress") || !strings.Contains(got, "20") {
		t.Errorf("spec string = %q", got)
	}
}

func TestRunAllOrderAndParallel(t *testing.T) {
	specs := []Spec{
		{Bench: "gcc", Depth: 20, Mode: cpu.PredBaseline2Lvl, MaxInsts: 4000},
		{Bench: "li", Depth: 40, Mode: cpu.PredARVICurrent, MaxInsts: 4000},
		{Bench: "perl", Depth: 60, Mode: cpu.PredARVIPerfect, MaxInsts: 4000},
	}
	res, err := (&Engine{}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if res[i].Spec != specs[i] {
			t.Errorf("result %d out of order: %v", i, res[i].Spec)
		}
		if res[i].Stats.Insts == 0 {
			t.Errorf("result %d empty", i)
		}
	}
}

func TestRunAllPartialResults(t *testing.T) {
	specs := []Spec{
		{Bench: "gcc", Depth: 20, Mode: cpu.PredBaseline2Lvl, MaxInsts: 4000},
		{Bench: "nosuch", Depth: 20, Mode: cpu.PredBaseline2Lvl, MaxInsts: 4000},
		{Bench: "li", Depth: 0, Mode: cpu.PredARVICurrent, MaxInsts: 4000}, // invalid depth
		{Bench: "perl", Depth: 40, Mode: cpu.PredARVIPerfect, MaxInsts: 4000},
	}
	res, err := (&Engine{}).Run(context.Background(), specs)
	if err == nil {
		t.Fatal("expected a joined error from the injected failures")
	}
	if len(res) != 2 {
		t.Fatalf("completed results = %d, want 2 (%v)", len(res), res)
	}
	if res[0].Spec != specs[0] || res[1].Spec != specs[3] {
		t.Errorf("surviving results out of order: %v, %v", res[0].Spec, res[1].Spec)
	}
	msg := err.Error()
	for _, want := range []string{"nosuch", "depth"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error %q missing %q", msg, want)
		}
	}
}

func TestSimulateUnknownBenchErrors(t *testing.T) {
	if _, err := (&Engine{}).Run(context.Background(), []Spec{{Bench: "nosuch", Depth: 20}}); err == nil {
		t.Error("unknown benchmark must error, not panic")
	}
}

// TestMatrixLookup pins Lookup's behaviour on a deliberately partial grid:
// only (gcc, 20, baseline) and (li, 40, arvi-current) are populated, and
// every other combination of known and unknown coordinates must miss
// without panicking.
func TestMatrixLookup(t *testing.T) {
	var mx Matrix
	for _, s := range []Spec{
		{Bench: "gcc", Depth: 20, Mode: cpu.PredBaseline2Lvl, MaxInsts: 2000},
		{Bench: "li", Depth: 40, Mode: cpu.PredARVICurrent, MaxInsts: 2000},
	} {
		mx.Add(Result{Spec: s, Stats: live(t, s)})
	}
	if mx.Len() != 2 {
		t.Fatalf("Len = %d", mx.Len())
	}
	cases := []struct {
		name  string
		bench string
		depth int
		mode  cpu.PredMode
		ok    bool
	}{
		{"populated cell", "gcc", 20, cpu.PredBaseline2Lvl, true},
		{"second populated cell", "li", 40, cpu.PredARVICurrent, true},
		{"right bench, wrong depth", "gcc", 40, cpu.PredBaseline2Lvl, false},
		{"right bench, wrong mode", "gcc", 20, cpu.PredARVICurrent, false},
		{"cross of two populated cells", "li", 20, cpu.PredBaseline2Lvl, false},
		{"bench absent from grid", "perl", 20, cpu.PredBaseline2Lvl, false},
		{"unknown bench", "nosuch", 20, cpu.PredBaseline2Lvl, false},
		{"empty bench", "", 20, cpu.PredBaseline2Lvl, false},
		{"depth never simulated", "gcc", 60, cpu.PredBaseline2Lvl, false},
		{"nonsense depth", "gcc", -1, cpu.PredBaseline2Lvl, false},
		{"nonsense mode", "gcc", 20, cpu.PredMode(99), false},
	}
	for _, c := range cases {
		st, ok := mx.Lookup(c.bench, c.depth, c.mode)
		if ok != c.ok {
			t.Errorf("%s: Lookup(%q, %d, %v) ok = %v, want %v",
				c.name, c.bench, c.depth, c.mode, ok, c.ok)
			continue
		}
		if ok && st.Insts == 0 {
			t.Errorf("%s: populated cell has empty stats", c.name)
		}
		if !ok && st != (cpu.Stats{}) {
			t.Errorf("%s: miss returned non-zero stats %+v", c.name, st)
		}
	}
}

// TestMatrixAblationCellsDoNotCollide pins the fix for the silent
// result-collision bug: adding an ablated result (CutAtLoads, or an
// explicit ConfThreshold) at the same (bench, depth, mode) coordinates as
// a baseline result must not overwrite the baseline cell.
func TestMatrixAblationCellsDoNotCollide(t *testing.T) {
	base := Spec{Bench: "gcc", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 2000}
	cut := base
	cut.CutAtLoads = true
	conf := base
	conf.ConfThreshold = 12

	var mx Matrix
	stats := make(map[string]cpu.Stats, 3)
	for name, s := range map[string]Spec{"base": base, "cut": cut, "conf": conf} {
		stats[name] = live(t, s)
		mx.Add(Result{Spec: s, Stats: stats[name]})
	}
	if mx.Len() != 3 {
		t.Fatalf("Len = %d, want 3 distinct cells (ablation runs collided)", mx.Len())
	}
	got, ok := mx.Lookup("gcc", 20, cpu.PredARVICurrent)
	if !ok {
		t.Fatal("baseline cell missing")
	}
	if got != stats["base"] {
		t.Errorf("Lookup returned an ablated cell's stats:\nwant %+v\ngot  %+v", stats["base"], got)
	}
	for name, s := range map[string]Spec{"base": base, "cut": cut, "conf": conf} {
		st, ok := mx.LookupSpec(s)
		if !ok {
			t.Errorf("%s: LookupSpec missed its own cell", name)
			continue
		}
		if st != stats[name] {
			t.Errorf("%s: LookupSpec returned wrong stats", name)
		}
	}
	// The matrix agrees with the cache on spec identity: an explicit
	// ConfThreshold equal to the paper default is the same run (and the
	// same cache entry) as the baseline, so it is the same matrix cell.
	alias := base
	alias.ConfThreshold = base.Config().ConfThreshold
	if alias.Config() != base.Config() {
		t.Fatal("test premise broken: explicit default threshold derives a different config")
	}
	if st, ok := mx.LookupSpec(alias); !ok || st != stats["base"] {
		t.Errorf("explicit-default-threshold alias did not resolve to the baseline cell (ok=%v)", ok)
	}
}

// TestMatrixLookupZeroValue: the zero Matrix (no Add ever called, nil map)
// must miss cleanly, matching the partial-grid contract.
func TestMatrixLookupZeroValue(t *testing.T) {
	var mx Matrix
	if _, ok := mx.Lookup("gcc", 20, cpu.PredBaseline2Lvl); ok {
		t.Error("zero-value matrix reported a populated cell")
	}
	if mx.Len() != 0 {
		t.Errorf("Len = %d", mx.Len())
	}
}

// TestFigureTablesPartialGrid renders every figure against a grid holding
// a single benchmark at a single depth: every other cell must degrade to
// n/a instead of panicking.
func TestFigureTablesPartialGrid(t *testing.T) {
	mx := smallMatrix(t, []string{"gcc"}, []int{20}, Modes)
	for _, tb := range []Table{Fig5a(mx), Fig5b(mx, 20), Fig6Accuracy(mx, 40)} {
		var sb strings.Builder
		if err := tb.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	tb, summ := Fig6IPC(mx, 60) // depth entirely absent from the grid
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "n/a") {
		t.Errorf("missing cells not marked:\n%s", sb.String())
	}
	if len(summ.Normalized[cpu.PredARVICurrent]) != 0 {
		t.Error("summary invented values for missing cells")
	}
	// The populated depth normalises exactly as before.
	_, s20 := Fig6IPC(mx, 20)
	if n := s20.Normalized[cpu.PredBaseline2Lvl]["gcc"]; n != 1 {
		t.Errorf("baseline normalised IPC = %v", n)
	}
}

func TestRunBoundsGoroutineSpawn(t *testing.T) {
	eng := &Engine{Workers: 2}
	var specs []Spec
	for _, b := range []string{"gcc", "li", "perl", "compress"} {
		specs = append(specs, Spec{Bench: b, Depth: 20, Mode: cpu.PredBaseline2Lvl, MaxInsts: 2000})
	}
	res, err := eng.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(specs) || eng.Simulated() != int64(len(specs)) {
		t.Errorf("results = %d, simulated = %d", len(res), eng.Simulated())
	}
}

// TestForEachBoundsConcurrency pins the pool's contract: every index runs
// exactly once with never more than limit jobs live at a time, and a batch
// that starts canceled runs every job on the caller without spawning.
func TestForEachBoundsConcurrency(t *testing.T) {
	const n, limit = 40, 3
	var ran [n]atomic.Int32
	var live, peak atomic.Int32
	ForEach(context.Background(), limit, n, func(i int) {
		cur := live.Add(1)
		for p := peak.Load(); cur > p; p = peak.Load() {
			if peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond) // give a broken bound the chance to show
		ran[i].Add(1)
		live.Add(-1)
	})
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("job %d ran %d times", i, got)
		}
	}
	if p := peak.Load(); p > limit {
		t.Errorf("%d jobs live at once, limit %d", p, limit)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	var canceled atomic.Int32
	ForEach(ctx, limit, n, func(int) {
		canceled.Add(1)
		if g := runtime.NumGoroutine(); g > before {
			t.Errorf("canceled batch spawned goroutines: %d -> %d", before, g)
		}
	})
	if canceled.Load() != n {
		t.Errorf("canceled batch ran %d of %d jobs", canceled.Load(), n)
	}
}

func TestMatrixGetPanicsOnMissing(t *testing.T) {
	mx := smallMatrix(t, []string{"gcc"}, []int{20}, []cpu.PredMode{cpu.PredBaseline2Lvl})
	defer func() {
		if recover() == nil {
			t.Error("Get on missing cell must panic")
		}
	}()
	mx.Get("li", 20, cpu.PredBaseline2Lvl)
}

func TestDeterministicRuns(t *testing.T) {
	s := Spec{Bench: "vortex", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 6000}
	if a, b := live(t, s), live(t, s); a != b {
		t.Errorf("same spec produced different stats:\n%+v\n%+v", a, b)
	}
}

func TestFigureTables(t *testing.T) {
	mx := smallMatrix(t, workload.Names, Depths, Modes)

	f5a := Fig5a(mx)
	if len(f5a.Rows) != len(workload.Names) || len(f5a.Header) != 4 {
		t.Errorf("fig5a shape: %d rows, %d cols", len(f5a.Rows), len(f5a.Header))
	}
	f5b := Fig5b(mx, 20)
	if len(f5b.Rows) != len(workload.Names) {
		t.Errorf("fig5b rows = %d", len(f5b.Rows))
	}
	f6a := Fig6Accuracy(mx, 20)
	if len(f6a.Rows) != len(workload.Names) || len(f6a.Header) != 5 {
		t.Errorf("fig6 accuracy shape wrong")
	}
	f6b, summ := Fig6IPC(mx, 20)
	if len(f6b.Rows) != len(workload.Names)+1 { // + average row
		t.Errorf("fig6 ipc rows = %d", len(f6b.Rows))
	}
	// The baseline column must be exactly 1.000 for every benchmark.
	for _, b := range workload.Names {
		if n := summ.Normalized[cpu.PredBaseline2Lvl][b]; n != 1 {
			t.Errorf("baseline normalised IPC for %s = %v", b, n)
		}
	}
	var sb strings.Builder
	if err := f6b.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "average") || !strings.Contains(out, "m88ksim") {
		t.Errorf("rendered table missing rows:\n%s", out)
	}
}

func TestStaticTables(t *testing.T) {
	t2 := Table2()
	if len(t2.Rows) < 8 {
		t.Errorf("table2 rows = %d", len(t2.Rows))
	}
	t4 := Table4()
	if len(t4.Rows) != 3 {
		t.Errorf("table4 rows = %d", len(t4.Rows))
	}
	// Table 4 ARVI row must show 6/12/18.
	got := strings.Join(t4.Rows[2], " ")
	for _, want := range []string{"6", "12", "18"} {
		if !strings.Contains(got, want) {
			t.Errorf("ARVI latency row %q missing %s", got, want)
		}
	}
}

func TestRenderAlignment(t *testing.T) {
	tb := Table{Title: "T", Note: "n", Header: []string{"a", "bb"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "2")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	// Title, note, header, rule, two rows.
	if len(lines) != 6 {
		t.Errorf("rendered %d lines:\n%s", len(lines), sb.String())
	}
}

// TestHeadlineShape verifies the paper's headline claims on a reduced
// budget: ARVI current-value beats the two-level baseline on average, and
// the advantage does not shrink from 20 to 60 stages.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("headline shape needs a non-trivial instruction budget")
	}
	mx, err := RunMatrix(context.Background(), &Engine{}, workload.Names, []int{20, 60}, Modes, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	_, s20 := Fig6IPC(mx, 20)
	_, s60 := Fig6IPC(mx, 60)
	if s20.AvgImprovement[cpu.PredARVICurrent] < 0.03 {
		t.Errorf("20-stage ARVI improvement = %+.3f, want >= +3%%",
			s20.AvgImprovement[cpu.PredARVICurrent])
	}
	if s60.AvgImprovement[cpu.PredARVICurrent] <= s20.AvgImprovement[cpu.PredARVICurrent] {
		t.Errorf("improvement must grow with depth: 20-stage %+.3f vs 60-stage %+.3f",
			s20.AvgImprovement[cpu.PredARVICurrent],
			s60.AvgImprovement[cpu.PredARVICurrent])
	}
	// m88ksim is the outlier winner at 20 stages.
	m, base := mx.Get("m88ksim", 20, cpu.PredARVICurrent), mx.Get("m88ksim", 20, cpu.PredBaseline2Lvl)
	if m.IPC() <= base.IPC()*1.05 {
		t.Errorf("m88ksim ARVI IPC %.3f must clearly beat baseline %.3f", m.IPC(), base.IPC())
	}
	// Perfect value is an upper bound on current value, on average.
	if s20.AvgImprovement[cpu.PredARVIPerfect] < s20.AvgImprovement[cpu.PredARVICurrent]-0.02 {
		t.Errorf("perfect (%+.3f) must not trail current (%+.3f)",
			s20.AvgImprovement[cpu.PredARVIPerfect], s20.AvgImprovement[cpu.PredARVICurrent])
	}
}
