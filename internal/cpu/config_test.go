package cpu

import (
	"testing"

	"repro/internal/workload"
)

func runLi(t *testing.T, mutate func(*Config)) Stats {
	t.Helper()
	cfg := DefaultConfig(20, PredARVICurrent)
	cfg.MaxInsts = 20_000
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := Run(workload.ByName("li").Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStalePoliciesAllRun(t *testing.T) {
	for _, pol := range []StalePolicy{StalePhysical, StaleMask, StaleArchValue} {
		st := runLi(t, func(c *Config) { c.StalePolicy = pol })
		if st.Insts != 20_000 || st.ARVILookups == 0 {
			t.Errorf("policy %d: degenerate run %+v", pol, st)
		}
		if acc := st.PredAccuracy(); acc < 0.5 || acc > 1 {
			t.Errorf("policy %d: accuracy %v out of range", pol, acc)
		}
	}
}

func TestGateModesAllRun(t *testing.T) {
	var used [3]int64
	for gate := 0; gate < 3; gate++ {
		st := runLi(t, func(c *Config) { c.ARVIGateMode = gate })
		used[gate] = st.ARVIUsed
		if st.CondBranches == 0 {
			t.Fatalf("gate %d: no branches", gate)
		}
	}
	// Stricter gates must not use ARVI more often than the plain gate.
	if used[1] > used[0] || used[2] > used[0] {
		t.Errorf("gating did not restrict usage: %v", used)
	}
}

func TestRequireStrongRestrictsUsage(t *testing.T) {
	plain := runLi(t, nil)
	strict := runLi(t, func(c *Config) { c.ARVIRequireStrong = true })
	if strict.ARVIUsed > plain.ARVIUsed {
		t.Errorf("require-strong used ARVI more: %d > %d", strict.ARVIUsed, plain.ARVIUsed)
	}
}

func TestCutAtLoadsRuns(t *testing.T) {
	st := runLi(t, func(c *Config) { c.CutAtLoads = true })
	if st.ARVILookups == 0 {
		t.Error("cut-at-loads run degenerate")
	}
}

func TestHierarchyAccessor(t *testing.T) {
	e, err := NewEngine(DefaultConfig(20, PredBaseline2Lvl))
	if err != nil {
		t.Fatal(err)
	}
	h := e.Hierarchy()
	if h == nil || h.L1D == nil || h.L2 == nil {
		t.Fatal("hierarchy not exposed")
	}
	cfg := DefaultConfig(20, PredBaseline2Lvl)
	cfg.MaxInsts = 5000
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runLive(eng, workload.ByName("gcc").Prog); err != nil {
		t.Fatal(err)
	}
	if eng.Hierarchy().L1D.Accesses() == 0 {
		t.Error("no data-cache traffic recorded")
	}
}

func TestPredModeStrings(t *testing.T) {
	for _, m := range []PredMode{PredBaseline2Lvl, PredARVICurrent, PredARVILoadBack, PredARVIPerfect} {
		if m.String() == "" {
			t.Errorf("mode %d has no name", m)
		}
	}
	if PredBaseline2Lvl.UsesARVI() || !PredARVIPerfect.UsesARVI() {
		t.Error("UsesARVI wrong")
	}
}

func TestFrontLatencyScalesWithDepth(t *testing.T) {
	l20 := DefaultConfig(20, PredBaseline2Lvl).FrontLatency()
	l60 := DefaultConfig(60, PredBaseline2Lvl).FrontLatency()
	if l60 <= l20 || l20 < 1 {
		t.Errorf("front latency: 20-stage %d, 60-stage %d", l20, l60)
	}
}
