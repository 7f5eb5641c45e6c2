package cpu

import (
	"testing"

	"repro/internal/workload"
)

// TestWrongPathInjectionIsTransparent is the integration test for the
// paper's Section 2 rollback: after every misprediction a burst of
// wrong-path instructions is renamed into the DDT and then squashed via
// Rollback plus a rename-map checkpoint restore. If recovery is exact, the
// run's statistics are bit-identical to a run without injection.
func TestWrongPathInjectionIsTransparent(t *testing.T) {
	for _, bench := range []string{"gcc", "li", "m88ksim"} {
		p := workload.ByName(bench).Prog
		plain := DefaultConfig(20, PredARVICurrent)
		plain.MaxInsts = 40_000
		inject := plain
		inject.WrongPathInject = true

		a, err := Run(p, plain)
		if err != nil {
			t.Fatalf("%s plain: %v", bench, err)
		}
		b, err := Run(p, inject)
		if err != nil {
			t.Fatalf("%s inject: %v", bench, err)
		}
		if a != b {
			t.Errorf("%s: wrong-path injection changed results\nplain:  %+v\ninject: %+v",
				bench, a, b)
		}
		if a.Mispredicts == 0 {
			t.Errorf("%s: no mispredicts — injection path never exercised", bench)
		}
	}
}

// TestWrongPathInjectionKeepsAggregatesCoherent pins the incremental RSE
// against the wrong-path undo: injected inserts evict tracked slots from
// the running aggregates, the rollback leaves their marks in place, and
// subsequent LeafSet reads must still diff cleanly. A drifted counter would
// not necessarily change the run's stats (the leaf set could coincide), so
// the aggregate state is checked directly after the run.
func TestWrongPathInjectionKeepsAggregatesCoherent(t *testing.T) {
	for _, bench := range []string{"gcc", "li"} {
		p := workload.ByName(bench).Prog
		cfg := DefaultConfig(20, PredARVICurrent)
		cfg.MaxInsts = 40_000
		cfg.WrongPathInject = true
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		stats, err := runLive(e, p)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if stats.Mispredicts == 0 {
			t.Fatalf("%s: no mispredicts — injection path never exercised", bench)
		}
		if err := e.ddt.VerifyRSEAggregates(); err != nil {
			t.Errorf("%s: aggregates drifted after wrong-path bursts: %v", bench, err)
		}
	}
}

// TestWrongPathInjectionBaselineMode covers injection under the baseline
// predictor (no ARVI reads between insert and rollback).
func TestWrongPathInjectionBaselineMode(t *testing.T) {
	p := workload.ByName("go").Prog
	cfg := DefaultConfig(20, PredBaseline2Lvl)
	cfg.MaxInsts = 30_000
	inj := cfg
	inj.WrongPathInject = true
	a, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, inj)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("baseline injection changed results")
	}
}
