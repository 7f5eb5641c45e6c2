package sim

import (
	"context"

	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/smt"
	"repro/internal/vpred"
	"repro/internal/workload"
)

// testSMTConfig keeps study tests fast: a few thousand cycles is enough to
// exercise the whole path.
func testSMTConfig() smt.Config {
	cfg := smt.DefaultConfig()
	cfg.MaxCycles = 5000
	return cfg
}

func testVPredParams() VPredParams {
	p := DefaultVPredParams(20_000)
	return p
}

func TestSMTGridColdWarm(t *testing.T) {
	c := openCache(t)
	mixes := workload.Mixes()[:2]
	cold := &Engine{Cache: c}
	g1, err := cold.RunSMTGrid(context.Background(), mixes, testSMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(mixes) * len(SMTPolicies)
	if g1.Len() != wantCells {
		t.Fatalf("cold grid has %d cells, want %d", g1.Len(), wantCells)
	}
	if cold.Simulated() != int64(wantCells) || cold.CacheHits() != 0 {
		t.Errorf("cold run: simulated %d, hits %d", cold.Simulated(), cold.CacheHits())
	}

	warm := &Engine{Cache: c}
	g2, err := warm.RunSMTGrid(context.Background(), mixes, testSMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated() != 0 || warm.CacheHits() != int64(wantCells) {
		t.Errorf("warm run must be cache-only: simulated %d, hits %d",
			warm.Simulated(), warm.CacheHits())
	}
	for _, m := range mixes {
		for _, p := range SMTPolicies {
			a, _ := g1.Lookup(m.Name, p)
			b, ok := g2.Lookup(m.Name, p)
			if !ok {
				t.Fatalf("%s/%s missing from warm grid", m.Name, p)
			}
			if a.Cycles != b.Cycles || a.TotalInsts != b.TotalInsts ||
				a.PeakWindow != b.PeakWindow || len(a.PerThread) != len(b.PerThread) {
				t.Errorf("%s/%s: cached stats differ:\nlive   %+v\ncached %+v", m.Name, p, a, b)
			}
			if b.PeakWindow > testSMTConfig().Window {
				t.Errorf("%s/%s: peak window %d exceeds budget", m.Name, p, b.PeakWindow)
			}
		}
	}
	// Warm tables render byte-identically to cold ones.
	var sb1, sb2 strings.Builder
	if err := renderAll(&sb1, SMTThroughputTable(g1), SMTBalanceTable(g1)); err != nil {
		t.Fatal(err)
	}
	if err := renderAll(&sb2, SMTThroughputTable(g2), SMTBalanceTable(g2)); err != nil {
		t.Fatal(err)
	}
	if sb1.String() != sb2.String() {
		t.Errorf("warm render differs from cold:\n%s\nvs\n%s", sb1.String(), sb2.String())
	}
}

func renderAll(sb *strings.Builder, tables ...Table) error {
	for _, t := range tables {
		if err := t.Render(sb); err != nil {
			return err
		}
	}
	return nil
}

func TestVPredGridColdWarm(t *testing.T) {
	c := openCache(t)
	benches := []string{"m88ksim", "gcc"}
	cold := &Engine{Cache: c}
	g1, err := cold.RunVPredGrid(context.Background(), benches, VPredPredictors, testVPredParams())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(benches) * len(VPredPredictors) * 2
	if g1.Len() != wantCells {
		t.Fatalf("cold grid has %d cells, want %d", g1.Len(), wantCells)
	}
	warm := &Engine{Cache: c}
	g2, err := warm.RunVPredGrid(context.Background(), benches, VPredPredictors, testVPredParams())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated() != 0 || warm.CacheHits() != int64(wantCells) {
		t.Errorf("warm run must be cache-only: simulated %d, hits %d",
			warm.Simulated(), warm.CacheHits())
	}
	for _, b := range benches {
		for _, p := range VPredPredictors {
			for _, sel := range []bool{false, true} {
				a, _ := g1.Lookup(b, p, sel)
				got, ok := g2.Lookup(b, p, sel)
				if !ok {
					t.Fatalf("%s/%s/%t missing from warm grid", b, p, sel)
				}
				if a != got {
					t.Errorf("%s/%s/%t: cached stats differ: %+v vs %+v", b, p, sel, a, got)
				}
			}
		}
	}
	// The ablation moves in the documented direction: selection filters
	// candidates. (Prediction counts are not comparable across the two
	// cells — the selective predictor trains on a different stream.)
	for _, b := range benches {
		for _, p := range VPredPredictors {
			all, _ := g1.Lookup(b, p, false)
			sel, _ := g1.Lookup(b, p, true)
			if sel.Candidates >= all.Candidates {
				t.Errorf("%s/%s: selection did not filter (%d vs %d candidates)",
					b, p, sel.Candidates, all.Candidates)
			}
			if sel.Predictions > sel.Candidates {
				t.Errorf("%s/%s: predictions %d exceed candidates %d",
					b, p, sel.Predictions, sel.Candidates)
			}
		}
	}
}

// TestStudyPartialResults pins the errors.Join contract on the study path:
// cells that completed survive a sibling's failure.
func TestStudyPartialResults(t *testing.T) {
	eng := &Engine{}
	studies := []VPredStudy{
		{Bench: "gcc", Predictor: "stride", Params: testVPredParams()},
		{Bench: "nosuch", Predictor: "stride", Params: testVPredParams()},
		{Bench: "li", Predictor: "nosuchpred", Params: testVPredParams()},
		{Bench: "li", Predictor: "last-value", Params: testVPredParams()},
	}
	res, err := RunStudies[VPredStudy, vpred.Result](context.Background(), eng, studies)
	if err == nil {
		t.Fatal("expected a joined error from the injected failures")
	}
	if len(res) != 2 {
		t.Fatalf("completed results = %d, want 2", len(res))
	}
	if res[0].Study.Bench != "gcc" || res[1].Study.Bench != "li" {
		t.Errorf("surviving results out of order: %v, %v", res[0].Study, res[1].Study)
	}
	msg := err.Error()
	for _, want := range []string{"nosuch", "nosuchpred"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error %q missing %q", msg, want)
		}
	}
}

// TestStudyCacheCorruptEntryRecovers: the study tier inherits the
// self-healing contract of the bpred tier.
func TestStudyCacheCorruptEntryRecovers(t *testing.T) {
	c := openCache(t)
	study := SMTStudy{Mix: workload.MixByName("ijpeg+li"), Policy: smt.ICOUNT, Config: testSMTConfig()}
	eng := &Engine{Cache: c}
	if _, err := RunStudies[SMTStudy, SMTStats](context.Background(), eng, []SMTStudy{study}); err != nil {
		t.Fatal(err)
	}
	key, err := StudyKey(study)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), key+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("study entry not persisted: %v", err)
	}
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out SMTStats
	if ok, err := c.GetStudy(study, &out); err != nil || ok {
		t.Fatalf("corrupt entry served as a hit (ok=%v err=%v)", ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry not removed")
	}
	// Re-running heals the cache.
	if _, err := RunStudies[SMTStudy, SMTStats](context.Background(), eng, []SMTStudy{study}); err != nil {
		t.Fatal(err)
	}
	if eng.Simulated() != 2 {
		t.Errorf("corrupt entry should force a re-simulation, simulated = %d", eng.Simulated())
	}
	if ok, _ := c.GetStudy(study, &out); !ok {
		t.Error("cache not repaired after corrupt entry")
	}
}

// TestStudyKeysNamespaceByKindAndIdentity: distinct studies get distinct
// keys, identical studies get identical keys, and the SMT identity covers
// program content (mix membership) and the model config.
func TestStudyKeysNamespaceByKindAndIdentity(t *testing.T) {
	base := SMTStudy{Mix: workload.MixByName("ijpeg+li"), Policy: smt.ICOUNT, Config: testSMTConfig()}
	k1, err := StudyKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if k2, _ := StudyKey(base); k2 != k1 {
		t.Fatal("study key not deterministic")
	}
	otherPolicy := base
	otherPolicy.Policy = smt.DepLength
	otherMix := base
	otherMix.Mix = workload.MixByName("quad")
	otherCfg := base
	otherCfg.Config.Window = 32
	vp := VPredStudy{Bench: "gcc", Predictor: "stride", Params: testVPredParams()}
	vpSel := vp
	vpSel.Selective = true
	seen := map[string]string{k1: base.String()}
	for _, s := range []Study{otherPolicy, otherMix, otherCfg, vp, vpSel} {
		k, err := StudyKey(s)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("studies %s and %s/%s share a key", prev, s.Kind(), s)
		}
		seen[k] = s.Kind() + "/" + s.String()
	}
}

// TestStudyAndSpecShareOneCacheDirectory: both tiers coexist in one cache
// without aliasing, and Len counts entries of both.
func TestStudyAndSpecShareOneCacheDirectory(t *testing.T) {
	c := openCache(t)
	eng := &Engine{Cache: c}
	if _, err := eng.Run(context.Background(), []Spec{cacheSpec}); err != nil {
		t.Fatal(err)
	}
	study := SMTStudy{Mix: workload.MixByName("gcc+m88ksim"), Policy: smt.RoundRobin, Config: testSMTConfig()}
	if _, err := RunStudies[SMTStudy, SMTStats](context.Background(), eng, []SMTStudy{study}); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Len(); err != nil || n != 2 {
		t.Errorf("cache entries = %d (err %v), want 2", n, err)
	}
	// Both still hit.
	if _, ok := c.Get(cacheSpec); !ok {
		t.Error("spec entry lost after study put")
	}
	var out SMTStats
	if ok, _ := c.GetStudy(study, &out); !ok {
		t.Error("study entry lost after spec put")
	}
}
