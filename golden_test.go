package repro

import (
	"context"

	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// updateGolden rewrites the golden corpora from the current simulator:
//
//	go test -run TestGolden -update .        # all three corpora
//	go test -run TestGoldenStats -update .   # branch prediction only
//	go test -run TestGoldenSMT -update .     # SMT fetch policies only
//	go test -run TestGoldenVPred -update .   # selective value prediction
//
// Do this only when a model change is intentional; the diff of the
// testdata/*.json corpus then documents exactly what moved.
var updateGolden = flag.Bool("update", false, "rewrite the testdata/ golden corpora")

const goldenPath = "testdata/golden_stats.json"

// goldenFile pins per-benchmark statistics at a fixed small configuration.
// Any silent drift in the timing model, the predictors, the workload
// generators or the VM shows up here as a tier-1 failure instead of as
// stale-but-trusted entries in people's result caches.
type goldenFile struct {
	Note     string               `json:"note"`
	Depth    int                  `json:"depth"`
	Mode     string               `json:"mode"`
	MaxInsts int64                `json:"maxInsts"`
	Stats    map[string]cpu.Stats `json:"stats"`
}

func computeGolden(t *testing.T) goldenFile {
	t.Helper()
	g := goldenFile{
		Note:     "regenerate with: go test -run TestGoldenStats -update .",
		Depth:    20,
		Mode:     cpu.PredARVICurrent.String(),
		MaxInsts: 20_000,
		Stats:    make(map[string]cpu.Stats, len(workload.Names)),
	}
	for _, name := range workload.Names {
		spec := sim.Spec{Bench: name, Depth: g.Depth, Mode: cpu.PredARVICurrent, MaxInsts: g.MaxInsts}
		st, err := cpu.Run(workload.ByName(name).Prog, spec.Config())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g.Stats[name] = st
	}
	return g
}

func TestGoldenStats(t *testing.T) {
	got := computeGolden(t)

	if *updateGolden {
		writeGoldenFile(t, goldenPath, got)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with: go test -run TestGoldenStats -update .)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if want.Depth != got.Depth || want.Mode != got.Mode || want.MaxInsts != got.MaxInsts {
		t.Fatalf("golden config drifted: file (%d, %s, %d) vs test (%d, %s, %d); -update after verifying",
			want.Depth, want.Mode, want.MaxInsts, got.Depth, got.Mode, got.MaxInsts)
	}
	for _, name := range workload.Names {
		w, ok := want.Stats[name]
		if !ok {
			t.Errorf("%s: missing from golden file; -update after verifying", name)
			continue
		}
		if g := got.Stats[name]; g != w {
			t.Errorf("%s: stats drifted from golden corpus:\ngolden  %+v\ncurrent %+v\n"+
				"If this change is intentional, regenerate with: go test -run TestGoldenStats -update .",
				name, w, g)
		}
	}
	for name := range want.Stats {
		if _, ok := got.Stats[name]; !ok {
			t.Errorf("golden file has unknown benchmark %q", name)
		}
	}
}

// TestGoldenStatsReplayIdentical closes the loop between the two caching
// tiers at the golden configuration: stats computed through the shared
// trace store must equal the live-VM stats pinned in the corpus check
// above. If this fails while TestGoldenStats passes, the trace replay path
// — not the timing model — has drifted.
func TestGoldenStatsReplayIdentical(t *testing.T) {
	store := sim.NewTraceStore(0)
	eng := &sim.Engine{Traces: store}
	live := computeGolden(t)
	mx, err := sim.RunMatrix(context.Background(), eng, workload.Names, []int{live.Depth},
		[]cpu.PredMode{cpu.PredARVICurrent}, live.MaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.Names {
		replayed, ok := mx.Lookup(name, live.Depth, cpu.PredARVICurrent)
		if !ok {
			t.Fatalf("%s: missing cell", name)
		}
		if replayed != live.Stats[name] {
			t.Errorf("%s: trace replay diverged from live VM:\nlive   %+v\nreplay %+v",
				name, live.Stats[name], replayed)
		}
	}
	if store.Recorded() != int64(len(workload.Names)) {
		t.Errorf("recorded %d traces, want %d", store.Recorded(), len(workload.Names))
	}
}
