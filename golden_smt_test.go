package repro

import (
	"context"

	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/smt"
	"repro/internal/workload"
)

const goldenSMTPath = "testdata/golden_smt.json"

// goldenSMTFile pins the SMT fetch-policy study at a fixed small cycle
// budget, per (mix × policy) cell. Any silent drift in the SMT model, the
// DDT, or the workload generators fails tier-1 before it can poison
// cached study results. Regenerate intentional changes with:
//
//	go test -run TestGoldenSMT -update .
type goldenSMTFile struct {
	Note      string                             `json:"note"`
	MaxCycles int64                              `json:"maxCycles"`
	Stats     map[string]map[string]sim.SMTStats `json:"stats"` // mix → policy → stats
}

func computeGoldenSMT(t *testing.T) goldenSMTFile {
	t.Helper()
	cfg := smt.DefaultConfig()
	cfg.MaxCycles = 20_000
	g := goldenSMTFile{
		Note:      "regenerate with: go test -run TestGoldenSMT -update .",
		MaxCycles: cfg.MaxCycles,
		Stats:     make(map[string]map[string]sim.SMTStats, len(workload.MixNames)),
	}
	eng := &sim.Engine{}
	grid, err := eng.RunSMTGrid(context.Background(), workload.Mixes(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range workload.Mixes() {
		g.Stats[m.Name] = make(map[string]sim.SMTStats, len(sim.SMTPolicies))
		for _, p := range sim.SMTPolicies {
			st, ok := grid.Lookup(m.Name, p)
			if !ok {
				t.Fatalf("%s/%s: missing cell", m.Name, p)
			}
			g.Stats[m.Name][p.String()] = st
		}
	}
	return g
}

func TestGoldenSMT(t *testing.T) {
	got := computeGoldenSMT(t)

	if *updateGolden {
		writeGoldenFile(t, goldenSMTPath, got)
		return
	}

	raw, err := os.ReadFile(goldenSMTPath)
	if err != nil {
		t.Fatalf("%v (generate it with: go test -run TestGoldenSMT -update .)", err)
	}
	var want goldenSMTFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if want.MaxCycles != got.MaxCycles {
		t.Fatalf("golden config drifted: file budget %d vs test %d; -update after verifying",
			want.MaxCycles, got.MaxCycles)
	}
	for mix, policies := range got.Stats {
		for pol, g := range policies {
			w, ok := want.Stats[mix][pol]
			if !ok {
				t.Errorf("%s/%s: missing from golden file; -update after verifying", mix, pol)
				continue
			}
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s/%s: stats drifted from golden corpus:\ngolden  %+v\ncurrent %+v\n"+
					"If this change is intentional, regenerate with: go test -run TestGoldenSMT -update .",
					mix, pol, w, g)
			}
		}
	}
	for mix, policies := range want.Stats {
		for pol := range policies {
			if _, ok := got.Stats[mix][pol]; !ok {
				t.Errorf("golden file has unknown cell %s/%s", mix, pol)
			}
		}
	}
}

// writeGoldenFile is the shared -update writer for the golden corpora.
func writeGoldenFile(t *testing.T, path string, v any) {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
