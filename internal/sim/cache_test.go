package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/smt"
	"repro/internal/workload"
)

var cacheSpec = Spec{Bench: "compress", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 5000}

func openCache(t *testing.T) *Cache {
	t.Helper()
	c, err := OpenCache(filepath.Join(t.TempDir(), "simcache"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheHitMiss(t *testing.T) {
	c := openCache(t)
	if _, ok := c.Get(cacheSpec); ok {
		t.Fatal("empty cache reported a hit")
	}
	eng := &Engine{Cache: c}
	first, err := eng.Run(context.Background(), []Spec{cacheSpec})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Simulated() != 1 || eng.CacheHits() != 0 {
		t.Errorf("cold run: simulated %d, hits %d", eng.Simulated(), eng.CacheHits())
	}
	second, err := eng.Run(context.Background(), []Spec{cacheSpec})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Simulated() != 1 || eng.CacheHits() != 1 {
		t.Errorf("warm run: simulated %d, hits %d", eng.Simulated(), eng.CacheHits())
	}
	if first[0].Stats != second[0].Stats {
		t.Errorf("cache returned different stats:\n%+v\n%+v", first[0].Stats, second[0].Stats)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Errorf("cache entries = %d, err %v", n, err)
	}
}

func TestCacheCorruptEntryRecovers(t *testing.T) {
	c := openCache(t)
	eng := &Engine{Cache: c}
	if _, err := eng.Run(context.Background(), []Spec{cacheSpec}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), c.Key(cacheSpec)+".json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(cacheSpec); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry not removed")
	}
	// The engine heals the cache: re-simulates, re-persists, then hits.
	if _, err := eng.Run(context.Background(), []Spec{cacheSpec}); err != nil {
		t.Fatal(err)
	}
	if eng.Simulated() != 2 {
		t.Errorf("corrupt entry should force a re-simulation, simulated = %d", eng.Simulated())
	}
	if _, ok := c.Get(cacheSpec); !ok {
		t.Error("cache not repaired after corrupt entry")
	}
}

func TestCacheRejectsMismatchedContent(t *testing.T) {
	c := openCache(t)
	eng := &Engine{Cache: c}
	other := cacheSpec
	other.ConfThreshold = 12
	if _, err := eng.Run(context.Background(), []Spec{other}); err != nil {
		t.Fatal(err)
	}
	// Copy the other spec's entry over cacheSpec's slot: the embedded key
	// no longer matches the file name, so Get must refuse it.
	b, err := os.ReadFile(filepath.Join(c.Dir(), c.Key(other)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dir(), c.Key(cacheSpec)+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(cacheSpec); ok {
		t.Error("entry with mismatched key served as a hit")
	}

	// Cross-kind: a study entry's bytes under a spec's key, and a spec
	// entry's bytes under a study's key, each relabelled with its slot's
	// key so it passes the key check. Both must read as misses and heal.
	study := SMTStudy{Mix: workload.MixByName("ijpeg+li"), Policy: smt.ICOUNT, Config: testSMTConfig()}
	if _, err := RunStudies[SMTStudy, SMTStats](context.Background(), eng, []SMTStudy{study}); err != nil {
		t.Fatal(err)
	}
	studyKey, err := StudyKey(study)
	if err != nil {
		t.Fatal(err)
	}
	relabel := func(from, to string) {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(c.Dir(), from+".json"))
		if err != nil {
			t.Fatal(err)
		}
		b = bytes.Replace(b, []byte(from), []byte(to), 1)
		if err := os.WriteFile(filepath.Join(c.Dir(), to+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	relabel(studyKey, c.Key(cacheSpec))
	if _, ok := c.Get(cacheSpec); ok {
		t.Error("study entry served as a spec hit")
	}
	relabel(c.Key(other), studyKey)
	var st SMTStats
	if ok, err := c.GetStudy(study, &st); ok || err != nil {
		t.Errorf("spec entry served as a study hit (ok=%v err=%v)", ok, err)
	}
	for _, key := range []string{c.Key(cacheSpec), studyKey} {
		if _, err := os.Stat(filepath.Join(c.Dir(), key+".json")); !os.IsNotExist(err) {
			t.Errorf("cross-kind entry %.16s... not removed", key)
		}
	}
	simulated := eng.Simulated()
	if _, err := eng.Run(context.Background(), []Spec{cacheSpec}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunStudies[SMTStudy, SMTStats](context.Background(), eng, []SMTStudy{study}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Simulated() - simulated; got != 2 {
		t.Errorf("healing simulated %d cells, want 2", got)
	}
	if _, ok := c.Get(cacheSpec); !ok {
		t.Error("spec entry not repaired")
	}
	if ok, _ := c.GetStudy(study, &st); !ok {
		t.Error("study entry not repaired")
	}
}

// TestCacheEntryFormatMigration pins how entries written before the
// single entry format meet it: a branch-prediction entry without a kind
// fails the kind check and heals with one recompute, and a study entry,
// whose identity field was named "study", still decodes.
func TestCacheEntryFormatMigration(t *testing.T) {
	c := openCache(t)
	write := func(key string, v any) {
		t.Helper()
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(c.Dir(), key+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	key := c.Key(cacheSpec)
	st := cpu.Stats{Insts: 5000, Cycles: 7001}
	write(key, struct {
		Version int       `json:"version"`
		Key     string    `json:"key"`
		Sum     string    `json:"sum"`
		Spec    Spec      `json:"spec"`
		Stats   cpu.Stats `json:"stats"`
	}{cacheVersion, key, statsSum(st), cacheSpec, st})
	if got, ok := c.Get(cacheSpec); ok || got != (cpu.Stats{}) {
		t.Errorf("kindless bpred entry served: ok=%v %+v", ok, got)
	}
	if _, err := os.Stat(filepath.Join(c.Dir(), key+".json")); !os.IsNotExist(err) {
		t.Error("kindless bpred entry not removed")
	}

	study := SMTStudy{Mix: workload.MixByName("ijpeg+li"), Policy: smt.ICOUNT, Config: testSMTConfig()}
	skey, id, err := studyKey(study)
	if err != nil {
		t.Fatal(err)
	}
	want := SMTStats{Cycles: 100, TotalInsts: 150, PerThread: []int64{100, 50}, PeakWindow: 7}
	write(skey, struct {
		Version int             `json:"version"`
		Key     string          `json:"key"`
		Sum     string          `json:"sum"`
		Kind    string          `json:"kind"`
		Study   json.RawMessage `json:"study"`
		Stats   SMTStats        `json:"stats"`
	}{cacheVersion, skey, statsSum(want), "smt", id, want})
	var got SMTStats
	if ok, err := c.GetStudy(study, &got); !ok || err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("study entry of the older format: ok=%v err=%v %+v, want %+v", ok, err, got, want)
	}
}

func TestResumedRunSimulatesOnlyMissingCells(t *testing.T) {
	c := openCache(t)
	cold := &Engine{Cache: c}
	if _, err := RunMatrix(context.Background(), cold, []string{"gcc"}, []int{20}, Modes[:2], 5000); err != nil {
		t.Fatal(err)
	}
	if cold.Simulated() != 2 {
		t.Fatalf("cold run simulated %d cells, want 2", cold.Simulated())
	}
	// A fresh engine over the same cache, asked for an enlarged grid,
	// must only simulate the cells the cold run never produced.
	warm := &Engine{Cache: c}
	mx, err := RunMatrix(context.Background(), warm, []string{"gcc"}, []int{20}, Modes, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated() != 2 || warm.CacheHits() != 2 {
		t.Errorf("resumed run: simulated %d (want 2), hits %d (want 2)",
			warm.Simulated(), warm.CacheHits())
	}
	if mx.Len() != 4 {
		t.Errorf("resumed matrix holds %d cells, want 4", mx.Len())
	}
}

func TestCacheKeySeparatesConfigurations(t *testing.T) {
	base := cacheSpec
	variants := []Spec{
		{Bench: "gcc", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 5000},
		{Bench: "compress", Depth: 40, Mode: cpu.PredARVICurrent, MaxInsts: 5000},
		{Bench: "compress", Depth: 20, Mode: cpu.PredBaseline2Lvl, MaxInsts: 5000},
		{Bench: "compress", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 9000},
		{Bench: "compress", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 5000, CutAtLoads: true},
		{Bench: "compress", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 5000, ConfThreshold: 3},
	}
	baseKey := CacheKey(base, base.Config())
	if baseKey != CacheKey(base, base.Config()) {
		t.Fatal("cache key not deterministic")
	}
	seen := map[string]Spec{baseKey: base}
	for _, v := range variants {
		k := CacheKey(v, v.Config())
		if k == baseKey {
			t.Errorf("spec %+v collides with base key", v)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("specs %+v and %+v share a key", prev, v)
		}
		seen[k] = v
	}
}

func TestCacheKeyUnifiesSpecAliases(t *testing.T) {
	// ConfThreshold 0 means "paper default", which is 8: the two specs
	// derive identical configs and must share one cache entry.
	implicit := cacheSpec
	explicit := cacheSpec
	explicit.ConfThreshold = 8
	if implicit.Config() != explicit.Config() {
		t.Fatal("test premise broken: default ConfThreshold is no longer 8")
	}
	if CacheKey(implicit, implicit.Config()) != CacheKey(explicit, explicit.Config()) {
		t.Error("spec aliases with identical configs must share a cache key")
	}
}

func TestCachePutFailureKeepsResult(t *testing.T) {
	c := openCache(t)
	// Break the cache between open and put (as a vanished mount or
	// deleted directory would): Put's temp-file creation must fail while
	// the simulation itself succeeds. A regular file in the directory's
	// place fails for root too, unlike permission bits.
	if err := os.Remove(c.Dir()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Dir(), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Cache: c}
	res, err := eng.Run(context.Background(), []Spec{cacheSpec})
	if err == nil {
		t.Error("cache persistence failure must surface in the joined error")
	}
	if len(res) != 1 || res[0].Stats.Insts == 0 {
		t.Fatalf("completed simulation discarded on cache failure: %v", res)
	}
	if eng.Simulated() != 1 {
		t.Errorf("simulated = %d", eng.Simulated())
	}
}

func TestOpenCacheRejectsEmptyDir(t *testing.T) {
	if _, err := OpenCache(""); err == nil {
		t.Error("OpenCache(\"\") must fail")
	}
}

// TestCacheKeyValuesPinned pins literal key values. Keys name cache files,
// place cluster jobs (rendezvous over the key), coalesce requests and
// name the entries a coordinator keeps, so a refactor that silently
// moves every key would cold-start every deployed cache and reshuffle
// cluster placement while passing the relative key tests above.
func TestCacheKeyValuesPinned(t *testing.T) {
	spec := Spec{Bench: "gcc", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 250000}
	smtStudyKey, err := StudyKey(SMTStudy{Mix: workload.MixByName("ijpeg+li"), Policy: smt.ICOUNT, Config: smt.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	vpKey, err := StudyKey(VPredStudy{Bench: "gcc", Predictor: "stride", Selective: true, Params: DefaultVPredParams(250000)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"CacheKey gcc/20/arvi-current/250000", CacheKey(spec, spec.Config()), "470e4214211763c826ddfcd512e63061f0c20596d76e06f218f7b490c51a6d6a"},
		{"StudyKey smt ijpeg+li/ICOUNT", smtStudyKey, "8d590458d695a735a34f2c7d4fd8f24885b58bfe1492d99429ed5713eea3a3f3"},
		{"StudyKey vpred gcc/stride/selective", vpKey, "ee2126df2d048ed00bae89a92e017a3ca9af4a5d79a842e4e44cbdb241388a50"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}
