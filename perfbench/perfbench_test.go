package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkJSON(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs every workload, untraced and traced, at the smoke budget
// and asserts the run is correct and emits exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	f := readBenchmarkJSON(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			o := defaultOptions()
			o.workload, o.trace, o.budget = w.Name, traced, smokeBudget
			o.seconds, o.warm, o.traceN, o.setupN = 0.01, 0.01, 12, 2
			o.workdir = t.TempDir()
			res, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, failed %d of %d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s (traced %v): metric %s missing", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s in %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestCorruptedAnswerCaught takes a real /v1/run answer and checks that
// the correctness check rejects it once a single byte is flipped, both
// against the stored digest and against the first answer for the key.
func TestCorruptedAnswerCaught(t *testing.T) {
	want, err := loadDigests(smokeBudget)
	if err != nil || want == nil {
		t.Fatalf("digests for %s: %v", smokeBudget, err)
	}
	o := defaultOptions()
	o.budget, o.workdir = smokeBudget, t.TempDir()
	e := &env{o: o, w: &workloadSpec{name: "corrupt"}, base: o.workdir, ck: newChecker(want), cl: newClient()}
	defer e.cl.tr.CloseIdleConnections()
	dep, _, err := e.deploy(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.close()
	req := runOp(cells()[5], smokeBudget)
	status, body, _, err := e.cl.do(context.Background(), dep.front.url, req)
	if !e.ck.judge(req, status, body, err) {
		t.Fatalf("genuine answer rejected: %v", e.ck.problems)
	}
	bad := []byte(strings.Replace(string(body), "1", "2", 1))
	if string(bad) == string(body) {
		t.Fatal("answer has no digit to corrupt")
	}
	if e.ck.judge(req, status, bad, nil) {
		t.Error("corrupted answer passed the check")
	}
	fresh := newChecker(nil) // no stored digests: only the first-answer rule
	fresh.judge(req, status, body, nil)
	if fresh.judge(req, status, bad, nil) {
		t.Error("an answer differing from the first answer for its request passed")
	}
	if e.ck.failed != 1 || fresh.failed != 1 {
		t.Errorf("failed counts %d and %d, want 1 and 1", e.ck.failed, fresh.failed)
	}
}

// TestStageShares profiles a real engine replay and checks the stage
// attribution reads the profile: every stage share is a fraction and the
// listed stages account for most of the engine loop.
func TestStageShares(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles about a second of simulation")
	}
	o := defaultOptions()
	o.budget, o.workdir = budget{insts: 20000, smtCycles: 2000}, t.TempDir()
	e := &env{o: o, base: o.workdir, ck: newChecker(nil)}
	m := map[string]metric{}
	decs, err := traceProbe(context.Background(), e, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpuProbe(context.Background(), e, decs, m); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range stages {
		v := m["cpu.stage."+s+"_share"].Value
		if v < 0 || v > 1 {
			t.Errorf("%s share %v out of [0, 1]", s, v)
		}
		sum += v
	}
	if sum < 0.5 || sum > 1.0001 {
		t.Errorf("stage shares sum to %v, want most of the engine loop", sum)
	}
}
