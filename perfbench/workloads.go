package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadSpec is one benchmark workload. Every workload ends with the
// same warm serve mix against the daemon its cold phase left behind, so
// every end-to-end metric is measured on every workload; what differs is
// the cold phase and the deployment.
type workloadSpec struct {
	name string
	// prefill: set-up runs the cold 96-cell matrix once into a template
	// cache directory, and every deployment starts from a copy of it.
	prefill bool
	// cluster: deploy a coordinator plus two workers instead of one daemon.
	cluster bool
	// cold lists the cold requests one cold pass sends, in order, to a
	// freshly deployed daemon; nil means no cold phase.
	cold func(budget) []op
	// sims is the exact Engine.Simulated total (summed over every daemon)
	// after one cold pass; warm requests must leave it unchanged.
	sims int64
}

var (
	nCells   = int64(len(workload.Names) * len(sim.Depths) * len(sim.ModeNames))
	nStudies = int64(len(workload.MixNames)*len(sim.SMTPolicies) + len(workload.Names)*len(sim.VPredPredictors)*2)
)

var workloads = []*workloadSpec{
	{name: "matrix-cold", cold: func(b budget) []op { return []op{matrixOp(b)} }, sims: nCells},
	{name: "serve-warm", prefill: true, sims: 0},
	{name: "cluster-cold", cluster: true, cold: func(b budget) []op { return []op{matrixOp(b)} }, sims: nCells},
	{name: "studies-cold", prefill: true, cold: func(b budget) []op { return []op{smtOp(b), vpredOp(b)} }, sims: nStudies},
}

func lookupWorkload(name string) (*workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// env is the state of one benchmark run.
type env struct {
	o        options
	w        *workloadSpec
	base     string // per-run work directory, removed at the end
	ck       *checker
	cl       *client
	template string // prefilled cache directory, "" without prefill
	ndirs    int
}

// fresh creates a new empty directory under the run's work directory.
func (e *env) fresh(name string) (string, error) {
	e.ndirs++
	d := filepath.Join(e.base, fmt.Sprintf("%s-%d", name, e.ndirs))
	return d, os.MkdirAll(d, 0o755)
}

// freshCache creates a cache directory, seeded from the template when the
// workload has one.
func (e *env) freshCache() (string, error) {
	d, err := e.fresh("cache")
	if err != nil || e.template == "" {
		return d, err
	}
	return d, copyDir(e.template, d)
}

func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// freshDirs creates a daemon's directories: a cache directory (seeded
// from the template when the workload has one) and an empty trace one.
func (e *env) freshDirs() (dirs, error) {
	cd, err := e.freshCache()
	if err != nil {
		return dirs{}, err
	}
	td, err := e.fresh("traces")
	return dirs{cd, td}, err
}

// deploy prepares fresh directories, then starts the workload's daemons
// with the observer's instrumentation (none when obs is nil). It returns
// the time the daemons started being built, after the directories were
// ready, so set-up timing excludes the directory copy.
func (e *env) deploy(obs *observer) (*deployment, time.Time, error) {
	if e.w.cluster {
		ds := map[string]dirs{}
		for _, role := range append([]string{"coord"}, workerRoles...) {
			d, err := e.freshDirs()
			if err != nil {
				return nil, time.Time{}, err
			}
			ds[role] = d
		}
		t0 := time.Now()
		dep, err := startCluster(ds, obs)
		return dep, t0, err
	}
	d, err := e.freshDirs()
	if err != nil {
		return nil, time.Time{}, err
	}
	t0 := time.Now()
	n, err := startNode("solo", d, runtime.GOMAXPROCS(0), obs, nil, nil)
	if err != nil {
		return nil, t0, err
	}
	return &deployment{front: n}, t0, nil
}

// send issues one request and judges its answer.
func (e *env) send(ctx context.Context, base string, o op) (time.Duration, bool) {
	status, body, d, err := e.cl.do(ctx, base, o)
	return d, e.ck.judge(o, status, body, err)
}

// prefill runs the cold matrix once into a fresh empty cache directory,
// which becomes the template every later deployment starts from. It
// returns the sweep's wall time.
func (e *env) prefill(ctx context.Context, obs *observer) (time.Duration, error) {
	e.template = "" // start empty, even when an earlier prefill made one
	dep, _, err := e.deploy(obs)
	if err != nil {
		return 0, err
	}
	d, _ := e.send(ctx, dep.front.url, matrixOp(e.o.budget))
	if got := dep.simulated(); got != nCells {
		e.ck.fail("prefill: simulated %d cells, want %d", got, nCells)
	}
	e.template = dep.front.eng.Cache.Dir()
	return d, dep.close()
}

// measureSetup brings the workload's deployment up and down o.setupN
// times and returns the median bring-up time: build the daemons over the
// workload's starting directories, then GET /healthz and GET /v1/bench
// (the catalog a client reads first) from the front daemon.
func (e *env) measureSetup(ctx context.Context) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < e.o.setupN; i++ {
		dep, t0, err := e.deploy(nil)
		if err != nil {
			return 0, err
		}
		e.send(ctx, dep.front.url, getOp("healthz", "/healthz"))
		e.send(ctx, dep.front.url, getOp("catalog", "/v1/bench"))
		ds = append(ds, time.Since(t0))
		if err := dep.close(); err != nil {
			return 0, err
		}
	}
	return medianDur(ds), nil
}

// coldPass sends the workload's cold requests to a fresh deployment and
// checks the exact counts one pass must produce. It returns the wall
// time of the cold requests.
//
// In the cluster, the pass then (untimed) sends every cell's /v1/run to
// the coordinator once. The coordinator serves each from its workers
// through the cache-peer tier and keeps a local copy, so its cache ends
// up holding every cell, as a solo daemon's does after its cold pass.
// Without this, the warm phase's 96 first fetches sit right at the p95
// of its /v1/run samples, and that figure flips between runs.
func (e *env) coldPass(ctx context.Context, dep *deployment) time.Duration {
	t0 := time.Now()
	for _, o := range e.w.cold(e.o.budget) {
		e.send(ctx, dep.front.url, o)
	}
	d := time.Since(t0)
	e.checkCounts(dep, "cold pass")
	if e.w.cluster {
		if got := dep.front.coord.RemoteJobs(); got != nCells {
			e.ck.fail("%s: remote jobs %d after the cold pass, want %d", e.w.name, got, nCells)
		}
		for _, c := range cells() {
			e.send(ctx, dep.front.url, runOp(c, e.o.budget))
		}
	}
	return d
}

// checkCounts asserts the exact counts that hold after a cold pass and
// stay unchanged by warm requests:
//   - every workload: Engine.Simulated summed over the daemons equals the
//     workload's cell count (96 matrix cells, 44 study cells, 0 for
//     serve-warm);
//   - matrix-cold: one trace recording per benchmark (8);
//   - cluster-cold: the coordinator's own engine simulated nothing, and
//     no job was retried or fell back to the coordinator.
func (e *env) checkCounts(dep *deployment, when string) {
	if got := dep.simulated(); got != e.w.sims {
		e.ck.fail("%s: %s: simulated %d, want %d", e.w.name, when, got, e.w.sims)
	}
	switch e.w.name {
	case "matrix-cold":
		if got, want := dep.front.eng.Traces.Recorded(), int64(len(workload.Names)); got != want {
			e.ck.fail("%s: %s: recorded %d traces, want %d", e.w.name, when, got, want)
		}
	case "cluster-cold":
		c := dep.front.coord
		if c.LocalJobs() != 0 || c.RetriedJobs() != 0 || dep.front.eng.Simulated() != 0 {
			e.ck.fail("%s: %s: local jobs %d, retried %d, coordinator simulated %d; want 0, 0, 0",
				e.w.name, when, c.LocalJobs(), c.RetriedJobs(), dep.front.eng.Simulated())
		}
	}
}
