package server

// Chaos suites for the distributed tier, over the cluster harness in
// cluster_test.go. Each test injects one failure — a worker dead before
// the sweep, a worker killed mid-sweep, a worker whose cache disk is
// broken, every worker gone, a coordinator deadline expiring — and pins
// the recovery contract: the merged response is either byte-identical
// to single-node output or a clean joined error, no cell is ever
// double-counted, worker loss costs at most the lost cells' recompute,
// and no goroutines leak.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/storage"
)

// chaosMatrixBody is a 16-cell grid (2 benches x 2 depths x 4 modes):
// big enough that both workers get jobs, small enough to re-run under
// -race in every chaos scenario.
const chaosMatrixBody = `{"benches":["li","gcc"],"depths":[20,40],"max_insts":5000}`

const chaosMatrixCells = 16

// TestChaosDistDeadWorkerFromStart points a coordinator at one live and
// one never-started worker. Every job placed on the corpse must retry
// onto the survivor: the sweep stays byte-identical, each cell is
// computed exactly once, and the retry counter shows the reroutes.
func TestChaosDistDeadWorkerFromStart(t *testing.T) {
	want := singleNodeBaseline(t, "/v1/matrix", chaosMatrixBody)
	cl := newCluster(t, 2, nil)
	cl.workers[0].ts.Close() // dead before the first job

	resp, got := post(t, cl.coord.ts.URL+"/v1/matrix", chaosMatrixBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep with a dead worker: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sweep with a dead worker not byte-identical to single-node")
	}
	assertNoDuplicateCells(t, "dead worker", got)
	// The dead worker computed nothing, so rerouting must cost zero extra
	// compute: exactly one simulation per cell, all on the survivor.
	if n := cl.totalSimulated(); n != chaosMatrixCells {
		t.Errorf("cluster simulated %d cells, want exactly %d", n, chaosMatrixCells)
	}
	if n := cl.workers[1].eng.Simulated(); n != chaosMatrixCells {
		t.Errorf("surviving worker simulated %d cells, want %d", n, chaosMatrixCells)
	}
	if cl.co.RetriedJobs() == 0 {
		t.Error("no jobs recorded as retried despite a dead worker")
	}
}

// TestChaosDistWorkerKilledMidSweep severs a worker's connections while
// its jobs are in flight. The coordinator must reroute exactly those
// jobs: the response is byte-identical, no cell appears twice, and any
// extra compute is bounded by the retry count (a cell that finished
// right as its connection died is recomputed once elsewhere, nothing
// more). Ends with a goroutine-hygiene check over the whole episode.
func TestChaosDistWorkerKilledMidSweep(t *testing.T) {
	want := singleNodeBaseline(t, "/v1/matrix", chaosMatrixBody)
	http.DefaultClient.CloseIdleConnections()
	before := runtime.NumGoroutine()

	cl := newCluster(t, 2, nil)
	victim := cl.workers[0]
	gateHit := make(chan struct{})
	killed := make(chan struct{})
	var once sync.Once
	victim.srv.testGate = func(string) {
		once.Do(func() { close(gateHit) })
		<-killed
	}

	swept := make(chan []byte, 1)
	status := make(chan int, 1)
	go func() {
		resp, b := post(t, cl.coord.ts.URL+"/v1/matrix", chaosMatrixBody)
		status <- resp.StatusCode
		swept <- b
	}()

	select {
	case <-gateHit:
	case <-time.After(10 * time.Second):
		t.Fatal("no job ever reached the victim worker")
	}
	// Sever every in-flight connection, then release the gated handlers
	// into their already-dead requests. The worker process itself stays
	// up — a crashed-and-restarted node the coordinator may reuse.
	victim.ts.CloseClientConnections()
	close(killed)

	if st := <-status; st != http.StatusOK {
		t.Fatalf("sweep across a mid-sweep kill: status %d", st)
	}
	got := <-swept
	if !bytes.Equal(got, want) {
		t.Fatal("sweep across a mid-sweep kill not byte-identical to single-node")
	}
	assertNoDuplicateCells(t, "mid-sweep kill", got)
	if cl.co.RetriedJobs() == 0 {
		t.Error("no jobs recorded as retried despite severed connections")
	}
	// Worker loss costs only the lost cells' recompute: every simulation
	// beyond one-per-cell must be accounted for by a rerouted job.
	extra := cl.totalSimulated() - chaosMatrixCells
	if extra < 0 {
		t.Errorf("cluster simulated %d cells, fewer than the %d in the grid", cl.totalSimulated(), chaosMatrixCells)
	}
	if extra > cl.co.RetriedJobs() {
		t.Errorf("%d extra simulations exceed %d retried jobs: a cell was double-computed without a failure", extra, cl.co.RetriedJobs())
	}

	// Hygiene: tear the cluster down and insist the goroutine count
	// settles back, so severed connections and rerouted jobs leaked
	// nothing.
	cl.close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked across the kill: %d before, %d after teardown", before, n)
	}
}

// TestChaosDistFaultyWorkerCache breaks one worker's cache disk (every
// write fails) and sweeps. Cache trouble is soft by contract: the
// degraded worker still computes and answers, the sweep stays
// byte-identical with no double-counted cells, and a warm repeat is
// byte-identical too even though the broken disk retained nothing.
func TestChaosDistFaultyWorkerCache(t *testing.T) {
	want := singleNodeBaseline(t, "/v1/matrix", chaosMatrixBody)

	ffs := storage.NewFaultFS(storage.OS{})
	cache, err := sim.OpenCacheFS(filepath.Join(t.TempDir(), "cache"), ffs, storage.NewBreaker(2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	traces := sim.NewTraceStore(0)
	faultyEng := &sim.Engine{Cache: cache, Traces: traces}
	faultyTS := httptest.NewServer(New(Config{Engine: faultyEng, DefaultInsts: testInsts}))
	t.Cleanup(faultyTS.Close)
	ffs.Break() // writes, renames and mkdirs now fail; reads still work

	cl := newCluster(t, 1, nil)
	cl.co.AddWorker(faultyTS.URL)

	resp, got := post(t, cl.coord.ts.URL+"/v1/matrix", chaosMatrixBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep with a write-broken worker cache: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sweep with a write-broken worker cache not byte-identical")
	}
	assertNoDuplicateCells(t, "faulty cache", got)
	// Until the worker's circuit breaker trips, a failed write-back
	// surfaces as a request error (the single-node contract), so the
	// coordinator reroutes that job: extra compute is allowed but must
	// be accounted for by retries, never by double-counting.
	total := cl.totalSimulated() + faultyEng.Simulated()
	if total < chaosMatrixCells {
		t.Errorf("cluster simulated %d cells, fewer than the %d in the grid", total, chaosMatrixCells)
	}
	if extra := total - chaosMatrixCells; extra > cl.co.RetriedJobs() {
		t.Errorf("%d extra simulations exceed %d retried jobs", extra, cl.co.RetriedJobs())
	}
	if faultyEng.Simulated() == 0 {
		t.Error("degraded worker received no jobs; the fault never exercised the contract")
	}
	if ffs.Injected() == 0 {
		t.Error("fault filesystem injected nothing; the cache never touched the broken disk")
	}

	resp, warm := post(t, cl.coord.ts.URL+"/v1/matrix", chaosMatrixBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(warm, want) {
		t.Fatalf("warm sweep over the degraded cluster drifted (status %d)", resp.StatusCode)
	}
}

// TestChaosDistAllWorkersDown closes every worker. The coordinator must
// finish the sweep itself — byte-identical, every job recorded as a
// local fallback — rather than fail it.
func TestChaosDistAllWorkersDown(t *testing.T) {
	want := singleNodeBaseline(t, "/v1/matrix", chaosMatrixBody)
	cl := newCluster(t, 2, nil)
	cl.workers[0].ts.Close()
	cl.workers[1].ts.Close()

	resp, got := post(t, cl.coord.ts.URL+"/v1/matrix", chaosMatrixBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep with every worker down: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("local-fallback sweep not byte-identical to single-node")
	}
	if n := cl.coord.eng.Simulated(); n != chaosMatrixCells {
		t.Errorf("coordinator simulated %d cells locally, want all %d", n, chaosMatrixCells)
	}
	if n := cl.co.LocalJobs(); n != chaosMatrixCells {
		t.Errorf("local-fallback jobs = %d, want %d", n, chaosMatrixCells)
	}
}

// TestChaosDistCoordinatorDeadline stalls a worker past the
// coordinator's request deadline and asserts the distributed sweep
// fails the same way a local one does: a clean 504 with a JSON error
// envelope, never a hung request — and the cluster still serves once
// the stall clears.
func TestChaosDistCoordinatorDeadline(t *testing.T) {
	release := make(chan struct{})
	cl := newCluster(t, 2, nil)
	// Same package: tune the deadline directly before any traffic.
	cl.coord.srv.cfg.RequestTimeout = 200 * time.Millisecond
	for _, w := range cl.workers {
		w.srv.testGate = func(string) { <-release }
	}

	resp, body := post(t, cl.coord.ts.URL+"/v1/matrix", chaosMatrixBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled distributed sweep: status %d: %s", resp.StatusCode, body)
	}
	var e dist.ErrorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("stalled sweep did not return a JSON error envelope: %s", body)
	}
	close(release)

	// The deadline killed the request, not the cluster: the same grid
	// sweeps clean afterwards. No coordinator request is in flight here,
	// so resetting the deadline is race-free.
	cl.coord.srv.cfg.RequestTimeout = 0
	resp, got := post(t, cl.coord.ts.URL+"/v1/matrix", chaosMatrixBody)
	want := singleNodeBaseline(t, "/v1/matrix", chaosMatrixBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("cluster did not recover after the deadline episode (status %d)", resp.StatusCode)
	}
}
