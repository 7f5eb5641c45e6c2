package server

// In-process cluster harness: one coordinator daemon plus N worker
// daemons, each a full Server over its own temp cache, wired together
// exactly as `arvid -role coordinator -workers-list ...` would. The
// suites here pin the distribution tentpole's headline contract — a
// distributed sweep's merged JSON is byte-identical to the single-node
// rendering, cold and warm — plus worker registration, streaming, and
// where a coordinator's own /v1/run is answered from. TestChaosDist*
// (chaos_dist_test.go) reuses the same harness for the failure-mode half
// of the story.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/workload"
)

// clusterNode is one daemon (coordinator or worker) in the harness.
type clusterNode struct {
	srv *Server
	ts  *httptest.Server
	eng *sim.Engine
}

// cluster is a coordinator with its worker set.
type cluster struct {
	coord   clusterNode
	co      *dist.Coordinator
	workers []clusterNode
}

// newCluster builds nWorkers worker daemons and a coordinator pointed at
// them. tune (optional) adjusts the coordinator before any job runs.
// Retry backoff and cooldown are shrunk so chaos tests converge fast.
func newCluster(t *testing.T, nWorkers int, tune func(*dist.Coordinator)) *cluster {
	t.Helper()
	cl := &cluster{}
	urls := make([]string, nWorkers)
	for i := 0; i < nWorkers; i++ {
		s, ts, eng := newTestServer(t, nil)
		cl.workers = append(cl.workers, clusterNode{srv: s, ts: ts, eng: eng})
		urls[i] = ts.URL
	}
	cl.co = &dist.Coordinator{
		Backoff:  time.Millisecond,
		Cooldown: 100 * time.Millisecond,
		// One conn pool per cluster, torn down with the test, so the
		// goroutine-hygiene assertions see their own transport only.
		Client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}},
	}
	cl.co.SetWorkers(urls)
	if tune != nil {
		tune(cl.co)
	}
	s, ts, eng := newTestServer(t, func(c *Config) {
		c.Coordinator = cl.co
		cl.co.Local = c.Engine
	})
	cl.coord = clusterNode{srv: s, ts: ts, eng: eng}
	t.Cleanup(cl.close)
	return cl
}

// close tears the cluster down: transport first (so no new conns form),
// then every daemon. Idempotent, so tests may close early for goroutine
// accounting and still let the cleanup run.
func (cl *cluster) close() {
	if tr, ok := cl.co.Client.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	cl.coord.ts.Close()
	for _, w := range cl.workers {
		w.ts.Close()
	}
}

// totalSimulated sums actual simulations across every engine in the
// cluster — the compute-count the distribution contract bounds.
func (cl *cluster) totalSimulated() int64 {
	n := cl.coord.eng.Simulated()
	for _, w := range cl.workers {
		n += w.eng.Simulated()
	}
	return n
}

// singleNodeBaseline computes the golden single-node response bytes for
// one endpoint+body on a fresh solo server.
func singleNodeBaseline(t *testing.T, path, body string) []byte {
	t.Helper()
	_, ts, _ := newTestServer(t, nil)
	resp, b := post(t, ts.URL+path, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node %s: status %d: %s", path, resp.StatusCode, b)
	}
	return b
}

// matrixCellCoords extracts (bench, depth, mode) coordinates from a
// matrix response body, for duplicate detection.
func matrixCellCoords(t *testing.T, body []byte) []string {
	t.Helper()
	var mr sim.MatrixExport
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("matrix body: %v (%s)", err, body)
	}
	coords := make([]string, len(mr.Cells))
	for i, c := range mr.Cells {
		coords[i] = fmt.Sprintf("%s/%d/%s", c.Bench, c.Depth, c.Mode)
	}
	return coords
}

// assertNoDuplicateCells pins the never-double-counts contract on a
// merged matrix body.
func assertNoDuplicateCells(t *testing.T, label string, body []byte) {
	t.Helper()
	seen := make(map[string]bool)
	for _, c := range matrixCellCoords(t, body) {
		if seen[c] {
			t.Errorf("%s: cell %s appears twice in the merged response", label, c)
		}
		seen[c] = true
	}
}

// fullMatrixBody requests the full 96-cell grid (all benches × depths ×
// modes default in) at the test budget.
const fullMatrixBody = `{"max_insts":5000}`

// TestClusterMatrixByteIdenticalColdWarm is the tentpole's headline
// assertion: the full 96-cell matrix distributed over three workers is
// byte-identical to the single-node rendering, cold and warm, each cell
// is computed exactly once cluster-wide, the coordinator keeps every
// answer, and a warm repeat places no job and computes nothing
// anywhere.
func TestClusterMatrixByteIdenticalColdWarm(t *testing.T) {
	want := singleNodeBaseline(t, "/v1/matrix", fullMatrixBody)
	cl := newCluster(t, 3, nil)

	resp, got := post(t, cl.coord.ts.URL+"/v1/matrix", fullMatrixBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distributed matrix: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed matrix not byte-identical to single-node:\n got %d bytes\nwant %d bytes\n got: %.400s\nwant: %.400s", len(got), len(want), got, want)
	}
	assertNoDuplicateCells(t, "cold", got)
	if n := cl.totalSimulated(); n != 96 {
		t.Errorf("cold sweep simulated %d cells cluster-wide, want exactly 96", n)
	}
	if n := cl.coord.eng.Simulated(); n != 0 {
		t.Errorf("coordinator simulated %d cells itself with healthy workers, want 0", n)
	}
	for i, w := range cl.workers {
		if w.eng.Simulated() == 0 {
			t.Errorf("worker %d simulated nothing; rendezvous placement should spread 96 cells over 3 workers", i)
		}
	}
	if r := cl.co.RetriedJobs(); r != 0 {
		t.Errorf("healthy cluster retried %d jobs, want 0", r)
	}

	// The coordinator kept every worker answer in its own cache.
	assertKeptEntries(t, cl, 96)

	// Warm: byte-identical again, and answered from the coordinator's own
	// cache — no job placed, nothing re-simulated anywhere.
	cold := cl.snapshot()
	resp, warm := post(t, cl.coord.ts.URL+"/v1/matrix", fullMatrixBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm distributed matrix: status %d", resp.StatusCode)
	}
	if !bytes.Equal(warm, want) {
		t.Fatal("warm distributed matrix not byte-identical to single-node")
	}
	cl.assertUnchanged(t, "warm sweep", cold)
}

// clusterCounts is a snapshot of the counters a warm repeat must not
// move: jobs a worker answered, jobs the coordinator computed itself,
// and simulations cluster-wide.
type clusterCounts struct{ remote, local, simulated int64 }

func (cl *cluster) snapshot() clusterCounts {
	return clusterCounts{cl.co.RemoteJobs(), cl.co.LocalJobs(), cl.totalSimulated()}
}

// assertUnchanged fails unless the cluster's counters still read before.
func (cl *cluster) assertUnchanged(t *testing.T, label string, before clusterCounts) {
	t.Helper()
	if now := cl.snapshot(); now != before {
		t.Errorf("%s moved the counters: remote jobs %d -> %d, local jobs %d -> %d, simulated %d -> %d",
			label, before.remote, now.remote, before.local, now.local, before.simulated, now.simulated)
	}
}

// assertKeptEntries pins the coordinator's keep step: its cache holds
// exactly want entries, and each is byte for byte (Cache.Raw) the entry
// the worker that answered the cell wrote under the same key.
func assertKeptEntries(t *testing.T, cl *cluster, want int) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(cl.coord.eng.Cache.Dir(), "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != want {
		t.Errorf("coordinator cache holds %d entries, want %d", len(files), want)
	}
	for _, f := range files {
		key := strings.TrimSuffix(filepath.Base(f), ".json")
		kept, _ := cl.coord.eng.Cache.Raw(key)
		answered := false
		for i, w := range cl.workers {
			if b, ok := w.eng.Cache.Raw(key); ok {
				answered = true
				if !bytes.Equal(kept, b) {
					t.Errorf("kept entry %.16s differs from worker %d's:\n kept %s\n want %s", key, i, kept, b)
				}
			}
		}
		if !answered {
			t.Errorf("kept entry %.16s is on no worker", key)
		}
	}
}

// TestClusterStudiesByteIdentical pins byte-identity for both study
// grids and a rendered artifact, cold and warm, against single-node
// output, with every cell computed on the workers, kept by the
// coordinator, and answered from its cache when warm.
func TestClusterStudiesByteIdentical(t *testing.T) {
	fig5b, _ := sim.LookupArtifact("fig5b")
	cases := []struct {
		name, path, body string
		get              bool // a GET of path; body unused
		cells            int  // cells the request runs
	}{
		{name: "smt", path: "/v1/study/smt", body: `{"max_cycles":3000}`,
			cells: len(workload.MixNames) * len(sim.SMTPolicies)},
		{name: "vpred", path: "/v1/study/vpred", body: `{"max_insts":5000}`,
			cells: len(workload.Names) * len(sim.VPredPredictors) * 2},
		{name: "fig5b", path: "/v1/artifacts/fig5b?n=5000", get: true,
			cells: len(sim.ArtifactSpecs([]sim.Artifact{fig5b}, 5000, 20))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			do := func(base string) (*http.Response, []byte) {
				if tc.get {
					return get(t, base+tc.path)
				}
				return post(t, base+tc.path, tc.body)
			}
			_, solo, _ := newTestServer(t, nil)
			resp, want := do(solo.URL)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("single-node %s: status %d: %s", tc.name, resp.StatusCode, want)
			}
			cl := newCluster(t, 2, nil)
			resp, got := do(cl.coord.ts.URL)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("distributed %s: status %d: %s", tc.name, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("distributed %s not byte-identical to single-node:\n got: %.400s\nwant: %.400s", tc.name, got, want)
			}
			if n := cl.coord.eng.Simulated(); n != 0 {
				t.Errorf("coordinator simulated %d cells itself with healthy workers, want 0", n)
			}
			assertKeptEntries(t, cl, tc.cells)
			cold := cl.snapshot()
			resp, warmB := do(cl.coord.ts.URL)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(warmB, want) {
				t.Fatalf("warm distributed %s drifted (status %d)", tc.name, resp.StatusCode)
			}
			cl.assertUnchanged(t, "warm "+tc.name, cold)
		})
	}
}

// TestClusterStreamMatchesBlocking pins the streaming contract on both a
// solo daemon and a coordinator: the reassembled stream reproduces the
// blocking response's cells exactly and the trailer carries the totals.
func TestClusterStreamMatchesBlocking(t *testing.T) {
	body := `{"benches":["li","gcc"],"depths":[20],"max_insts":5000}`
	run := func(t *testing.T, baseURL string) {
		resp, blocking := post(t, baseURL+"/v1/matrix", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("blocking matrix: status %d: %s", resp.StatusCode, blocking)
		}
		var mr sim.MatrixExport
		if err := json.Unmarshal(blocking, &mr); err != nil {
			t.Fatal(err)
		}

		sresp, err := http.Post(baseURL+"/v1/matrix?stream=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer sresp.Body.Close()
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("stream: status %d", sresp.StatusCode)
		}
		if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("stream content type %q", ct)
		}
		results, trailer, err := dist.DecodeMatrixStream(sresp.Body)
		if err != nil {
			t.Fatalf("decode stream: %v", err)
		}
		if trailer.Cells != len(results) || trailer.Error != "" || trailer.MaxInsts != 5000 {
			t.Fatalf("trailer %+v for %d streamed cells", trailer, len(results))
		}
		// Completion order is nondeterministic; reassemble through the same
		// Matrix + Export path the blocking response used and compare the
		// rendered cells byte-for-byte.
		mx := &sim.Matrix{MaxInsts: 5000}
		for _, r := range results {
			mx.Add(r)
		}
		got, err := json.Marshal(mx.Export([]int{20}).Cells)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(mr.Cells)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reassembled stream differs from blocking response:\n got %s\nwant %s", got, want)
		}
	}
	t.Run("solo", func(t *testing.T) {
		_, ts, _ := newTestServer(t, nil)
		run(t, ts.URL)
	})
	t.Run("coordinator", func(t *testing.T) {
		cl := newCluster(t, 2, nil)
		run(t, cl.coord.ts.URL)
		// The stream repeated the blocking sweep's 8 cells, so it was
		// answered from the coordinator's own cache: every job and every
		// simulation counted is the blocking sweep's.
		cl.assertUnchanged(t, "warm stream", clusterCounts{remote: 8, simulated: 8})
	})
}

// TestClusterKeptEntryHeals corrupts one entry the coordinator kept:
// the decode gate rejects it, so that cell's job goes to its worker
// again (answered from the worker's cache, nothing simulated), the entry
// is rewritten with the worker's bytes, and the sweep stays
// byte-identical. Every other cell is still answered locally.
func TestClusterKeptEntryHeals(t *testing.T) {
	want := singleNodeBaseline(t, "/v1/matrix", chaosMatrixBody)
	cl := newCluster(t, 2, nil)
	resp, got := post(t, cl.coord.ts.URL+"/v1/matrix", chaosMatrixBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("cold sweep drifted (status %d)", resp.StatusCode)
	}
	spec := sim.Spec{Bench: "li", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 5000}
	key := sim.CacheKey(spec, spec.Config())
	path := filepath.Join(cl.coord.eng.Cache.Dir(), key+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("kept entry for %s: %v", spec, err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	before := cl.snapshot()
	resp, got = post(t, cl.coord.ts.URL+"/v1/matrix", chaosMatrixBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("sweep over a corrupted kept entry drifted (status %d)", resp.StatusCode)
	}
	before.remote++ // the corrupted cell, and only it, went to its worker
	cl.assertUnchanged(t, "healing sweep", before)
	assertKeptEntries(t, cl, chaosMatrixCells)
}

// TestClusterRunServedFromKeptEntries pins where a coordinator's own
// /v1/run is answered from. After a cold sweep through the coordinator,
// a /v1/run of each swept cell is answered from the entries it kept: no
// job is placed and nothing is simulated anywhere. A daemon's cache
// serves only that daemon, so a cell only a worker holds (a /v1/run sent
// to the worker directly) is simulated by the coordinator, exactly once.
func TestClusterRunServedFromKeptEntries(t *testing.T) {
	cl := newCluster(t, 2, nil)
	want := singleNodeBaseline(t, "/v1/matrix", chaosMatrixBody)
	resp, got := post(t, cl.coord.ts.URL+"/v1/matrix", chaosMatrixBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("cold sweep drifted (status %d)", resp.StatusCode)
	}
	assertKeptEntries(t, cl, chaosMatrixCells)

	cold := cl.snapshot()
	for _, spec := range sim.MatrixSpecs([]string{"li", "gcc"}, []int{20, 40}, sim.Modes, 5000) {
		run := fmt.Sprintf(`{"bench":%q,"depth":%d,"mode":%q,"max_insts":5000}`, spec.Bench, spec.Depth, spec.Mode)
		if resp, b := post(t, cl.coord.ts.URL+"/v1/run", run); resp.StatusCode != http.StatusOK {
			t.Fatalf("coordinator run %s: status %d: %s", spec, resp.StatusCode, b)
		}
	}
	cl.assertUnchanged(t, "coordinator runs of the swept cells", cold)

	run := `{"bench":"vortex","depth":60,"mode":"baseline","max_insts":5000}`
	resp, onWorker := post(t, cl.workers[0].ts.URL+"/v1/run", run)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker run: status %d: %s", resp.StatusCode, onWorker)
	}
	for i := 0; i < 2; i++ {
		resp, b := post(t, cl.coord.ts.URL+"/v1/run", run)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(b, onWorker) {
			t.Fatalf("coordinator run %d of the worker's cell drifted (status %d):\n got %s\nwant %s", i, resp.StatusCode, b, onWorker)
		}
		if n := cl.coord.eng.Simulated(); n != 1 {
			t.Errorf("after coordinator run %d of a cell only a worker held, the coordinator simulated %d cells, want 1", i, n)
		}
	}
}

// TestClusterSharedCacheDir runs two workers over one cache directory
// (the NFS-mount deployment the storage tier's atomic writes exist
// for): the cold sweep is byte-identical, and on the warm repeat either
// worker serves any cell straight from the shared store — zero
// recompute, even where rendezvous placement moved.
func TestClusterSharedCacheDir(t *testing.T) {
	want := singleNodeBaseline(t, "/v1/matrix", fullMatrixBody)
	shared := t.TempDir()
	var urls []string
	var engines []*sim.Engine
	for i := 0; i < 2; i++ {
		cache, err := sim.OpenCache(shared)
		if err != nil {
			t.Fatal(err)
		}
		traces := sim.NewTraceStore(0)
		eng := &sim.Engine{Cache: cache, Traces: traces}
		ts := httptest.NewServer(New(Config{Engine: eng, DefaultInsts: testInsts}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		engines = append(engines, eng)
	}
	co := &dist.Coordinator{Backoff: time.Millisecond}
	co.SetWorkers(urls)
	_, coordTS, coordEng := newTestServer(t, func(c *Config) {
		c.Coordinator = co
		co.Local = c.Engine
	})

	resp, got := post(t, coordTS.URL+"/v1/matrix", fullMatrixBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("shared-dir sweep drifted (status %d)", resp.StatusCode)
	}
	cold := engines[0].Simulated() + engines[1].Simulated() + coordEng.Simulated()
	if cold != 96 {
		t.Errorf("cold shared-dir sweep simulated %d cells, want 96", cold)
	}
	resp, warm := post(t, coordTS.URL+"/v1/matrix", fullMatrixBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(warm, want) {
		t.Fatalf("warm shared-dir sweep drifted (status %d)", resp.StatusCode)
	}
	if n := engines[0].Simulated() + engines[1].Simulated() + coordEng.Simulated(); n != cold {
		t.Errorf("warm shared-dir sweep re-simulated %d cells", n-cold)
	}
}

// TestClusterWorkerRegistration pins the /v1/workers endpoints: GET
// lists, POST joins (idempotently), solo daemons refuse, and /healthz
// grows the dist section only in the coordinator role.
func TestClusterWorkerRegistration(t *testing.T) {
	cl := newCluster(t, 1, nil)
	_, extraTS, extraEng := newTestServer(t, nil)

	resp, b := get(t, cl.coord.ts.URL+"/v1/workers")
	var wr workersResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(b, &wr) != nil || len(wr.Workers) != 1 {
		t.Fatalf("initial workers: %d %s", resp.StatusCode, b)
	}

	// Join the new worker, twice — registration is idempotent.
	regBody := fmt.Sprintf(`{"url":%q}`, extraTS.URL)
	for i := 0; i < 2; i++ {
		resp, b = post(t, cl.coord.ts.URL+"/v1/workers", regBody)
		if resp.StatusCode != http.StatusOK || json.Unmarshal(b, &wr) != nil || len(wr.Workers) != 2 {
			t.Fatalf("register attempt %d: %d %s", i, resp.StatusCode, b)
		}
	}
	// A base URL requests cannot be built on is refused with the rule's
	// message (the -workers-list flag prints it too), and never joins: a
	// query or fragment would swallow /v1/run.
	for _, bad := range []string{"not a url", "localhost:8751", "ftp://h:1", "http://h:1/?x=1", "http://h:1#frag", "http:///v1"} {
		resp, b = post(t, cl.coord.ts.URL+"/v1/workers", fmt.Sprintf(`{"url":%q}`, bad))
		var eb dist.ErrorBody
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(b, &eb) != nil || eb.Error != sim.ValidateBaseURL(bad).Error() {
			t.Fatalf("worker url %q: %d %s, want 400 %q", bad, resp.StatusCode, b, sim.ValidateBaseURL(bad))
		}
	}
	if n := len(cl.co.Workers()); n != 2 {
		t.Fatalf("%d workers registered after the refused urls, want 2", n)
	}

	// The joined worker actually receives jobs.
	want := singleNodeBaseline(t, "/v1/matrix", fullMatrixBody)
	resp, got := post(t, cl.coord.ts.URL+"/v1/matrix", fullMatrixBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-registration sweep drifted (status %d)", resp.StatusCode)
	}
	if extraEng.Simulated() == 0 {
		t.Error("registered worker never received a job")
	}

	// healthz: coordinator reports the dist section, solo daemons don't.
	_, hb := get(t, cl.coord.ts.URL+"/healthz")
	var h struct {
		Dist *distHealth `json:"dist"`
	}
	if err := json.Unmarshal(hb, &h); err != nil || h.Dist == nil {
		t.Fatalf("coordinator healthz has no dist section: %s", hb)
	}
	if len(h.Dist.Workers) != 2 || h.Dist.RemoteJobs == 0 {
		t.Errorf("dist health: %+v", h.Dist)
	}
	_, hb = get(t, extraTS.URL+"/healthz")
	if bytes.Contains(hb, []byte(`"dist"`)) {
		t.Errorf("solo healthz grew a dist section: %s", hb)
	}
	resp, _ = get(t, extraTS.URL+"/v1/workers")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("solo /v1/workers: status %d, want 404", resp.StatusCode)
	}
}
