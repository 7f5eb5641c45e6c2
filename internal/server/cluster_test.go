package server

// In-process cluster harness: one coordinator daemon plus N worker
// daemons, each a full Server over its own temp cache, wired together
// exactly as `arvid -role coordinator -workers-list ...` would. The
// suites here pin the distribution tentpole's headline contract — a
// distributed sweep's merged JSON is byte-identical to the single-node
// rendering, cold and warm — plus worker registration, streaming, and
// the cache-peer protocol. TestChaosDist* (chaos_dist_test.go) reuses
// the same harness for the failure-mode half of the story.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/storage"
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
// is computed exactly once cluster-wide, and a warm repeat computes
// nothing anywhere.
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

	// Warm: byte-identical again, and nothing re-simulates — rendezvous
	// routes each cell back to the worker whose cache holds it.
	cold := cl.totalSimulated()
	resp, warm := post(t, cl.coord.ts.URL+"/v1/matrix", fullMatrixBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm distributed matrix: status %d", resp.StatusCode)
	}
	if !bytes.Equal(warm, want) {
		t.Fatal("warm distributed matrix not byte-identical to single-node")
	}
	if n := cl.totalSimulated(); n != cold {
		t.Errorf("warm sweep re-simulated %d cells", n-cold)
	}
}

// TestClusterStudiesByteIdentical pins byte-identity for both study
// grids, cold and warm, against single-node output.
func TestClusterStudiesByteIdentical(t *testing.T) {
	cases := []struct {
		name, path, body string
	}{
		{"smt", "/v1/study/smt", `{"max_cycles":3000}`},
		{"vpred", "/v1/study/vpred", `{"max_insts":5000}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := singleNodeBaseline(t, tc.path, tc.body)
			cl := newCluster(t, 2, nil)
			resp, got := post(t, cl.coord.ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("distributed %s: status %d: %s", tc.name, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("distributed %s not byte-identical to single-node:\n got: %.400s\nwant: %.400s", tc.name, got, want)
			}
			if n := cl.coord.eng.Simulated(); n != 0 {
				t.Errorf("coordinator simulated %d cells itself with healthy workers, want 0", n)
			}
			resp, warmB := post(t, cl.coord.ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(warmB, want) {
				t.Fatalf("warm distributed %s drifted (status %d)", tc.name, resp.StatusCode)
			}
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
	})
}

// TestClusterSharedCacheDir runs two workers over one cache directory
// (the NFS-mount deployment DirKV's atomic writes exist for): the cold
// sweep is byte-identical, and on the warm repeat either worker serves
// any cell straight from the shared store — zero recompute, even where
// rendezvous placement moved.
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
		traces, err := sim.OpenTraceStore("", 0)
		if err != nil {
			t.Fatal(err)
		}
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
	resp, b = post(t, cl.coord.ts.URL+"/v1/workers", `{"url":"not a url"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk worker url accepted: %d %s", resp.StatusCode, b)
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

// TestClusterCachePeerProtocol pins the /v1/cache endpoints and the peer
// tier end to end: a cell computed on daemon A is served by daemon B
// from A's cache without simulating, junk keys and junk payloads are
// rejected, a rejected payload never poisons the store, and push mode
// replicates a fresh entry to the peer as it is computed.
func TestClusterCachePeerProtocol(t *testing.T) {
	_, tsA, engA := newTestServer(t, nil)
	_, tsB, engB := newTestServer(t, nil)
	engB.Cache.SetPeers(storage.NewPeerKV([]string{tsA.URL}, nil), false)

	body := `{"bench":"m88ksim","depth":20,"mode":"arvi-current","max_insts":5000}`
	resp, want := post(t, tsA.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime run: status %d: %s", resp.StatusCode, want)
	}

	// B misses locally, fetches A's entry through the peer tier, and
	// serves the byte-identical result without simulating.
	resp, got := post(t, tsB.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-warmed run: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer-warmed run not byte-identical:\n got %s\nwant %s", got, want)
	}
	if n := engB.Simulated(); n != 0 {
		t.Errorf("peer-warmed daemon simulated %d cells, want 0", n)
	}
	if engB.Cache.PeerHits() != 1 {
		t.Errorf("peer hits = %d, want 1", engB.Cache.PeerHits())
	}

	// Raw endpoint behaviour: junk key shapes are rejected before any
	// backend is touched; a real miss is a JSON 404.
	resp, _ = get(t, tsA.URL+"/v1/cache/nothex")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk key: status %d, want 400", resp.StatusCode)
	}
	missKey := strings.Repeat("ab", 32)
	resp, _ = get(t, tsA.URL+"/v1/cache/"+missKey)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("miss: status %d, want 404", resp.StatusCode)
	}

	// PUT validation: a payload whose envelope does not describe the key
	// it is pushed under is refused, and the store stays clean.
	req, err := http.NewRequest(http.MethodPut, tsA.URL+"/v1/cache/"+missKey, strings.NewReader(`{"version":99}`))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk entry accepted: status %d", presp.StatusCode)
	}
	if _, ok := engA.Cache.Raw(missKey); ok {
		t.Error("rejected peer payload reached the store")
	}

	// Push direction: a daemon in push mode replicates each fresh entry to
	// its peer as it computes it, so the peer serves the cell from its own
	// store — byte-identical, without simulating and without a pull tier.
	_, tsPush, engPush := newTestServer(t, nil)
	_, tsRecv, engRecv := newTestServer(t, nil)
	engPush.Cache.SetPeers(storage.NewPeerKV([]string{tsRecv.URL}, nil), true)
	resp, want = post(t, tsPush.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pushing run: status %d: %s", resp.StatusCode, want)
	}
	if n := engPush.Cache.PeerPushes(); n != 1 {
		t.Errorf("peer pushes = %d, want 1", n)
	}
	if n, err := engRecv.Cache.Len(); err != nil || n != 1 {
		t.Fatalf("receiving cache holds %d entries (err %v), want 1", n, err)
	}
	resp, got = post(t, tsRecv.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("push-warmed run drifted (status %d):\n got %s\nwant %s", resp.StatusCode, got, want)
	}
	if n := engRecv.Simulated(); n != 0 {
		t.Errorf("push-warmed daemon simulated %d cells, want 0", n)
	}
}
