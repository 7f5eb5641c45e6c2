package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/smt"
	"repro/internal/workload"
)

// TestRunWarmHitByteStable pins the service's core promise: a repeated
// /v1/run renders byte-identical JSON, and the second request is a result
// cache hit (no re-simulation).
func TestRunWarmHitByteStable(t *testing.T) {
	_, ts, eng := newTestServer(t, nil)
	body := `{"bench":"m88ksim","depth":20,"mode":"arvi-current","max_insts":5000}`
	resp1, b1 := post(t, ts.URL+"/v1/run", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d: %s", resp1.StatusCode, b1)
	}
	resp2, b2 := post(t, ts.URL+"/v1/run", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: status %d: %s", resp2.StatusCode, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("warm hit not byte-stable:\n%s\nvs\n%s", b1, b2)
	}
	if sims := eng.Simulated(); sims != 1 {
		t.Fatalf("simulated %d cells, want 1 (second request must hit the cache)", sims)
	}
	if hits := eng.CacheHits(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	// The payload decodes as a sim.Result, same shape as `arvisim -json`.
	var res sim.Result
	if err := json.Unmarshal(b1, &res); err != nil {
		t.Fatalf("response is not a sim.Result: %v", err)
	}
	if res.Spec.Bench != "m88ksim" || res.Stats.Insts == 0 {
		t.Fatalf("implausible result: %+v", res.Spec)
	}
}

// TestMatrixWarmHitByteStable repeats a small grid request and pins
// byte-stability plus the per-cell cache behaviour.
func TestMatrixWarmHitByteStable(t *testing.T) {
	_, ts, eng := newTestServer(t, nil)
	body := `{"benches":["li"],"depths":[20],"modes":["baseline","arvi-current"],"max_insts":5000}`
	resp1, b1 := post(t, ts.URL+"/v1/matrix", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first matrix: status %d: %s", resp1.StatusCode, b1)
	}
	resp2, b2 := post(t, ts.URL+"/v1/matrix", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second matrix: status %d: %s", resp2.StatusCode, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("warm matrix not byte-stable:\n%s\nvs\n%s", b1, b2)
	}
	if sims := eng.Simulated(); sims != 2 {
		t.Fatalf("simulated %d cells, want 2", sims)
	}
	var mr sim.MatrixExport
	if err := json.Unmarshal(b1, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Cells) != 2 || mr.Error != "" {
		t.Fatalf("matrix response: %d cells, error %q", len(mr.Cells), mr.Error)
	}
}

// TestStudyWarmHitByteStable covers the two Section 3 study endpoints.
func TestStudyWarmHitByteStable(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	for _, tc := range []struct {
		path, body string
		cells      int
	}{
		{"/v1/study/smt", `{"mixes":["ijpeg+li"],"max_cycles":3000}`, 3},
		{"/v1/study/vpred", `{"benches":["li"],"predictors":["stride"],"max_insts":5000}`, 2},
	} {
		resp1, b1 := post(t, ts.URL+tc.path, tc.body)
		if resp1.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, resp1.StatusCode, b1)
		}
		resp2, b2 := post(t, ts.URL+tc.path, tc.body)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s warm: status %d: %s", tc.path, resp2.StatusCode, b2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s warm hit not byte-stable", tc.path)
		}
		var env struct {
			Cells []json.RawMessage `json:"cells"`
			Error string            `json:"error"`
		}
		if err := json.Unmarshal(b1, &env); err != nil {
			t.Fatal(err)
		}
		if len(env.Cells) != tc.cells || env.Error != "" {
			t.Fatalf("%s: %d cells (want %d), error %q", tc.path, len(env.Cells), tc.cells, env.Error)
		}
	}
}

// TestCLIExportMatchesHTTPBody pins that each result grid leaves the
// process as one body: the CLI's -json export of a grid and the service's
// response to the same request are the same bytes, for the matrix and
// both study grids.
func TestCLIExportMatchesHTTPBody(t *testing.T) {
	_, ts, eng := newTestServer(t, nil)
	ctx := context.Background()
	smtCfg := smt.DefaultConfig()
	smtCfg.MaxCycles = 3000
	budget := fmt.Sprintf(`{"max_insts":%d}`, testInsts)
	for _, tc := range []struct {
		path, body string
		export     func(io.Writer) error
	}{
		{"/v1/matrix", budget, func(w io.Writer) error {
			mx, err := sim.RunMatrix(ctx, eng, workload.Names, sim.Depths, sim.Modes, testInsts)
			if err != nil {
				return err
			}
			return mx.WriteJSON(w, sim.Depths)
		}},
		{"/v1/study/smt", `{"max_cycles":3000}`, func(w io.Writer) error {
			g, err := eng.RunSMTGrid(ctx, workload.Mixes(), smtCfg)
			if err != nil {
				return err
			}
			return g.WriteJSON(w)
		}},
		{"/v1/study/vpred", budget, func(w io.Writer) error {
			g, err := eng.RunVPredGrid(ctx, workload.Names, sim.VPredPredictors, sim.DefaultVPredParams(testInsts))
			if err != nil {
				return err
			}
			return g.WriteJSON(w)
		}},
	} {
		var cli bytes.Buffer
		if err := tc.export(&cli); err != nil {
			t.Fatalf("%s: CLI export: %v", tc.path, err)
		}
		resp, body := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, body)
		}
		if !bytes.Equal(body, cli.Bytes()) {
			t.Errorf("%s: HTTP body differs from the CLI export:\n body: %.300s\n  cli: %.300s", tc.path, body, cli.Bytes())
		}
	}
}

// TestConcurrentIdenticalRequestsCoalesce pins the singleflight contract:
// concurrent requests for the same response cost one computation and one
// simulation per cell, and every response is byte-identical. Requests
// are the same when they agree after defaults and parsing, so two
// spellings of one matrix (the mode's CLI alias vs its report name, the
// budget omitted vs the default written out) share a flight.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	run := `{"bench":"gcc","depth":20,"mode":"arvi-current","max_insts":5000}`
	for _, tc := range []struct {
		name, path string
		bodies     []string
	}{
		{"run", "/v1/run", []string{run, run, run, run}},
		{"matrix spellings", "/v1/matrix", []string{
			`{"benches":["li"],"depths":[20],"modes":["baseline"]}`,
			fmt.Sprintf(`{"benches":["li"],"depths":[20],"modes":["2lvl-2bc-gskew"],"max_insts":%d}`, testInsts),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dupes := len(tc.bodies)
			s, ts, eng := newTestServer(t, nil)
			// Hold the flight leader until the other dupes-1 requests have
			// joined its flight, so the coalescing we want to pin
			// deterministically forms.
			s.testGate = func(key string) {
				deadline := time.Now().Add(10 * time.Second)
				for s.flights.waiters(key) < dupes-1 {
					if time.Now().After(deadline) {
						t.Error("gate: duplicates never joined the flight")
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
			var wg sync.WaitGroup
			bodies := make([][]byte, dupes)
			statuses := make([]int, dupes)
			coalesced := make([]bool, dupes)
			for i, body := range tc.bodies {
				wg.Add(1)
				go func(i int, body string) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					b, err := io.ReadAll(resp.Body)
					if err != nil {
						t.Error(err)
						return
					}
					bodies[i], statuses[i] = b, resp.StatusCode
					coalesced[i] = resp.Header.Get("X-Coalesced") == "1"
				}(i, body)
			}
			wg.Wait()
			nCoalesced := 0
			for i := 0; i < dupes; i++ {
				if statuses[i] != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
				}
				if !bytes.Equal(bodies[i], bodies[0]) {
					t.Fatalf("coalesced responses differ:\n%s\nvs\n%s", bodies[0], bodies[i])
				}
				if coalesced[i] {
					nCoalesced++
				}
			}
			if got := s.Computes(); got != 1 {
				t.Fatalf("computed %d responses for %d identical requests, want 1", got, dupes)
			}
			if sims := eng.Simulated(); sims != 1 {
				t.Fatalf("simulated %d cells for %d identical one-cell requests, want 1", sims, dupes)
			}
			if nCoalesced != dupes-1 || s.Coalesced() != int64(dupes-1) {
				t.Fatalf("%d responses marked coalesced (counter %d), want %d", nCoalesced, s.Coalesced(), dupes-1)
			}
		})
	}
}

// TestValidationErrorsMatchCLI pins that the service rejects bad input
// with exactly the messages the CLIs print for the same mistakes: the
// expectations are computed from the shared internal/sim validators, so
// the two front ends cannot drift apart.
func TestValidationErrorsMatchCLI(t *testing.T) {
	_, ts, eng := newTestServer(t, func(c *Config) { c.MaxTotalInsts = 1_000_000 })
	cases := []struct {
		name, path, body string
		get              bool // a GET of path; body unused
		wantStatus       int
		wantMsg          string // "" = a success body, not checked
	}{
		{
			name: "unknown benchmark", path: "/v1/run",
			body:       `{"bench":"nope","depth":20,"mode":"arvi-current"}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateBench("nope").Error(),
		},
		{
			name: "unknown mode", path: "/v1/run",
			body:       `{"bench":"li","depth":20,"mode":"oracle"}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    mustErr(t, func() error { _, err := sim.ParseMode("oracle"); return err }),
		},
		{
			name: "JRS threshold above the 4-bit counter max", path: "/v1/run",
			body:       `{"bench":"li","depth":20,"mode":"arvi-current","conf_threshold":16}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateConfThreshold(16).Error(),
		},
		{
			name: "over-budget run", path: "/v1/run",
			body:       `{"bench":"li","depth":20,"mode":"arvi-current","max_insts":2000000}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    "request instruction budget (1 cells x 2000000) exceeds -max-insts 1000000",
		},
		{
			name: "over-budget matrix", path: "/v1/matrix",
			body:       `{"benches":["li"],"depths":[20],"modes":["baseline","arvi-current"],"max_insts":600000}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    "request instruction budget (2 cells x 600000) exceeds -max-insts 1000000",
		},
		{
			// 4 default modes x (1<<62) would overflow an int64 multiply;
			// the cap must still reject it.
			name: "overflowing matrix budget", path: "/v1/matrix",
			body:       `{"benches":["li"],"depths":[20],"max_insts":4611686018427387904}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    "request instruction budget (4 cells x 4611686018427387904) exceeds -max-insts 1000000",
		},
		{
			name: "non-positive depth", path: "/v1/run",
			body:       `{"bench":"li","depth":-3,"mode":"arvi-current"}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateDepth(-3).Error(),
		},
		{
			name: "matrix unknown benchmark", path: "/v1/matrix",
			body:       `{"benches":["spice"],"depths":[20]}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateBench("spice").Error(),
		},
		{
			name: "smt cycle budget", path: "/v1/study/smt",
			body:       `{"mixes":["quad"],"max_cycles":-5}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateSMTCycles(-5).Error(),
		},
		{
			name: "smt unknown mix", path: "/v1/study/smt",
			body:       `{"mixes":["li+li"]}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateMix("li+li").Error(),
		},
		{
			name: "vpred dep threshold", path: "/v1/study/vpred",
			body:       `{"benches":["li"],"dep_threshold":-1}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateDepThreshold(-1).Error(),
		},
		{
			name: "vpred unknown predictor", path: "/v1/study/vpred",
			body:       `{"benches":["li"],"predictors":["context"]}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidatePredictor("context").Error(),
		},
		{
			name: "unknown request field", path: "/v1/run",
			body:       `{"benchh":"li"}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    `bad request body: json: unknown field "benchh"`,
		},
		{
			// The body is one JSON value: a second request after it is not
			// ignored, and neither is junk.
			name: "run followed by a second request", path: "/v1/run",
			body:       `{"bench":"li","depth":20,"mode":"baseline","max_insts":2000} {"bench":"nope"}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    "bad request body: data after the JSON value",
		},
		{
			name: "run followed by junk", path: "/v1/run",
			body:       `{"bench":"li","depth":20,"mode":"baseline","max_insts":2000} trailing-garbage`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    "bad request body: data after the JSON value",
		},
		{
			name: "matrix followed by a second request", path: "/v1/matrix",
			body:       `{"benches":["li"],"depths":[20],"max_insts":2000} {"benches":["nope"]}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    "bad request body: data after the JSON value",
		},
		{
			name: "matrix followed by junk", path: "/v1/matrix",
			body:       `{"benches":["li"],"depths":[20],"max_insts":2000} trailing-garbage`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    "bad request body: data after the JSON value",
		},
		{
			// Trailing whitespace is not data.
			name: "run followed by whitespace", path: "/v1/run",
			body:       "{\"bench\":\"nope\"} \n\t ",
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateBench("nope").Error(),
		},
		{
			name: "body padded past the cap", path: "/v1/run",
			body:       strings.Repeat(" ", maxBodyBytes) + `{"bench":"li","depth":20,"mode":"arvi-current"}`,
			wantStatus: http.StatusRequestEntityTooLarge,
			wantMsg:    "request body exceeds 1048576 bytes",
		},
		{
			name: "body padded past the cap after the value", path: "/v1/run",
			body:       `{"bench":"li","depth":20,"mode":"arvi-current"}` + strings.Repeat(" ", maxBodyBytes),
			wantStatus: http.StatusRequestEntityTooLarge,
			wantMsg:    "request body exceeds 1048576 bytes",
		},
		{
			// The artifact cap multiplies by the artifact's cell count.
			name: "over-budget artifact", path: "/v1/artifacts/fig6?n=10417", get: true,
			wantStatus: http.StatusBadRequest,
			wantMsg:    "request instruction budget (96 cells x 10417) exceeds -max-insts 1000000",
		},
		{
			name: "over-budget sweep artifact", path: "/v1/artifacts/sweep-conf?n=25001", get: true,
			wantStatus: http.StatusBadRequest,
			wantMsg:    "request instruction budget (40 cells x 25001) exceeds -max-insts 1000000",
		},
		{
			name: "echo artifact simulates nothing", path: "/v1/artifacts/table2?n=9000000000", get: true,
			wantStatus: http.StatusOK,
		},
		{
			name: "non-positive artifact depth", path: "/v1/artifacts/sweep-cut?depth=0", get: true,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateDepth(0).Error(),
		},
		{
			name: "non-positive artifact budget", path: "/v1/artifacts/fig5b?n=-1", get: true,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateBudget(-1).Error(),
		},
		{
			// Zero (or an omitted field) means the default budget; a
			// negative one is an error, as it is for ?n= and -n.
			name: "negative run budget", path: "/v1/run",
			body:       `{"bench":"li","depth":20,"mode":"baseline","max_insts":-5}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateBudget(-5).Error(),
		},
		{
			name: "negative matrix budget", path: "/v1/matrix",
			body:       `{"benches":["li"],"depths":[20],"max_insts":-5}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateBudget(-5).Error(),
		},
		{
			name: "negative vpred budget", path: "/v1/study/vpred",
			body:       `{"benches":["li"],"max_insts":-5}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateBudget(-5).Error(),
		},
		{
			// A repeated axis value would run and report its cells twice.
			name: "matrix repeated benchmark", path: "/v1/matrix",
			body:       `{"benches":["li","gcc","li"],"depths":[20]}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateAxis("benchmark", []string{"li", "li"}, nil).Error(),
		},
		{
			name: "matrix repeated depth", path: "/v1/matrix",
			body:       `{"benches":["li"],"depths":[20,20],"modes":["baseline"]}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateAxis("depth", []int{20, 20}, nil).Error(),
		},
		{
			// Two spellings of one mode are one mode.
			name: "matrix repeated mode alias", path: "/v1/matrix",
			body:       `{"benches":["li"],"depths":[20],"modes":["baseline","2lvl-2bc-gskew"]}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateAxis("mode", []string{"2lvl-2bc-gskew", "2lvl-2bc-gskew"}, nil).Error(),
		},
		{
			name: "smt repeated mix", path: "/v1/study/smt",
			body:       `{"mixes":["ijpeg+li","ijpeg+li"]}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateAxis("mix", []string{"ijpeg+li", "ijpeg+li"}, nil).Error(),
		},
		{
			name: "vpred repeated benchmark", path: "/v1/study/vpred",
			body:       `{"benches":["li","li"],"predictors":["stride"]}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateAxis("benchmark", []string{"li", "li"}, nil).Error(),
		},
		{
			name: "vpred repeated predictor", path: "/v1/study/vpred",
			body:       `{"benches":["li"],"predictors":["stride","last-value","stride"]}`,
			wantStatus: http.StatusBadRequest,
			wantMsg:    sim.ValidateAxis("predictor", []string{"stride", "stride"}, nil).Error(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var b []byte
			if tc.get {
				resp, b = get(t, ts.URL+tc.path)
			} else {
				resp, b = post(t, ts.URL+tc.path, tc.body)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.wantStatus, b)
			}
			if tc.wantMsg == "" {
				return
			}
			var eb dist.ErrorBody
			if err := json.Unmarshal(b, &eb); err != nil {
				t.Fatalf("error body not JSON: %v (%s)", err, b)
			}
			if eb.Error != tc.wantMsg {
				t.Fatalf("error message drifted from the CLI's:\n got %q\nwant %q", eb.Error, tc.wantMsg)
			}
		})
	}
	if sims := eng.Simulated(); sims != 0 {
		t.Fatalf("validation errors must not reach the engine; simulated %d", sims)
	}
}

// TestMaxInflightBound pins the 429 behaviour: while one computation is
// in flight at capacity 1, a different request is turned away.
func TestMaxInflightBound(t *testing.T) {
	s, ts, _ := newTestServer(t, func(c *Config) { c.MaxInflight = 1 })
	inCompute := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testGate = func(string) {
		once.Do(func() { close(inCompute) })
		<-release
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, body := post(t, ts.URL+"/v1/run", `{"bench":"li","depth":20,"mode":"baseline","max_insts":5000}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held request: status %d: %s", resp.StatusCode, body)
		}
	}()
	<-inCompute
	// A *different* spec cannot coalesce, must claim a slot, and the only
	// slot is held.
	resp, b := post(t, ts.URL+"/v1/run", `{"bench":"gcc","depth":20,"mode":"baseline","max_insts":5000}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "max-inflight") {
		t.Fatalf("429 body should point at -max-inflight: %s", b)
	}
	close(release)
	<-done
}

// TestArtifactsCatalogHealth exercises the read-only endpoints.
func TestArtifactsCatalogHealth(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)

	resp, b := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"status": "ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}

	resp, b = get(t, ts.URL+"/v1/bench")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog: %d %s", resp.StatusCode, b)
	}
	var cat catalogResponse
	if err := json.Unmarshal(b, &cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Benches) != 8 || len(cat.Mixes) != 4 || len(cat.Modes) != 4 {
		t.Fatalf("catalog shape: %d benches, %d mixes, %d modes", len(cat.Benches), len(cat.Mixes), len(cat.Modes))
	}

	resp, b = get(t, ts.URL+"/v1/artifacts/table2")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "Table 2") {
		t.Fatalf("table2 artifact: %d %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("artifact content type %q", ct)
	}

	resp, b = get(t, ts.URL+"/v1/artifacts/fig7")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown artifact: %d %s", resp.StatusCode, b)
	}
	want := fmt.Sprintf("unknown artifact %q (valid: %v)", "fig7", sim.ArtifactNames())
	var eb dist.ErrorBody
	if err := json.Unmarshal(b, &eb); err != nil || eb.Error != want {
		t.Fatalf("unknown-artifact message %q, want %q", eb.Error, want)
	}

	// A simulated artifact renders — and renders byte-identically warm.
	resp, b1 := get(t, ts.URL+"/v1/artifacts/fig5b?n=5000")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b1), "Figure 5(b)") {
		t.Fatalf("fig5b artifact: %d %s", resp.StatusCode, b1)
	}
	_, b2 := get(t, ts.URL+"/v1/artifacts/fig5b?n=5000")
	if !bytes.Equal(b1, b2) {
		t.Fatal("warm artifact not byte-stable")
	}
}

// TestFlightGroup unit-tests the coalescing primitive itself: concurrent
// callers of one key share one fn invocation; a later caller recomputes.
func TestFlightGroup(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	leaderDone := make(chan *response, 1)
	go func() {
		resp, shared := g.do("k", func() *response {
			calls++
			close(started)
			<-release
			return &response{status: 200, body: []byte("x")}
		})
		if shared {
			t.Error("leader reported shared")
		}
		leaderDone <- resp
	}()
	<-started
	const waiters = 3
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, shared := g.do("k", func() *response {
				t.Error("waiter ran fn")
				return nil
			})
			if !shared {
				t.Error("waiter not marked shared")
			}
			if string(resp.body) != "x" {
				t.Errorf("waiter got %q", resp.body)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.waiters("k") < waiters {
		if time.Now().After(deadline) {
			t.Fatal("waiters never registered")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if resp := <-leaderDone; string(resp.body) != "x" {
		t.Fatalf("leader got %q", resp.body)
	}
	// The flight is forgotten: a fresh call recomputes.
	resp, shared := g.do("k", func() *response {
		calls++
		return &response{status: 200, body: []byte("y")}
	})
	if shared || string(resp.body) != "y" || calls != 2 {
		t.Fatalf("post-flight call: shared=%v body=%q calls=%d", shared, resp.body, calls)
	}
}

// TestFlightGroupLeaderPanic pins that a panicking leader cannot wedge
// the key: waiters are released (with a nil response), the panic
// propagates to the leader, and the key is reusable afterwards.
func TestFlightGroupLeaderPanic(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	release := make(chan struct{})
	waiterDone := make(chan *response, 1)
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		g.do("k", func() *response {
			close(started)
			<-release
			panic("compute exploded")
		})
	}()
	<-started
	go func() {
		resp, shared := g.do("k", func() *response {
			t.Error("waiter ran fn")
			return nil
		})
		if !shared {
			t.Error("waiter not marked shared")
		}
		waiterDone <- resp
	}()
	deadline := time.Now().Add(10 * time.Second)
	for g.waiters("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never registered")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case resp := <-waiterDone:
		if resp != nil {
			t.Fatalf("waiter got %+v from a panicked leader, want nil", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung on a panicked leader")
	}
	// The key recomputes cleanly after the wreckage.
	resp, shared := g.do("k", func() *response {
		return &response{status: 200, body: []byte("recovered")}
	})
	if shared || string(resp.body) != "recovered" {
		t.Fatalf("post-panic call: shared=%v body=%q", shared, resp.body)
	}
}
