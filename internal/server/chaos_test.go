package server

// Chaos tests for the service's failure domains: request deadlines,
// drain, panic containment and degraded-storage reporting. Every test
// matches `go test -run Chaos`, which CI runs with the race detector.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestChaosRequestTimeoutReturns504 pins the -request-timeout contract:
// simulation work past the deadline is canceled at its next checkpoint
// and the request fails as a gateway timeout, not a generic 500.
func TestChaosRequestTimeoutReturns504(t *testing.T) {
	_, ts, _ := newTestServer(t, func(c *Config) {
		c.RequestTimeout = time.Nanosecond // expires before the first checkpoint
	})
	resp, body := post(t, ts.URL+"/v1/run", `{"bench":"li","depth":20,"mode":"arvi-current"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("504 body is not the error envelope: %s", body)
	}
	// The matrix endpoint keeps its partial-result envelope on timeout.
	resp, body = post(t, ts.URL+"/v1/matrix", `{"benches":["li"],"depths":[20]}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("matrix status = %d, want 504; body %s", resp.StatusCode, body)
	}
	var mr struct {
		Cells []sim.Record `json:"cells"`
		Error string       `json:"error"`
	}
	if err := json.Unmarshal(body, &mr); err != nil || mr.Error == "" || mr.Cells == nil {
		t.Fatalf("timeout matrix response lost the partial-result envelope: %s", body)
	}
}

// TestChaosDrainRefusesNewAndCancelsInflight pins the SIGTERM drain
// sequence: once StartDrain is called, new requests get 503 with a
// Retry-After hint, and requests already computing are canceled at their
// next checkpoint instead of holding Shutdown hostage.
func TestChaosDrainRefusesNewAndCancelsInflight(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)
	started := make(chan struct{})
	s.testGate = func(string) {
		close(started)
		// Hold the computation long enough for the drain to land; the
		// canceled context then fails the cells at their first checkpoint.
		time.Sleep(50 * time.Millisecond)
	}
	type result struct {
		status int
		body   string
	}
	done := make(chan result, 1)
	go func() {
		// A budget big enough (but within -max-insts) that an uncanceled
		// run would take far longer than this test is willing to wait.
		resp, body := post(t, ts.URL+"/v1/matrix",
			`{"benches":["gcc"],"depths":[20],"modes":["arvi-current"],"max_insts":30000000}`)
		done <- result{resp.StatusCode, string(body)}
	}()
	select {
	case <-started:
	case r := <-done:
		t.Fatalf("request finished before entering the flight: %d %s", r.status, r.body)
	}
	s.StartDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}

	// New work is turned away immediately with a retry hint.
	resp, body := post(t, ts.URL+"/v1/run", `{"bench":"li","depth":20,"mode":"arvi-current"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 missing Retry-After")
	}

	// The in-flight request fails promptly with the cancellation surfaced.
	select {
	case r := <-done:
		if r.status != http.StatusInternalServerError {
			t.Errorf("drained in-flight status = %d, want 500", r.status)
		}
		if !strings.Contains(r.body, "context canceled") {
			t.Errorf("drained in-flight body does not surface the cancellation: %s", r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request not canceled by drain")
	}
}

// TestChaosPanicMiddlewareContainsHandlerPanics registers a deliberately
// panicking route and asserts the outermost middleware converts the panic
// into a JSON 500, counts it, and leaves the server serving.
func TestChaosPanicMiddlewareContainsHandlerPanics(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)
	s.mux.HandleFunc("GET /test/panic", func(http.ResponseWriter, *http.Request) {
		panic("deliberate test panic")
	})
	resp, body := get(t, ts.URL+"/test/panic")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "panicked") {
		t.Fatalf("panic response is not the JSON envelope: %s", body)
	}
	if s.Panics() != 1 {
		t.Errorf("panic counter = %d, want 1", s.Panics())
	}
	// The server survives: real work still computes and healthz reports
	// the contained panic.
	resp, _ = post(t, ts.URL+"/v1/run", `{"bench":"li","depth":20,"mode":"arvi-current"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic run status = %d", resp.StatusCode)
	}
	_, hb := get(t, ts.URL+"/healthz")
	var h struct {
		Status string `json:"status"`
		Panics int64  `json:"panics"`
	}
	if err := json.Unmarshal(hb, &h); err != nil || h.Panics != 1 || h.Status != "ok" {
		t.Errorf("healthz after panic: %s", hb)
	}
	// net/http's own abort sentinel passes through untouched (and is not
	// counted as a contained panic).
	s.mux.HandleFunc("GET /test/abort", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ErrAbortHandler swallowed instead of re-panicked")
			}
		}()
		req := httptest.NewRequest("GET", "/test/abort", nil)
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	if s.Panics() != 1 {
		t.Errorf("ErrAbortHandler counted as a contained panic: %d", s.Panics())
	}
}

// TestChaosHealthzReportsDegradedStorage trips the cache's circuit
// breaker on a write-broken disk and asserts /healthz switches to
// "degraded" with the storage detail, then back to "ok" after recovery.
func TestChaosHealthzReportsDegradedStorage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ffs := storage.NewFaultFS(storage.OS{})
	now := time.Unix(1000, 0)
	brk := storage.NewBreaker(2, time.Minute)
	brk.Clock = func() time.Time { return now }
	cache, err := sim.OpenCacheFS(dir, ffs, brk)
	if err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{Cache: cache}
	ts := httptest.NewServer(New(Config{Engine: eng, DefaultInsts: testInsts}))
	t.Cleanup(ts.Close)

	type health struct {
		Status  string `json:"status"`
		Storage struct {
			CacheDegraded   bool  `json:"cache_degraded"`
			CacheMemEntries int   `json:"cache_mem_entries"`
			CacheTrips      int64 `json:"cache_trips"`
		} `json:"storage"`
	}
	readHealth := func() health {
		t.Helper()
		_, b := get(t, ts.URL+"/healthz")
		var h health
		if err := json.Unmarshal(b, &h); err != nil {
			t.Fatalf("healthz: %v (%s)", err, b)
		}
		return h
	}
	if h := readHealth(); h.Status != "ok" || h.Storage.CacheDegraded {
		t.Fatalf("healthy server reports %+v", h)
	}

	// The disk breaks; a run trips the breaker (its first writes fail
	// loudly, then the cache degrades) but still answers correctly.
	ffs.Break()
	resp, body := post(t, ts.URL+"/v1/run", `{"bench":"li","depth":20,"mode":"arvi-current"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("pre-trip run status = %d (cache failure must surface); body %s", resp.StatusCode, body)
	}
	for cache.Breaker().Open() == false {
		if err := cache.Put(sim.Spec{Bench: "li", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 123}, cpu.Stats{Insts: 1}); err == nil {
			break
		}
	}
	h := readHealth()
	if h.Status != "degraded" || !h.Storage.CacheDegraded || h.Storage.CacheTrips != 1 {
		t.Fatalf("broken-disk healthz: %+v", h)
	}
	// Degraded-mode requests succeed (memory overlay), results correct.
	resp, body = post(t, ts.URL+"/v1/run", `{"bench":"compress","depth":20,"mode":"arvi-current"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded run status = %d; body %s", resp.StatusCode, body)
	}

	// Recovery: heal the disk, pass probation, and let a write probe
	// close the breaker — healthz returns to "ok".
	ffs.Heal()
	now = now.Add(2 * time.Minute)
	if err := cache.Put(sim.Spec{Bench: "li", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 456}, cpu.Stats{Insts: 2}); err != nil {
		t.Fatal(err)
	}
	if h := readHealth(); h.Status != "ok" || h.Storage.CacheDegraded || h.Storage.CacheMemEntries != 0 {
		t.Fatalf("post-recovery healthz: %+v", h)
	}
}
