package server

// Shared httptest plumbing for the server's suites (behaviour, chaos,
// cluster). Keeping the helpers in one file stops each new suite from
// growing its own copy of post/get.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sim"
)

// testInsts keeps per-cell simulations around a millisecond.
const testInsts = 5000

// newTestServer builds a server around a fresh cached engine (result
// cache in a temp dir, trace store memory-only).
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *sim.Engine) {
	t.Helper()
	cache, err := sim.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	traces := sim.NewTraceStore(0)
	eng := &sim.Engine{Cache: cache, Traces: traces}
	cfg := Config{Engine: eng, DefaultInsts: testInsts}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, eng
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func mustErr(t *testing.T, fn func() error) string {
	t.Helper()
	err := fn()
	if err == nil {
		t.Fatal("expected an error")
	}
	return err.Error()
}
