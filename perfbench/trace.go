package main

import (
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of a public seam: a storage.FS call, an http.Handler
// call, or a coordinator round trip.
type span struct {
	kind       string // fs.read, fs.write, fs.rename, fs.mkdir, fs.remove, handler, hop
	role       string // daemon role: solo, coord, w0, w1
	store      string // fs spans: cache or trace, the store that made the call
	route      string // handler and hop spans: request path, cache keys elided
	phase      string // setup, cold, warm, probe
	hop        int64  // links a hop span to the worker handler span it caused
	start, end time.Time
	bytes      int64
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// within reports whether s lies inside outer's interval.
func (s span) within(outer span) bool {
	return !s.start.Before(outer.start) && !s.end.After(outer.end)
}

// observer keeps the traced run's spans in memory. The phase label is
// set by the caller between phases, which run one after another.
type observer struct {
	mu    sync.Mutex
	spans []span
	phase string
	hops  atomic.Int64
}

func (ob *observer) setPhase(p string) {
	ob.mu.Lock()
	ob.phase = p
	ob.mu.Unlock()
}

func (ob *observer) add(s span) {
	ob.mu.Lock()
	s.phase = ob.phase
	ob.spans = append(ob.spans, s)
	ob.mu.Unlock()
}

// spansWhere returns the spans matching keep.
func (ob *observer) spansWhere(keep func(span) bool) []span {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	var out []span
	for _, s := range ob.spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// fs returns a timing storage.FS over the real filesystem for one store
// (cache or trace) of a daemon of the given role.
func (ob *observer) fs(role, store string) storage.FS {
	return timingFS{ob: ob, role: role, store: store}
}

// timingFS records one span per filesystem call.
type timingFS struct {
	ob          *observer
	role, store string
}

func (t timingFS) record(kind string, t0 time.Time, n int) {
	t.ob.add(span{kind: kind, role: t.role, store: t.store, start: t0, end: time.Now(), bytes: int64(n)})
}

func (t timingFS) ReadFile(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := storage.OS{}.ReadFile(name)
	t.record("fs.read", t0, len(b))
	return b, err
}

func (t timingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	t0 := time.Now()
	err := storage.OS{}.WriteFile(name, data, perm)
	t.record("fs.write", t0, len(data))
	return err
}

func (t timingFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := storage.OS{}.Rename(oldpath, newpath)
	t.record("fs.rename", t0, 0)
	return err
}

func (t timingFS) MkdirAll(path string, perm os.FileMode) error {
	t0 := time.Now()
	err := storage.OS{}.MkdirAll(path, perm)
	t.record("fs.mkdir", t0, 0)
	return err
}

func (t timingFS) Remove(name string) error {
	t0 := time.Now()
	err := storage.OS{}.Remove(name)
	t.record("fs.remove", t0, 0)
	return err
}

// hopHeader carries a coordinator hop's id to the worker's handler span.
const hopHeader = "X-Perfbench-Hop"

// route names a request path, eliding the key of /v1/cache/{key}.
func route(path string) string {
	if strings.HasPrefix(path, "/v1/cache/") {
		return "/v1/cache"
	}
	return path
}

// handler returns an http.Handler wrapper recording one span per request
// a daemon of the given role serves.
func (ob *observer) handler(role string) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			h.ServeHTTP(w, r)
			hop, _ := strconv.ParseInt(r.Header.Get(hopHeader), 10, 64) // absent on client requests
			ob.add(span{kind: "handler", role: role, route: route(r.URL.Path), hop: hop, start: t0, end: time.Now()})
		})
	}
}

// transport wraps a coordinator's RoundTripper, recording one hop span
// per worker request from send until the coordinator closes the body.
func (ob *observer) transport(inner http.RoundTripper) http.RoundTripper {
	return hopTransport{ob: ob, inner: inner}
}

type hopTransport struct {
	ob    *observer
	inner http.RoundTripper
}

func (t hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.ob.hops.Add(1)
	r := req.Clone(req.Context())
	r.Header.Set(hopHeader, strconv.FormatInt(id, 10))
	s := span{kind: "hop", role: "coord", route: route(req.URL.Path), hop: id, start: time.Now()}
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		s.end = time.Now()
		t.ob.add(s)
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, ob: t.ob, s: s}
	return resp, nil
}

// hopBody ends its hop span when the coordinator closes the body.
type hopBody struct {
	io.ReadCloser
	ob   *observer
	s    span
	once sync.Once
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = time.Now()
		b.ob.add(b.s)
	})
	return err
}
