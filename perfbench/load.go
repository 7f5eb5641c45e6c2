package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// op is one HTTP request the load generator sends. key names the answer
// the request must produce: ops with equal keys must get byte-identical
// bodies, and digests.json holds the expected digest of each key.
type op struct {
	kind   string // run, matrix, smt, vpred, healthz, catalog
	method string
	path   string
	body   []byte
	key    string
}

func post(kind, path, key string, body any) op {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // plain value structs only
	}
	return op{kind: kind, method: http.MethodPost, path: path, body: b, key: key}
}

// cell is one (bench, depth, mode) matrix coordinate.
type cell struct {
	bench string
	depth int
	mode  string
}

func (c cell) key() string { return fmt.Sprintf("run/%s/%d/%s", c.bench, c.depth, c.mode) }

// cells lists the Section 5 grid in the server's bench-major order.
func cells() []cell {
	var out []cell
	for _, b := range workload.Names {
		for _, d := range sim.Depths {
			for _, m := range sim.ModeNames {
				out = append(out, cell{b, d, m})
			}
		}
	}
	return out
}

// budget holds the per-request simulation budgets. The benchmark uses the
// paper defaults; the smoke test shrinks them.
type budget struct {
	insts     int64 // per-cell instruction budget (matrix, run, vpred)
	smtCycles int64 // SMT study cycle budget
}

func (b budget) String() string { return fmt.Sprintf("insts=%d,smt_cycles=%d", b.insts, b.smtCycles) }

func runOp(c cell, b budget) op {
	return post("run", "/v1/run", c.key(), map[string]any{
		"bench": c.bench, "depth": c.depth, "mode": c.mode, "max_insts": b.insts,
	})
}

func matrixOp(b budget) op {
	return post("matrix", "/v1/matrix", "matrix", map[string]any{"max_insts": b.insts})
}

func smtOp(b budget) op {
	return post("smt", "/v1/study/smt", "smt", map[string]any{"max_cycles": b.smtCycles})
}

func vpredOp(b budget) op {
	return post("vpred", "/v1/study/vpred", "vpred", map[string]any{"max_insts": b.insts})
}

func getOp(kind, path string) op { return op{kind: kind, method: http.MethodGet, path: path} }

// client is the load generator's HTTP client: one keep-alive pool, closed
// at the end of the run.
type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * runtime.GOMAXPROCS(0)}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 170 * time.Second}}
}

// do sends one request and reads the whole body; the duration covers the
// send through the last body byte.
func (c *client) do(ctx context.Context, base string, o op) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, o.method, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, 0, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, time.Since(t0), err
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// checker counts operations and judges every answer. An operation fails
// when it errors, answers non-200, or answers bytes that differ from the
// stored digest for its key or from the first answer seen for its key.
type checker struct {
	want map[string]string // key -> expected digest; nil disables the stored check

	mu        sync.Mutex
	first     map[string]string
	attempted int64
	failed    int64
	problems  []string
}

func newChecker(want map[string]string) *checker {
	return &checker{want: want, first: map[string]string{}}
}

// judge records one operation's outcome and reports whether it passed.
func (ck *checker) judge(o op, status int, body []byte, err error) bool {
	var problem string
	switch {
	case err != nil:
		problem = fmt.Sprintf("%s %s: %v", o.method, o.path, err)
	case status != http.StatusOK:
		problem = fmt.Sprintf("%s %s: status %d: %.200s", o.method, o.path, status, body)
	case o.key != "":
		d := digest(body)
		ck.mu.Lock()
		first, seen := ck.first[o.key]
		if !seen {
			ck.first[o.key] = d
		}
		ck.mu.Unlock()
		if seen && d != first {
			problem = fmt.Sprintf("%s: answer differs from the first answer for the same request", o.key)
		} else if want, ok := ck.want[o.key]; ck.want != nil && (!ok || d != want) {
			problem = fmt.Sprintf("%s: digest %.16s, want %.16s", o.key, d, want)
		}
	}
	return ck.record(problem)
}

// fail records a failed check that is not an HTTP answer (an exact count).
func (ck *checker) fail(format string, args ...any) { ck.record(fmt.Sprintf(format, args...)) }

func (ck *checker) record(problem string) bool {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.attempted++
	if problem == "" {
		return true
	}
	ck.failed++
	if len(ck.problems) < 10 {
		ck.problems = append(ck.problems, problem)
	}
	return false
}

// mixGen yields the seeded serve mix: about nine in ten requests are
// /v1/run for a random one of the 96 cells, the rest the warm full matrix.
// The sequence depends only on the seed; which client sends which request
// does not matter, since every answer is checked against its key.
type mixGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	cells []cell
	b     budget
	n     int
}

func newMixGen(seed int64, b budget) *mixGen {
	return &mixGen{rng: rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)), cells: cells(), b: b}
}

// next returns the sequence number and the request.
func (g *mixGen) next() (int, op) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := g.n
	g.n++
	if g.rng.IntN(10) == 0 {
		return i, matrixOp(g.b)
	}
	return i, runOp(g.cells[g.rng.IntN(len(g.cells))], g.b)
}

// latencies collects per-kind request latencies from concurrent clients,
// in completion order.
type latencies struct {
	mu sync.Mutex
	by map[string][]time.Duration
}

func (l *latencies) add(kind string, d time.Duration) {
	l.mu.Lock()
	if l.by == nil {
		l.by = map[string][]time.Duration{}
	}
	l.by[kind] = append(l.by[kind], d)
	l.mu.Unlock()
}

// closedLoop runs `clients` callers against base, each sending its next
// request only after the previous answer arrived, until stop reports
// true for the next sequence number or the elapsed time.
func closedLoop(ctx context.Context, cl *client, ck *checker, base string, gen *mixGen, clients int, stop func(i int, elapsed time.Duration) bool) *latencies {
	lat := &latencies{}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, o := gen.next()
				if stop(i, time.Since(t0)) {
					return
				}
				status, body, d, err := cl.do(ctx, base, o)
				if ck.judge(o, status, body, err) {
					lat.add(o.kind, d)
				}
			}
		}()
	}
	wg.Wait()
	return lat
}
