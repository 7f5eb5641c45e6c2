// Package server exposes the experiment engine (internal/sim) as a
// long-running HTTP/JSON simulation service. Where the CLIs pay process
// startup, cache open and trace recording on every invocation, a Server
// keeps the hot state resident across requests: one shared in-memory
// trace store, one on-disk result cache, and one engine whose
// per-configuration sync.Pool of reset-able cpu.Engines survives between
// queries — so a repeated query is a cache hit in microseconds instead of
// a cold process in seconds.
//
// Endpoints (see the README's "Serving" section for the full table):
//
//	POST /v1/run            one (bench × depth × predictor) cell -> JSON result
//	POST /v1/matrix         a branch-prediction grid -> JSON cells
//	POST /v1/matrix?stream=1   the same grid as chunked JSON lines
//	POST /v1/study/smt      the Section 3 SMT fetch-policy grid
//	POST /v1/study/vpred    the Section 3 selective value-prediction grid
//	GET  /v1/artifacts/{name}  a rendered paper artifact (text tables):
//	                        the `experiments -only {name}` file, from the
//	                        same table (sim.Artifacts) and driver
//	GET  /v1/bench          the benchmark / mix / mode catalog
//	GET  /healthz           liveness + engine counters
//	GET/POST /v1/workers    coordinator worker registration
//
// Every sweep endpoint (/v1/matrix in both forms, /v1/study/*,
// /v1/artifacts/{name}) runs through one executor, a sim.Runner chosen
// once in New: the daemon's Engine, or in the coordinator role its
// dist.Coordinator, which fans the cells out to worker daemons and
// merges their answers into the same bytes. /v1/run always runs on the
// Engine: it is the job a coordinator sends its workers.
//
// Three properties keep the daemon well-behaved and its answers
// trustworthy:
//
//   - Determinism: every simulation is deterministic and every response
//     is rendered through deterministic encoders, so warm cache hits are
//     byte-identical across requests — a client may diff responses.
//   - Coalescing: duplicate in-flight requests collapse onto one
//     computation (singleflight keyed by the request after defaults and
//     parsing, or for /v1/run by the cell's cache key), so a thundering
//     herd of identical queries costs one simulation.
//   - Bounds: Config.MaxInflight caps concurrent computations (excess
//     requests get 429 immediately), Config.MaxTotalInsts caps the
//     total instruction budget a single request may demand (400), and a
//     JSON request body is read to at most 1 MiB (413) and must be
//     exactly one JSON value (400).
//
// Validation reuses internal/sim's shared rules, so a bad value is
// rejected with exactly the message the CLIs print for the same mistake.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/smt"
	"repro/internal/workload"
)

// DefaultMaxTotalInsts is the default per-request cap on the *total*
// instruction budget (per-cell budget × cells): enough for a full
// 96-cell matrix at twice the default per-run budget, small enough that
// one request cannot monopolise the daemon for minutes.
const DefaultMaxTotalInsts = 64_000_000

// Config parameterises a Server.
type Config struct {
	// Engine runs /v1/run, and every sweep unless Coordinator is set. It
	// must be non-nil; give it a Cache to get the warm-hit behaviour the
	// service exists for. Its trace store (Traces, or the engine's
	// private one) records each benchmark once per process.
	Engine *sim.Engine
	// MaxInflight bounds concurrently *computing* requests (validation
	// and coalesced waiters are not counted). <= 0 means twice
	// GOMAXPROCS.
	MaxInflight int
	// MaxTotalInsts caps the total instruction budget of one request
	// (per-cell budget × number of cells; the SMT study counts its cycle
	// budget the same way). <= 0 means DefaultMaxTotalInsts.
	MaxTotalInsts int64
	// DefaultInsts is the per-cell budget used when a request omits
	// max_insts. <= 0 means sim.DefaultMaxInsts.
	DefaultInsts int64
	// RequestTimeout bounds each request's simulation work; past the
	// deadline in-flight cells are canceled at their next checkpoint and
	// the request fails with 504 (completed cells preserved under the
	// partial-result contract). <= 0 means no timeout.
	RequestTimeout time.Duration
	// Coordinator, when non-nil, puts the daemon in the coordinator role:
	// it runs every sweep in Engine's place (/v1/matrix in both forms,
	// /v1/study/*, /v1/artifacts/{name}), decomposing it into per-cell
	// jobs fanned out to its registered workers (falling back to its
	// Local engine for cells no worker could answer), and /v1/workers
	// accepts registrations. A job whose cells the Local engine's cache
	// already holds is answered from it without a worker, and every
	// worker answer is kept in that cache, so a repeated sweep costs no
	// hop. /v1/run stays on Engine: a single cell is the worker job
	// itself, so fanning it out would only add a hop, and a warm one is
	// answered from this daemon's own cache, which holds every cell a
	// sweep through this coordinator has run. See internal/dist.
	Coordinator *dist.Coordinator
}

// Server is the HTTP handler. Create it with New; the zero value is not
// usable.
type Server struct {
	cfg      Config
	runner   sim.Runner // runs the sweeps: Coordinator if set, else Engine
	mux      *http.ServeMux
	flights  flightGroup
	inflight chan struct{}

	// drainCtx is canceled by StartDrain; every request context is linked
	// to it so in-flight engine work stops when the daemon begins
	// shutting down.
	drainCtx    context.Context
	cancelDrain context.CancelFunc
	draining    atomic.Bool

	computes  atomic.Int64 // responses actually computed
	coalesced atomic.Int64 // responses served as singleflight waiters
	panics    atomic.Int64 // handler panics contained by ServeHTTP

	// testGate, when non-nil, runs inside the flight leader after the
	// in-flight slot is held and before the computation starts. Tests
	// use it to hold a computation open while concurrent duplicates
	// pile onto the flight.
	testGate func(key string)
}

// New builds a Server around the engine, picking the sweeps' Runner.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("server: Config.Engine is nil")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxTotalInsts <= 0 {
		cfg.MaxTotalInsts = DefaultMaxTotalInsts
	}
	if cfg.DefaultInsts <= 0 {
		cfg.DefaultInsts = sim.DefaultMaxInsts
	}
	drainCtx, cancelDrain := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		runner:      cfg.Engine,
		mux:         http.NewServeMux(),
		inflight:    make(chan struct{}, cfg.MaxInflight),
		drainCtx:    drainCtx,
		cancelDrain: cancelDrain,
	}
	if cfg.Coordinator != nil {
		s.runner = cfg.Coordinator
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/bench", s.handleCatalog)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/matrix", s.handleMatrix)
	s.mux.HandleFunc("POST /v1/study/smt", s.handleSMT)
	s.mux.HandleFunc("POST /v1/study/vpred", s.handleVPred)
	s.mux.HandleFunc("GET /v1/artifacts/{name}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/workers", s.handleWorkersGet)
	s.mux.HandleFunc("POST /v1/workers", s.handleWorkersPost)
	return s
}

// ServeHTTP implements http.Handler. It is also the server's outermost
// middleware: once draining, new requests are turned away with 503 +
// Retry-After instead of racing the listener shutdown, and a panicking
// handler is contained to a JSON 500 (stack to stderr, counter on
// /healthz) instead of killing the connection.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "server is draining; retry")
		return
	}
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler { //nolint:errorlint // sentinel, by contract
			panic(v) // net/http's own "client is gone" signal; let it through
		}
		s.panics.Add(1)
		fmt.Fprintf(os.Stderr, "server: panic in %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
		// If the handler already wrote headers this is a no-op write on a
		// broken response; the client sees a truncated body either way.
		writeError(w, http.StatusInternalServerError, "internal error (handler panicked; see server log)")
	}()
	s.mux.ServeHTTP(w, r)
}

// StartDrain moves the server into drain mode: subsequent requests are
// refused with 503 + Retry-After and every in-flight request's context
// is canceled so engine work stops at the next checkpoint. Call it
// before http.Server.Shutdown; it is idempotent.
func (s *Server) StartDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.cancelDrain()
	}
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// requestContext derives the context simulation work for r runs under:
// the request's own context (client disconnect), bounded by the
// configured request timeout, and linked to drain so StartDrain cancels
// in-flight work. The returned cancel must be called when the handler
// finishes.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	var ctx context.Context
	var cancel context.CancelFunc
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	} else {
		ctx, cancel = context.WithCancel(r.Context())
	}
	stop := context.AfterFunc(s.drainCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// Computes reports how many responses were actually computed (flight
// leaders), Coalesced how many were served as waiters on another
// request's computation, Panics how many handler panics ServeHTTP
// contained.
func (s *Server) Computes() int64  { return s.computes.Load() }
func (s *Server) Coalesced() int64 { return s.coalesced.Load() }
func (s *Server) Panics() int64    { return s.panics.Load() }

// --- response plumbing ---------------------------------------------------

//arvi:det
func jsonBody(v any) []byte {
	// MarshalIndent with a one-space indent plus trailing newline matches
	// the CLI exporters' json.Encoder(SetIndent("", " ")) byte for byte,
	// so a service response diffs cleanly against `arvisim -json` /
	// `experiments -json` output.
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		// Every payload is a plain value struct; this is a programming
		// error, not an input error.
		panic(fmt.Sprintf("server: marshal response: %v", err))
	}
	return append(b, '\n')
}

func jsonResponse(status int, v any) *response {
	return &response{status: status, contentType: "application/json", body: jsonBody(v)}
}

func errResponse(status int, msg string) *response {
	return jsonResponse(status, dist.ErrorBody{Error: msg})
}

func writeResponse(w http.ResponseWriter, resp *response, shared bool) {
	w.Header().Set("Content-Type", resp.contentType)
	if shared {
		// Purely diagnostic: lets a client (and the coalescing test) see
		// that its response was shared with a concurrent duplicate.
		w.Header().Set("X-Coalesced", "1")
	}
	w.WriteHeader(resp.status)
	// A short write means the client went away; there is no channel left
	// to report that on.
	_, _ = w.Write(resp.body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeResponse(w, errResponse(status, msg), false)
}

// coalesce funnels a computation through the singleflight group and the
// in-flight bound, then writes the (possibly shared) response.
func (s *Server) coalesce(w http.ResponseWriter, key string, compute func() *response) {
	resp, shared := s.flights.do(key, func() *response {
		select {
		case s.inflight <- struct{}{}:
		default:
			return errResponse(http.StatusTooManyRequests,
				fmt.Sprintf("server at capacity (%d computations in flight; see -max-inflight)", cap(s.inflight)))
		}
		defer func() { <-s.inflight }()
		if s.testGate != nil {
			s.testGate(key)
		}
		s.computes.Add(1)
		return compute()
	})
	if shared {
		s.coalesced.Add(1)
	}
	if resp == nil {
		// The flight leader panicked before producing a response (its own
		// connection got net/http's recovery); fail the waiters cleanly.
		resp = errResponse(http.StatusInternalServerError, "concurrent identical request failed; retry")
	}
	writeResponse(w, resp, shared)
}

// maxBodyBytes caps a JSON request body. The largest legitimate request
// (a matrix naming every benchmark, depth and mode) is under a kilobyte.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes with
// dist.DecodeStrict: exactly one JSON value and no unknown fields; a
// second request or junk after the value is an error, not a remainder to
// ignore. On failure it writes the 400, or the 413 for an oversized body,
// and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	err := dist.DecodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), into)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
	}
	return false
}

// reject writes the first non-nil error as a 400 and reports whether
// there was one.
func reject(w http.ResponseWriter, errs ...error) bool {
	for _, err := range errs {
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return true
		}
	}
	return false
}

// budget resolves a request's per-cell instruction budget: zero (the
// field omitted) means the daemon default, and a negative budget is
// rejected with the message ?n= and `experiments -n` give.
func (s *Server) budget(n int64) (int64, error) {
	if n == 0 {
		return s.cfg.DefaultInsts, nil
	}
	return n, sim.ValidateBudget(n)
}

// checkBudget enforces the per-request total-instruction cap. The
// comparison is phrased as a division so a huge per-cell budget cannot
// overflow the multiplication and slip under the cap.
func (s *Server) checkBudget(perCell int64, cells int) error {
	if cells == 0 {
		return nil
	}
	if perCell > s.cfg.MaxTotalInsts/int64(cells) {
		return fmt.Errorf("request instruction budget (%d cells x %d) exceeds -max-insts %d",
			cells, perCell, s.cfg.MaxTotalInsts)
	}
	return nil
}

// hashParts reduces an ordered list of identity strings to one flight
// key. A sweep passes its request after defaults and parsing (axes in
// request order, modes as report names, the budget, the study's config):
// its cells and their order are a pure function of that, so two requests
// coalesce exactly when they ask for the same cells in the same order.
// /v1/run passes its one cell's cache key.
//
//arvi:det
func hashParts(kind string, parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%s|%x", kind, h.Sum(nil))
}

// --- /healthz and /v1/bench ----------------------------------------------

type storageHealth struct {
	CacheDegraded   bool  `json:"cache_degraded"`
	CacheMemEntries int   `json:"cache_mem_entries"`
	CacheTrips      int64 `json:"cache_trips"`
}

// distHealth is the coordinator-role section of /healthz: the worker
// set's health and the job counters the chaos suite pins loss cost with.
type distHealth struct {
	Workers     []dist.WorkerStatus `json:"workers"`
	RemoteJobs  int64               `json:"remote_jobs"`
	RetriedJobs int64               `json:"retried_jobs"`
	LocalJobs   int64               `json:"local_jobs"`
}

type healthResponse struct {
	Status    string        `json:"status"`
	Simulated int64         `json:"simulated"`
	CacheHits int64         `json:"cache_hits"`
	Computes  int64         `json:"computes"`
	Coalesced int64         `json:"coalesced"`
	Panics    int64         `json:"panics"`
	Storage   storageHealth `json:"storage"`
	// Dist is present only in the coordinator role, so solo and worker
	// daemons keep their pre-distribution /healthz bytes.
	Dist *distHealth `json:"dist,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var st storageHealth
	if c := s.cfg.Engine.Cache; c != nil {
		st.CacheDegraded = c.Degraded()
		st.CacheMemEntries = c.MemEntries()
		st.CacheTrips = c.Breaker().Trips()
	}
	status := "ok"
	if st.CacheDegraded {
		// The daemon still serves correct results (memory-only), but an
		// operator should look at the disk.
		status = "degraded"
	}
	var dh *distHealth
	if c := s.cfg.Coordinator; c != nil {
		dh = &distHealth{
			Workers:     c.Workers(),
			RemoteJobs:  c.RemoteJobs(),
			RetriedJobs: c.RetriedJobs(),
			LocalJobs:   c.LocalJobs(),
		}
	}
	writeResponse(w, jsonResponse(http.StatusOK, healthResponse{
		Status:    status,
		Simulated: s.cfg.Engine.Simulated(),
		CacheHits: s.cfg.Engine.CacheHits(),
		Computes:  s.Computes(),
		Coalesced: s.Coalesced(),
		Panics:    s.Panics(),
		Storage:   st,
		Dist:      dh,
	}), false)
}

type catalogEntry struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

type catalogMix struct {
	Name    string   `json:"name"`
	Desc    string   `json:"desc"`
	Benches []string `json:"benches"`
}

type catalogResponse struct {
	Benches    []catalogEntry `json:"benches"`
	Mixes      []catalogMix   `json:"mixes"`
	Modes      []string       `json:"modes"`
	Depths     []int          `json:"depths"`
	Policies   []string       `json:"policies"`
	Predictors []string       `json:"predictors"`
	Artifacts  []string       `json:"artifacts"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	var c catalogResponse
	for _, n := range workload.Names {
		b, _ := workload.Lookup(n)
		c.Benches = append(c.Benches, catalogEntry{Name: n, Desc: b.Desc})
	}
	for _, n := range workload.MixNames {
		m := workload.MixByName(n)
		c.Mixes = append(c.Mixes, catalogMix{Name: m.Name, Desc: m.Desc, Benches: m.Benches})
	}
	c.Modes = append(c.Modes, sim.ModeNames...)
	c.Depths = append(c.Depths, sim.Depths...)
	for _, p := range sim.SMTPolicies {
		c.Policies = append(c.Policies, p.String())
	}
	c.Predictors = append(c.Predictors, sim.VPredPredictors...)
	c.Artifacts = sim.ArtifactNames()
	writeResponse(w, jsonResponse(http.StatusOK, c), false)
}

// --- POST /v1/run ---------------------------------------------------------

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req := dist.RunRequest{Bench: "m88ksim", Depth: 20, Mode: "arvi-current"}
	if !decodeBody(w, r, &req) {
		return
	}
	var err error
	if req.MaxInsts, err = s.budget(req.MaxInsts); reject(w, err) {
		return
	}
	md, err := sim.ParseMode(req.Mode)
	// Validate the threshold before narrowing to the spec's uint8 (a
	// huge JSON value must be rejected, not silently wrapped).
	if reject(w, err, sim.ValidateConfThreshold(req.ConfThreshold)) {
		return
	}
	spec := sim.Spec{
		Bench: req.Bench, Depth: req.Depth, Mode: md, MaxInsts: req.MaxInsts,
		CutAtLoads: req.CutAtLoads, ConfThreshold: uint8(req.ConfThreshold),
	}
	if reject(w, sim.ValidateSpec(spec), s.checkBudget(spec.MaxInsts, 1)) {
		return
	}
	key := hashParts("run", sim.CacheKey(spec, spec.Config()))
	ctx, cancel := s.requestContext(r)
	defer cancel()
	s.coalesce(w, key, func() *response {
		results, err := s.cfg.Engine.Run(ctx, []sim.Spec{spec})
		if err != nil || len(results) == 0 {
			status := http.StatusInternalServerError
			if err != nil {
				status = errStatus(err)
			}
			return errResponse(status, errString(err, "simulation produced no result"))
		}
		// The payload is exactly `arvisim -json`'s: a sim.Result.
		return jsonResponse(http.StatusOK, results[0])
	})
}

// --- POST /v1/matrix ------------------------------------------------------

type matrixRequest struct {
	Benches  []string `json:"benches"`
	Depths   []int    `json:"depths"`
	Modes    []string `json:"modes"`
	MaxInsts int64    `json:"max_insts"`
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req matrixRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Benches) == 0 {
		req.Benches = workload.Names
	}
	if len(req.Depths) == 0 {
		req.Depths = sim.Depths
	}
	if len(req.Modes) == 0 {
		req.Modes = sim.ModeNames
	}
	var err error
	if req.MaxInsts, err = s.budget(req.MaxInsts); reject(w, err) {
		return
	}
	modes := make([]cpu.PredMode, len(req.Modes))
	for i, m := range req.Modes {
		if modes[i], err = sim.ParseMode(m); reject(w, err) {
			return
		}
	}
	cells := len(req.Benches) * len(req.Depths) * len(modes)
	if reject(w, sim.ValidateAxis("benchmark", req.Benches, sim.ValidateBench),
		sim.ValidateAxis("depth", req.Depths, sim.ValidateDepth),
		sim.ValidateAxis("mode", modes, nil),
		s.checkBudget(req.MaxInsts, cells)) {
		return
	}
	depths := req.Depths
	// Keyed by the parsed request, so both spellings of a mode share a flight.
	request := fmt.Sprintf("%q %v %q %d", req.Benches, depths, modes, req.MaxInsts)
	if r.URL.Query().Get("stream") == "1" {
		s.streamMatrix(w, r, hashParts("stream", request), req.Benches, depths, modes, req.MaxInsts)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	s.coalesce(w, hashParts("matrix", request), func() *response {
		mx, err := sim.RunMatrix(ctx, s.runner, req.Benches, depths, modes, req.MaxInsts)
		body := mx.Export(depths)
		body.Error = errString(err, "")
		return jsonResponse(errStatus(err), body)
	})
}

// --- POST /v1/study/{smt,vpred} -------------------------------------------

func (s *Server) handleSMT(w http.ResponseWriter, r *http.Request) {
	var req dist.SMTRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cfg := smt.DefaultConfig()
	if req.MaxCycles != 0 {
		cfg.MaxCycles = req.MaxCycles
	}
	if len(req.Mixes) == 0 {
		req.Mixes = workload.MixNames
	}
	// The cycle budget is the closest analogue of an instruction budget
	// for this study; cap cycles × cells the same way.
	if reject(w, sim.ValidateSMTCycles(cfg.MaxCycles),
		sim.ValidateAxis("mix", req.Mixes, sim.ValidateMix),
		s.checkBudget(cfg.MaxCycles, len(req.Mixes)*len(sim.SMTPolicies))) {
		return
	}
	mixes := make([]workload.Mix, len(req.Mixes))
	for i, name := range req.Mixes {
		mixes[i] = workload.MixByName(name)
	}
	key := hashParts("smt", fmt.Sprintf("%q %+v", req.Mixes, cfg))
	ctx, cancel := s.requestContext(r)
	defer cancel()
	s.coalesce(w, key, func() *response {
		g, err := s.runner.RunSMTGrid(ctx, mixes, cfg)
		g.Error = errString(err, "")
		return jsonResponse(errStatus(err), g)
	})
}

func (s *Server) handleVPred(w http.ResponseWriter, r *http.Request) {
	var req dist.VPredRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Benches) == 0 {
		req.Benches = workload.Names
	}
	if len(req.Predictors) == 0 {
		req.Predictors = sim.VPredPredictors
	}
	var err error
	if req.MaxInsts, err = s.budget(req.MaxInsts); reject(w, err) {
		return
	}
	params := sim.DefaultVPredParams(req.MaxInsts)
	if req.DepThreshold != 0 {
		params.DepThreshold = req.DepThreshold
	}
	cells := len(req.Benches) * len(req.Predictors) * 2 // all + selective
	if reject(w, sim.ValidateDepThreshold(params.DepThreshold),
		sim.ValidateAxis("benchmark", req.Benches, sim.ValidateBench),
		sim.ValidateAxis("predictor", req.Predictors, sim.ValidatePredictor),
		s.checkBudget(req.MaxInsts, cells)) {
		return
	}
	key := hashParts("vpred", fmt.Sprintf("%q %q %+v", req.Benches, req.Predictors, params))
	ctx, cancel := s.requestContext(r)
	defer cancel()
	s.coalesce(w, key, func() *response {
		g, err := s.runner.RunVPredGrid(ctx, req.Benches, req.Predictors, params)
		g.Error = errString(err, "")
		return jsonResponse(errStatus(err), g)
	})
}

// --- GET /v1/artifacts/{name} ---------------------------------------------

// handleArtifact renders one of sim.Artifacts — the text tables
// cmd/experiments prints; the studies with structured grids (smt, vpred)
// live on their own endpoints — through the same driver the CLI uses, so
// the body is `experiments -only {name} -out`'s file for the same budget
// (?n=) and depth (?depth=).
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	a, ok := sim.LookupArtifact(name)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown artifact %q (valid: %v)", name, sim.ArtifactNames()))
		return
	}
	budget := s.cfg.DefaultInsts
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad instruction budget %q", v))
			return
		}
		if err := sim.ValidateBudget(n); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		budget = n
	}
	depth := 20
	if v := r.URL.Query().Get("depth"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad depth %q", v))
			return
		}
		if err := sim.ValidateDepth(d); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		depth = d
	}
	arts := []sim.Artifact{a}
	if err := s.checkBudget(budget, len(sim.ArtifactSpecs(arts, budget, depth))); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := hashParts("artifact", name, strconv.FormatInt(budget, 10), strconv.Itoa(depth))
	ctx, cancel := s.requestContext(r)
	defer cancel()
	s.coalesce(w, key, func() *response {
		mx, err := sim.RunArtifacts(ctx, s.runner, arts, budget, depth)
		var body bytes.Buffer
		if err == nil {
			err = sim.RenderArtifacts(&body, arts, mx, depth)
		}
		if err != nil {
			return errResponse(errStatus(err), err.Error())
		}
		return &response{status: http.StatusOK, contentType: "text/plain; charset=utf-8", body: body.Bytes()}
	})
}

// errString renders a possibly-nil error; fallback covers the "no error
// but also no result" edge some callers need to report.
func errString(err error, fallback string) string {
	if err == nil {
		return fallback
	}
	return err.Error()
}

// errStatus maps a simulation error to its HTTP status: a request that
// ran out of its deadline is the gateway-timeout story (the work was
// canceled, not wrong), everything else is an internal error. Joined
// partial-failure errors match through errors.Is.
func errStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}
