// Package server exposes the experiment engine (internal/sim) as a
// long-running HTTP/JSON simulation service. Where the CLIs pay process
// startup, cache open and trace decode on every invocation, a Server
// keeps the hot state resident across requests: one shared trace store,
// one on-disk result cache, and one engine whose per-configuration
// sync.Pool of reset-able cpu.Engines survives between queries — so a
// repeated query is a cache hit in microseconds instead of a cold process
// in seconds.
//
// Endpoints (see the README's "Serving" section for the full table):
//
//	POST /v1/run            one (bench × depth × predictor) cell -> JSON result
//	POST /v1/matrix         a branch-prediction grid -> JSON cells
//	POST /v1/matrix?stream=1   the same grid as chunked JSON lines
//	POST /v1/study/smt      the Section 3 SMT fetch-policy grid
//	POST /v1/study/vpred    the Section 3 selective value-prediction grid
//	GET  /v1/artifacts/{name}  a rendered paper artifact (text tables)
//	GET  /v1/bench          the benchmark / mix / mode catalog
//	GET  /healthz           liveness + engine counters
//	GET/PUT /v1/cache/{key}    the cache-peer protocol (raw entries)
//	GET/POST /v1/workers    coordinator worker registration
//
// Three properties keep the daemon well-behaved and its answers
// trustworthy:
//
//   - Determinism: every simulation is deterministic and every response
//     is rendered through deterministic encoders, so warm cache hits are
//     byte-identical across requests — a client may diff responses.
//   - Coalescing: duplicate in-flight requests collapse onto one
//     computation (singleflight keyed by the same Spec/Config and Study
//     content fingerprints the result cache uses), so a thundering herd
//     of identical queries costs one simulation.
//   - Bounds: Config.MaxInflight caps concurrent computations (excess
//     requests get 429 immediately) and Config.MaxTotalInsts caps the
//     total instruction budget a single request may demand (400).
//
// Validation reuses internal/sim's shared rules, so a bad value is
// rejected with exactly the message the CLIs print for the same mistake.
package server

import (
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
	"strings"
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
	// Engine runs every simulation. It must be non-nil; give it a Cache
	// and a TraceStore to get the warm-hit behaviour the service exists
	// for.
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
	// matrix and study sweeps are decomposed into per-cell jobs and
	// fanned out to the coordinator's registered workers (falling back to
	// Engine for cells no worker could answer), and /v1/workers accepts
	// registrations. Single-cell /v1/run requests always execute locally
	// — they *are* the unit of distribution. See internal/dist.
	Coordinator *dist.Coordinator
}

// Server is the HTTP handler. Create it with New; the zero value is not
// usable.
type Server struct {
	cfg      Config
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

// New builds a Server around the engine.
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
		mux:         http.NewServeMux(),
		inflight:    make(chan struct{}, cfg.MaxInflight),
		drainCtx:    drainCtx,
		cancelDrain: cancelDrain,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/bench", s.handleCatalog)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/matrix", s.handleMatrix)
	s.mux.HandleFunc("POST /v1/study/smt", s.handleSMT)
	s.mux.HandleFunc("POST /v1/study/vpred", s.handleVPred)
	s.mux.HandleFunc("GET /v1/artifacts/{name}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
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

// decodeBody strictly decodes a JSON request body (unknown fields are
// errors: a typoed knob must not silently fall back to a default).
func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
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
// key. The parts are the same content identities the result cache uses
// (Spec/Config cache keys, study keys), so two requests coalesce exactly
// when they would hit the same cache entries in the same order.
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

// studyFlight keys a study request's flight by the ordered study keys of
// its cells, as enumerated by sim's study enumerators.
func studyFlight[S sim.Study](kind string, studies []S) (string, error) {
	parts := make([]string, len(studies))
	for i, st := range studies {
		key, err := sim.StudyKey(st)
		if err != nil {
			return "", err
		}
		parts[i] = key
	}
	return hashParts(kind, parts...), nil
}

// --- /healthz and /v1/bench ----------------------------------------------

type storageHealth struct {
	CacheDegraded   bool  `json:"cache_degraded"`
	CacheMemEntries int   `json:"cache_mem_entries"`
	CacheTrips      int64 `json:"cache_trips"`
	TraceDegraded   bool  `json:"trace_degraded"`
	TraceTrips      int64 `json:"trace_trips"`
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
	if t := s.cfg.Engine.Traces; t != nil {
		st.TraceDegraded = t.Degraded()
		st.TraceTrips = t.Breaker().Trips()
	}
	status := "ok"
	if st.CacheDegraded || st.TraceDegraded {
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
	c.Artifacts = append(c.Artifacts, artifactNames...)
	writeResponse(w, jsonResponse(http.StatusOK, c), false)
}

// --- POST /v1/run ---------------------------------------------------------

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req := dist.RunRequest{Bench: "m88ksim", Depth: 20, Mode: "arvi-current"}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.MaxInsts <= 0 {
		req.MaxInsts = s.cfg.DefaultInsts
	}
	md, err := sim.ParseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Validate the threshold before narrowing to the spec's uint8 (a
	// huge JSON value must be rejected, not silently wrapped).
	if err := sim.ValidateConfThreshold(req.ConfThreshold); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec := sim.Spec{
		Bench: req.Bench, Depth: req.Depth, Mode: md, MaxInsts: req.MaxInsts,
		CutAtLoads: req.CutAtLoads, ConfThreshold: uint8(req.ConfThreshold),
	}
	if err := sim.ValidateSpec(spec); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := s.checkBudget(spec.MaxInsts, 1); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
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
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
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
	if req.MaxInsts <= 0 {
		req.MaxInsts = s.cfg.DefaultInsts
	}
	var modes []cpu.PredMode
	for _, m := range req.Modes {
		md, err := sim.ParseMode(m)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		modes = append(modes, md)
	}
	for _, b := range req.Benches {
		if err := sim.ValidateBench(b); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	for _, d := range req.Depths {
		if err := sim.ValidateDepth(d); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	cells := len(req.Benches) * len(req.Depths) * len(modes)
	if err := s.checkBudget(req.MaxInsts, cells); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The flight key is the ordered list of the cells' cache keys — the
	// same content identities the result cache uses.
	specs := sim.MatrixSpecs(req.Benches, req.Depths, modes, req.MaxInsts)
	parts := make([]string, len(specs))
	for i, spec := range specs {
		parts[i] = sim.CacheKey(spec, spec.Config())
	}
	depths := req.Depths
	if r.URL.Query().Get("stream") == "1" {
		s.streamMatrix(w, r, hashParts("stream", parts...), req.Benches, depths, modes, req.MaxInsts)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	s.coalesce(w, hashParts("matrix", parts...), func() *response {
		mx, err := s.runMatrix(ctx, req.Benches, depths, modes, req.MaxInsts)
		body := mx.Export(depths)
		body.Error = errString(err, "")
		return jsonResponse(errStatus(err), body)
	})
}

// runMatrix runs the grid through the coordinator when this daemon has
// one, locally otherwise. Both paths populate an identical sim.Matrix,
// and the caller renders it through the same Export path either way —
// that shared tail is the byte-identity contract's enforcement point.
func (s *Server) runMatrix(ctx context.Context, benches []string, depths []int, modes []cpu.PredMode, maxInsts int64) (*sim.Matrix, error) {
	if s.cfg.Coordinator != nil {
		return s.cfg.Coordinator.Matrix(ctx, benches, depths, modes, maxInsts)
	}
	return s.cfg.Engine.RunMatrix(ctx, benches, depths, modes, maxInsts)
}

// --- POST /v1/study/{smt,vpred} -------------------------------------------

func (s *Server) handleSMT(w http.ResponseWriter, r *http.Request) {
	var req dist.SMTRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfg := smt.DefaultConfig()
	if req.MaxCycles != 0 {
		cfg.MaxCycles = req.MaxCycles
	}
	if err := sim.ValidateSMTCycles(cfg.MaxCycles); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var mixes []workload.Mix
	if len(req.Mixes) == 0 {
		mixes = workload.Mixes()
	} else {
		for _, name := range req.Mixes {
			if err := sim.ValidateMix(name); err != nil {
				writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			mixes = append(mixes, workload.MixByName(name))
		}
	}
	// The cycle budget is the closest analogue of an instruction budget
	// for this study; cap cycles × cells the same way.
	if err := s.checkBudget(cfg.MaxCycles, len(mixes)*len(sim.SMTPolicies)); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := studyFlight("smt", sim.SMTStudies(mixes, sim.SMTPolicies, cfg))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	s.coalesce(w, key, func() *response {
		var g *sim.SMTGrid
		var err error
		if s.cfg.Coordinator != nil {
			g, err = s.cfg.Coordinator.SMTGrid(ctx, mixes, cfg)
		} else {
			g, err = s.cfg.Engine.RunSMTGrid(ctx, mixes, sim.SMTPolicies, cfg)
		}
		g.Error = errString(err, "")
		return jsonResponse(errStatus(err), g)
	})
}

func (s *Server) handleVPred(w http.ResponseWriter, r *http.Request) {
	var req dist.VPredRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Benches) == 0 {
		req.Benches = workload.Names
	}
	if len(req.Predictors) == 0 {
		req.Predictors = sim.VPredPredictors
	}
	if req.MaxInsts <= 0 {
		req.MaxInsts = s.cfg.DefaultInsts
	}
	params := sim.DefaultVPredParams(req.MaxInsts)
	if req.DepThreshold != 0 {
		params.DepThreshold = req.DepThreshold
	}
	if err := sim.ValidateDepThreshold(params.DepThreshold); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	for _, b := range req.Benches {
		if err := sim.ValidateBench(b); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	for _, p := range req.Predictors {
		if err := sim.ValidatePredictor(p); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	cells := len(req.Benches) * len(req.Predictors) * 2 // all + selective
	if err := s.checkBudget(req.MaxInsts, cells); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := studyFlight("vpred", sim.VPredStudies(req.Benches, req.Predictors, params))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	s.coalesce(w, key, func() *response {
		var g *sim.VPredGrid
		var err error
		if s.cfg.Coordinator != nil {
			g, err = s.cfg.Coordinator.VPredGrid(ctx, req.Benches, req.Predictors, params)
		} else {
			g, err = s.cfg.Engine.RunVPredGrid(ctx, req.Benches, req.Predictors, params)
		}
		g.Error = errString(err, "")
		return jsonResponse(errStatus(err), g)
	})
}

// --- GET /v1/artifacts/{name} ---------------------------------------------

// artifactNames lists the artifacts the service renders. The studies
// with structured grids (smt, vpred) live on their own endpoints; these
// are the text tables cmd/experiments prints.
var artifactNames = []string{"table2", "table4", "fig5a", "fig5b", "fig6", "sweep-conf", "sweep-cut"}

func validArtifact(name string) bool {
	for _, a := range artifactNames {
		if a == name {
			return true
		}
	}
	return false
}

// artifactCells reports how many matrix cells the artifact simulates, for
// the budget cap (0 = renders without simulating).
func artifactCells(name string) int {
	switch name {
	case "table2", "table4":
		return 0
	case "fig5a":
		return len(workload.Names) * len(sim.Depths)
	case "fig5b":
		return len(workload.Names)
	case "fig6":
		return len(workload.Names) * len(sim.Depths) * len(sim.Modes)
	case "sweep-conf":
		return len(workload.Names) * len(sim.DefaultConfThresholds)
	case "sweep-cut":
		return len(workload.Names) * 2
	}
	return 0
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validArtifact(name) {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown artifact %q (valid: %v)", name, artifactNames))
		return
	}
	budget := s.cfg.DefaultInsts
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad instruction budget %q", v))
			return
		}
		budget = n
	}
	depth := 20
	if v := r.URL.Query().Get("depth"); v != "" {
		d, err := strconv.Atoi(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad depth %q", v))
			return
		}
		depth = d
	}
	if err := s.checkBudget(budget, artifactCells(name)); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := hashParts("artifact", name, strconv.FormatInt(budget, 10), strconv.Itoa(depth))
	ctx, cancel := s.requestContext(r)
	defer cancel()
	s.coalesce(w, key, func() *response {
		body, err := s.renderArtifact(ctx, name, budget, depth)
		if err != nil {
			return errResponse(errStatus(err), err.Error())
		}
		return &response{status: http.StatusOK, contentType: "text/plain; charset=utf-8", body: body}
	})
}

// renderArtifact produces the artifact's text tables, simulating (through
// the engine's cache and trace store) whatever cells it needs.
//
//arvi:det
func (s *Server) renderArtifact(ctx context.Context, name string, budget int64, depth int) ([]byte, error) {
	var out strings.Builder
	emit := func(t sim.Table) error { return t.Render(&out) }
	switch name {
	case "table2":
		if err := emit(sim.Table2()); err != nil {
			return nil, err
		}
	case "table4":
		if err := emit(sim.Table4()); err != nil {
			return nil, err
		}
	case "fig5a":
		mx, err := s.cfg.Engine.RunMatrix(ctx, workload.Names, sim.Depths, []cpu.PredMode{cpu.PredARVICurrent}, budget)
		if err != nil {
			return nil, err
		}
		if err := emit(sim.Fig5a(mx)); err != nil {
			return nil, err
		}
	case "fig5b":
		mx, err := s.cfg.Engine.RunMatrix(ctx, workload.Names, []int{depth}, []cpu.PredMode{cpu.PredARVICurrent}, budget)
		if err != nil {
			return nil, err
		}
		if err := emit(sim.Fig5b(mx, depth)); err != nil {
			return nil, err
		}
	case "fig6":
		mx, err := s.cfg.Engine.RunMatrix(ctx, workload.Names, sim.Depths, sim.Modes, budget)
		if err != nil {
			return nil, err
		}
		for _, d := range sim.Depths {
			if err := emit(sim.Fig6Accuracy(mx, d)); err != nil {
				return nil, err
			}
			t, _ := sim.Fig6IPC(mx, d)
			if err := emit(t); err != nil {
				return nil, err
			}
		}
	case "sweep-conf":
		sw, err := s.cfg.Engine.RunConfThresholdSweep(ctx, workload.Names, depth, sim.DefaultConfThresholds, budget)
		if err != nil {
			return nil, err
		}
		for _, t := range []sim.Table{sim.SweepAccuracyTable(sw), sim.SweepARVIUseTable(sw), sim.SweepIPCTable(sw)} {
			if err := emit(t); err != nil {
				return nil, err
			}
		}
	case "sweep-cut":
		sw, err := s.cfg.Engine.RunCutAtLoadsSweep(ctx, workload.Names, depth, budget)
		if err != nil {
			return nil, err
		}
		for _, t := range []sim.Table{sim.SweepAccuracyTable(sw), sim.SweepIPCTable(sw)} {
			if err := emit(t); err != nil {
				return nil, err
			}
		}
	}
	return []byte(out.String()), nil
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
