package server

// The distribution-facing endpoints: the streaming matrix variant, the
// cache-peer protocol, and worker registration. See internal/dist's
// package comment and DESIGN.md's distributed execution section.

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/storage"
)

// --- POST /v1/matrix?stream=1 ---------------------------------------------

// streamMatrix serves the incremental variant of /v1/matrix: completed
// cells as chunked JSON lines in completion order, then a trailer with
// the totals and the joined partial-failure error (dist.StreamLine is
// the wire format; dist.DecodeMatrixStream the client-side decoder).
//
// Streaming claims an in-flight computation slot like any other request
// but bypasses singleflight: a stream's value is watching *this* sweep's
// progression, and two identical streams sharing one body would tangle
// their chunk timing for a micro-optimisation nobody asked for.
func (s *Server) streamMatrix(w http.ResponseWriter, r *http.Request, key string, benches []string, depths []int, modes []cpu.PredMode, maxInsts int64) {
	select {
	case s.inflight <- struct{}{}:
	default:
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("server at capacity (%d computations in flight; see -max-inflight)", cap(s.inflight)))
		return
	}
	defer func() { <-s.inflight }()
	if s.testGate != nil {
		s.testGate(key)
	}
	s.computes.Add(1)
	ctx, cancel := s.requestContext(r)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	var mu sync.Mutex
	emit := func(line dist.StreamLine) {
		mu.Lock()
		defer mu.Unlock()
		// A short write means the client went away; the sweep still runs to
		// completion (or cancellation via the request context) either way.
		_, _ = w.Write(dist.EncodeStreamLine(line))
		if fl != nil {
			fl.Flush()
		}
	}

	results, err := s.runner.RunEach(ctx, sim.MatrixSpecs(benches, depths, modes, maxInsts), func(i int, res sim.Result, err error) {
		if err == nil {
			emit(dist.StreamLine{Result: &res})
		}
	})
	emit(dist.StreamLine{Done: &dist.StreamTrailer{
		MaxInsts: maxInsts, Cells: len(results), Error: errString(err, ""),
	}})
}

// --- GET/PUT /v1/cache/{key} ----------------------------------------------

// cacheFor returns the result cache the peer endpoints serve, or writes
// the reason there is none.
func (s *Server) cacheFor(w http.ResponseWriter) (*sim.Cache, bool) {
	c := s.cfg.Engine.Cache
	if c == nil {
		writeError(w, http.StatusNotFound, "this daemon runs without a result cache")
		return nil, false
	}
	return c, true
}

// handleCacheGet serves one raw cache entry to a peer. The payload is
// the entry's self-describing bytes; the requesting peer validates them
// (version, key, checksum) before trusting anything, so this endpoint
// can stay a dumb byte server.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !storage.ValidKey(key) {
		writeError(w, http.StatusBadRequest, "cache key must be 64 lowercase hex digits")
		return
	}
	c, ok := s.cacheFor(w)
	if !ok {
		return
	}
	b, ok := c.Raw(key)
	if !ok {
		writeError(w, http.StatusNotFound, "cache miss")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A short write means the peer went away; it will retry or recompute.
	_, _ = w.Write(b)
}

// handleCachePut accepts one entry pushed by a peer. The entry's
// envelope must describe the key it was pushed under (sim.Cache.PutRaw's
// validation); a malformed or mislabelled payload is rejected before it
// can touch the store, and even an accepted entry is re-validated by the
// typed read path before it is ever served.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !storage.ValidKey(key) {
		writeError(w, http.StatusBadRequest, "cache key must be 64 lowercase hex digits")
		return
	}
	c, ok := s.cacheFor(w)
	if !ok {
		return
	}
	b, err := io.ReadAll(io.LimitReader(r.Body, storage.MaxPeerEntry+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read entry: %v", err))
		return
	}
	if len(b) > storage.MaxPeerEntry {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("cache entry exceeds %d bytes", storage.MaxPeerEntry))
		return
	}
	if err := c.PutRaw(key, b); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- GET/POST /v1/workers -------------------------------------------------

type workersResponse struct {
	Workers []dist.WorkerStatus `json:"workers"`
}

type registerRequest struct {
	URL string `json:"url"`
}

// coordinatorFor returns the coordinator these endpoints manage, or
// writes why the daemon has none (solo and worker roles).
func (s *Server) coordinatorFor(w http.ResponseWriter) (*dist.Coordinator, bool) {
	c := s.cfg.Coordinator
	if c == nil {
		writeError(w, http.StatusNotFound, "this daemon is not a coordinator (see -role)")
		return nil, false
	}
	return c, true
}

func (s *Server) handleWorkersGet(w http.ResponseWriter, r *http.Request) {
	c, ok := s.coordinatorFor(w)
	if !ok {
		return
	}
	writeResponse(w, jsonResponse(http.StatusOK, workersResponse{Workers: c.Workers()}), false)
}

// handleWorkersPost registers a worker base URL with the coordinator, so
// a worker (or an operator) can join a running cluster without a
// coordinator restart. Registration is idempotent.
func (s *Server) handleWorkersPost(w http.ResponseWriter, r *http.Request) {
	c, ok := s.coordinatorFor(w)
	if !ok {
		return
	}
	var req registerRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if reject(w, sim.ValidateBaseURL(req.URL)) {
		return
	}
	c.AddWorker(req.URL)
	writeResponse(w, jsonResponse(http.StatusOK, workersResponse{Workers: c.Workers()}), false)
}
