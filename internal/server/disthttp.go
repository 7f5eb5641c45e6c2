package server

// The distribution-facing endpoints: the streaming matrix variant and
// worker registration. See internal/dist's package comment and
// DESIGN.md's distributed execution section.

import (
	"fmt"
	"net/http"
	"sync"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/sim"
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
