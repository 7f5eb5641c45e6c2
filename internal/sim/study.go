package sim

import (
	"context"
	"encoding/json"
	"fmt"
)

// Study is one cache-keyable experiment cell of any of the paper's
// Section 3 applications: the SMT fetch-policy and selective
// value-prediction studies run through RunStudies on the same cell runner
// as the branch-prediction Spec (Engine.Run) — one worker pool, one cache
// entry format, one partial-result contract. Spec is not itself a Study
// only because it additionally threads through the engine's trace store
// and pooled cpu.Engines, which Simulate's signature cannot reach.
//
// A Study is a pure value: two studies with equal identities must simulate
// to equal stats (the determinism contract the cache relies on).
type Study interface {
	// Kind names the study family (e.g. "smt", "vpred") and namespaces
	// its cache entries, so two families can never alias a key.
	Kind() string
	// String names the run for error messages and logs.
	String() string
	// Identity returns a plain JSON-marshalable value that fully
	// determines the study's output. It is hashed into the cache key, so
	// it must cover every knob that could change the stats — including
	// the content identity of the programs simulated.
	Identity() any
	// Simulate executes the study and returns its stats. The value must
	// JSON round-trip losslessly: a cache hit returns the decoded form
	// and warm re-runs must render byte-identical artifacts.
	Simulate() (any, error)
}

// StudyResult pairs a study with its (simulated or cache-decoded) stats.
type StudyResult[S Study, R any] struct {
	Study S
	Stats R
}

// RunStudies executes the studies on the engine's worker pool with the
// same runner, cache and partial-result contract as Engine.Run: every
// study that completed is returned, in study order, and per-study
// failures are joined with errors.Join. When the engine has a cache, a
// study whose entry is present decodes it instead of simulating, and
// every fresh result is persisted; a persistence failure joins the error
// but never discards the computed result. R is the concrete stats type
// the studies' Simulate returns.
//
// Cancellation is checked between studies, not inside Study.Simulate:
// study cells are short (a handful of bounded engine runs), so keeping
// the interface context-free costs at most one cell of latency while
// sparing every implementation the plumbing.
func RunStudies[S Study, R any](ctx context.Context, e *Engine, studies []S) ([]StudyResult[S, R], error) {
	c := &studyCells[S, R]{results: make([]StudyResult[S, R], len(studies))}
	for i, s := range studies {
		c.results[i].Study = s
	}
	errs, err := e.runCells(ctx, len(studies), c, nil)
	return completed(c.results, errs), err
}

// studyCells adapts a batch of studies to the runner. The study's
// identity is marshalled and hashed once per cell; the lookup and the
// write-back share it.
type studyCells[S Study, R any] struct {
	results []StudyResult[S, R]
}

func (c *studyCells[S, R]) key(i int) (string, string, any, error) {
	s := c.results[i].Study
	key, id, err := studyKey(s)
	return key, s.Kind(), json.RawMessage(id), err
}

func (c *studyCells[S, R]) stats(i int) any { return &c.results[i].Stats }

func (c *studyCells[S, R]) simulate(_ context.Context, _ *Engine, i int) error {
	v, err := c.results[i].Study.Simulate()
	if err != nil {
		return err
	}
	r, ok := v.(R)
	if !ok {
		return fmt.Errorf("stats type mismatch: Simulate returned %T, runner expects %T", v, r)
	}
	c.results[i].Stats = r
	return nil
}

func (c *studyCells[S, R]) name(i int) string {
	s := c.results[i].Study
	return s.Kind() + " " + s.String()
}

// studyKey computes a study's cache key and returns the marshalled
// identity alongside it, so callers that need both (the lookup/write-back
// cycle) marshal the identity once.
//
//arvi:det
func studyKey(s Study) (key string, id []byte, err error) {
	id, err = json.Marshal(s.Identity())
	if err != nil {
		return "", nil, fmt.Errorf("sim: study key %s %s: %w", s.Kind(), s, err)
	}
	return hashKey(struct {
		Version  int
		Kind     string
		Identity json.RawMessage
	}{cacheVersion, s.Kind(), id}), id, nil
}

// StudyKey computes the content-hash cache key for a study: a hex SHA-256
// over the cache format version, the study kind, and the JSON encoding of
// the study's identity. Exposed for tests and external tooling that wants
// to locate or invalidate specific cells.
//
//arvi:det
func StudyKey(s Study) (string, error) {
	key, _, err := studyKey(s)
	return key, err
}
