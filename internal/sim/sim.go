package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/smt"
	"repro/internal/workload"
)

// DefaultMaxInsts is the per-run dynamic instruction budget used by the
// experiment drivers. The workloads reach steady state well within it.
const DefaultMaxInsts = 250_000

// Spec identifies one simulation run.
type Spec struct {
	Bench    string
	Depth    int
	Mode     cpu.PredMode
	MaxInsts int64
	// CutAtLoads selects the DDT chain-semantics ablation.
	CutAtLoads bool
	// ConfThreshold overrides the JRS threshold when non-zero. Zero means
	// "use the paper default" (cpu.DefaultConfig's 8), NOT "threshold 0";
	// there is no way to request a literal threshold of zero, which would
	// make every branch permanently high-confidence. Valid overrides are
	// 1..15 (the 4-bit JRS counter maximum); larger values are rejected by
	// the simulator (bpred.NewConfidence).
	ConfThreshold uint8
}

// String names the run.
func (s Spec) String() string {
	return fmt.Sprintf("%s/%dstage/%s", s.Bench, s.Depth, s.Mode)
}

// Config derives the full machine configuration the spec simulates. It is
// the single source of truth shared by the engine and the result cache, so
// a cache entry can never be served for a run that would have used
// different timing parameters.
func (s Spec) Config() cpu.Config {
	cfg := cpu.DefaultConfig(s.Depth, s.Mode)
	cfg.MaxInsts = s.MaxInsts
	if cfg.MaxInsts == 0 {
		cfg.MaxInsts = DefaultMaxInsts
	}
	cfg.CutAtLoads = s.CutAtLoads
	if s.ConfThreshold != 0 {
		cfg.ConfThreshold = s.ConfThreshold
	}
	return cfg
}

// Result pairs a spec with its statistics.
type Result struct {
	Spec  Spec
	Stats cpu.Stats
}

// Engine runs batches of specs on a bounded worker pool, optionally backed
// by a persistent result cache, replaying every cell from a
// record-once/replay-many trace store. The zero value is usable:
// GOMAXPROCS workers, no cache, a private trace store.
type Engine struct {
	// Workers bounds concurrent simulations (and goroutine spawn);
	// <= 0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is consulted before simulating and updated
	// after every successful run.
	Cache *Cache
	// Traces supplies each benchmark's correct-path dynamic stream as a
	// shared recorded trace, so N configurations of one benchmark cost
	// one VM execution plus N timing replays. Replayed statistics are
	// identical to live-VM statistics (the determinism contract the
	// result cache already relies on; see
	// TestTraceStoreMatchesLiveSimulation). When nil, the engine records
	// into a private store opened on first use.
	Traces *TraceStore

	// ownTraces is the private store traces opens when Traces is nil.
	ownTraces     *TraceStore
	ownTracesOnce sync.Once

	simulated atomic.Int64
	cacheHits atomic.Int64

	// enginePools recycles cpu.Engines per configuration fingerprint:
	// a sweep resets and reuses an engine for every cell that shares a
	// machine configuration instead of re-allocating its tables, rings
	// and DDT matrix per cell (cpu.Engine.Reset is pinned bit-identical
	// to a fresh engine by TestEngineResetDeterminism).
	enginePools sync.Map // string -> *sync.Pool of *cpu.Engine
}

// engineFor returns a reusable engine for the configuration, freshly reset.
// Return it with putEngine after the run.
func (e *Engine) engineFor(cfg cpu.Config) (*cpu.Engine, *sync.Pool, error) {
	pi, _ := e.enginePools.LoadOrStore(cfg.Fingerprint(), &sync.Pool{})
	pool := pi.(*sync.Pool)
	if v := pool.Get(); v != nil {
		eng := v.(*cpu.Engine)
		eng.Reset()
		return eng, pool, nil
	}
	eng, err := cpu.NewEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	return eng, pool, nil
}

// Simulated reports how many cells this engine actually simulated (cache
// misses) over its lifetime.
func (e *Engine) Simulated() int64 { return e.simulated.Load() }

// CacheHits reports how many cells were served from the cache.
func (e *Engine) CacheHits() int64 { return e.cacheHits.Load() }

// cells adapts one batch of cells of one kind — branch-prediction specs
// or studies — to the engine's runner. The runner owns the cycle every
// cell shares (look up, simulate on a miss, count, write back); the
// adapter only keys, simulates and names its kind of cell, and points the
// runner at each cell's stats slot, so a hit decodes and a miss simulates
// straight into the batch's result slice.
type cells interface {
	// key returns cell i's cache key and kind, and the identity its
	// entry records.
	key(i int) (key, kind string, identity any, err error)
	// stats returns a pointer to cell i's stats slot.
	stats(i int) any
	// simulate computes cell i's stats into its slot.
	simulate(ctx context.Context, e *Engine, i int) error
	// name names cell i in errors.
	name(i int) string
}

// runCells runs a batch of n cells on the engine's bounded pool and
// returns each cell's simulation error (nil: the cell's slot holds its
// result) plus the batch's joined error, which also carries write-back
// failures of results that were kept. done (when non-nil) fires as each
// cell settles, from the worker goroutine that ran it.
func (e *Engine) runCells(ctx context.Context, n int, c cells, done func(i int, err error)) ([]error, error) {
	errs := make([]error, 2*n) // simulation errors, then write-back errors
	ForEach(ctx, e.Workers, n, func(i int) {
		errs[i], errs[n+i] = e.runCell(ctx, c, i)
		if done != nil {
			done(i, errs[i])
		}
	})
	return errs[:n], errors.Join(errs...)
}

// runCell runs one cell through the cache. A cache persistence failure is
// reported separately from a simulation failure: the simulated result is
// still valid and must not be discarded just because it could not be
// written back. Cancellation is checked here, between cells, and again at
// trace-replay chunk boundaries inside the engine — never inside the
// per-instruction hot loop.
func (e *Engine) runCell(ctx context.Context, c cells, i int) (simErr, cacheErr error) {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: %s: %w", c.name(i), err), nil
	}
	var key, kind string
	var id any
	if e.Cache != nil {
		var err error
		if key, kind, id, err = c.key(i); err != nil {
			return err, nil
		}
		if e.Cache.get(key, kind, c.stats(i)) {
			e.cacheHits.Add(1)
			return nil, nil
		}
	}
	if err := c.simulate(ctx, e, i); err != nil {
		return fmt.Errorf("sim: %s: %w", c.name(i), err), nil
	}
	e.simulated.Add(1)
	if e.Cache != nil {
		if err := e.Cache.put(key, kind, id, c.stats(i)); err != nil {
			return nil, fmt.Errorf("sim: cache %s (result kept): %w", c.name(i), err)
		}
	}
	return nil, nil
}

// completed compacts results in place to the cells that did not fail,
// keeping their order.
func completed[T any](results []T, errs []error) []T {
	out := results[:0]
	for i := range results {
		if errs[i] == nil {
			out = append(out, results[i])
		}
	}
	return out
}

// ForEach runs job(0) … job(n-1) on min(limit, n) goroutines (limit <= 0
// means GOMAXPROCS), each taking the next index until none remain, and
// returns when every job has finished. It is the stack's one worker pool:
// the engine runs every cell kind on it bounded by Engine.Workers, so
// -workers bounds the whole process's simulation concurrency, and the dist
// coordinator runs its jobs on it. A pool goroutine serves many jobs, so a
// batch pays goroutine start-up and stack growth once per goroutine, not
// once per job.
//
// Jobs check ctx themselves: each still executes once ctx is canceled (it
// must record its ctx error so the caller's per-job error slots are
// filled), but takes its fast cancellation path. A batch that starts
// canceled runs inline and spawns nothing. ForEach never returns with a
// spawned goroutine still live — cancellation can never leak workers.
func ForEach(ctx context.Context, limit, n int, job func(i int)) {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	if ctx.Err() != nil {
		for i := 0; i < n; i++ {
			job(i) // fast-fail path: records the cancellation error
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(limit, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				job(i)
			}
		}()
	}
	wg.Wait()
}

// specCells adapts a batch of specs to the runner.
type specCells struct {
	results []Result
}

func (c *specCells) key(i int) (string, string, any, error) {
	s := &c.results[i].Spec
	return CacheKey(*s, s.Config()), bpredKind, s, nil
}

func (c *specCells) stats(i int) any { return &c.results[i].Stats }

func (c *specCells) simulate(ctx context.Context, e *Engine, i int) (err error) {
	r := &c.results[i]
	r.Stats, err = e.simulate(ctx, r.Spec)
	return err
}

func (c *specCells) name(i int) string { return c.results[i].Spec.String() }

// traces returns the store the engine replays from: Traces, or else its
// private store.
func (e *Engine) traces() *TraceStore {
	if e.Traces != nil {
		return e.Traces
	}
	e.ownTracesOnce.Do(func() { e.ownTraces = NewTraceStore(0) })
	return e.ownTraces
}

// simulate executes one spec on a pooled engine: the trace store yields
// the benchmark's shared decoded trace (recording it on first request) and
// only the timing model runs per spec.
func (e *Engine) simulate(ctx context.Context, spec Spec) (cpu.Stats, error) {
	b, ok := workload.Lookup(spec.Bench)
	if !ok {
		return cpu.Stats{}, fmt.Errorf("unknown benchmark %q", spec.Bench)
	}
	cfg := spec.Config()
	eng, pool, err := e.engineFor(cfg)
	if err != nil {
		return cpu.Stats{}, err
	}
	// Return the engine on every path, including failures: engineFor
	// resets on reuse, so a dirty engine is safe to pool.
	defer pool.Put(eng)
	dec, err := e.traces().Get(ctx, b.Prog, cfg.MaxInsts)
	if err != nil {
		return cpu.Stats{}, err
	}
	// Replay against the trace's own program instance so the cursor's
	// decoded instructions and the engine's wrong-path text agree.
	return eng.RunSourceContext(ctx, dec.Prog(), dec.Cursor())
}

// Run executes the given specs on the worker pool and returns the results
// of every spec that completed, in spec order. Unlike a fail-fast runner it
// never discards finished work: when some specs fail, the completed
// results are returned alongside the per-spec errors joined with
// errors.Join. Cache persistence failures are joined into the error too,
// but their results are completed simulations and stay in the result set.
//
// Cancellation follows the same partial-result contract: cells finished
// before ctx was canceled are returned, the rest contribute joined
// context errors.
func (e *Engine) Run(ctx context.Context, specs []Spec) ([]Result, error) {
	return e.RunEach(ctx, specs, nil)
}

// RunEach is Run with a completion hook, the one every Runner takes: done
// (when non-nil) is invoked once per spec as that spec settles, from the
// worker goroutine that ran it, so callers can stream incremental cell
// results while the sweep is still in flight. done receives the spec's
// index and either its result or its failure (a failed spec reports a
// zero Result); a cache write-back failure does not fail the spec — it is
// only joined into the returned error. done must be safe for concurrent
// use. The returned slice and joined error follow Run's partial-result
// contract exactly.
func (e *Engine) RunEach(ctx context.Context, specs []Spec, done func(i int, r Result, err error)) ([]Result, error) {
	c := &specCells{results: make([]Result, len(specs))}
	for i, s := range specs {
		c.results[i].Spec = s
	}
	var settled func(i int, err error)
	if done != nil {
		settled = func(i int, err error) {
			if err != nil {
				done(i, Result{}, err)
			} else {
				done(i, c.results[i], nil)
			}
		}
	}
	errs, err := e.runCells(ctx, len(specs), c, settled)
	return completed(c.results, errs), err
}

// MatrixSpecs enumerates the (bench × depth × mode) grid in the canonical
// bench-major order RunMatrix runs it in. The service keys its matrix
// flights by these specs, in this order.
func MatrixSpecs(benches []string, depths []int, modes []cpu.PredMode, maxInsts int64) []Spec {
	specs := make([]Spec, 0, len(benches)*len(depths)*len(modes))
	for _, b := range benches {
		for _, d := range depths {
			for _, md := range modes {
				specs = append(specs, Spec{Bench: b, Depth: d, Mode: md, MaxInsts: maxInsts})
			}
		}
	}
	return specs
}

// Runner executes sweeps. The Engine runs their cells on this process's
// pool and cache; dist's Coordinator fans them out to worker daemons.
// Both return the same cells in the same order under the same
// partial-result contract, so a front end holds one Runner and renders
// its results the same way in either role.
type Runner interface {
	// RunEach runs the specs under Engine.RunEach's contract: the
	// completed results in spec order, per-spec failures joined, and done
	// (when non-nil) fired per spec as it settles.
	RunEach(ctx context.Context, specs []Spec, done func(i int, r Result, err error)) ([]Result, error)
	// RunSMTGrid runs the SMT fetch-policy study: every mix under every
	// policy of SMTPolicies.
	RunSMTGrid(ctx context.Context, mixes []workload.Mix, cfg smt.Config) (*SMTGrid, error)
	// RunVPredGrid runs the selective value-prediction ablation: every
	// (benchmark × predictor), all instructions and selective.
	RunVPredGrid(ctx context.Context, benches, predictors []string, params VPredParams) (*VPredGrid, error)
}

var _ Runner = (*Engine)(nil)

// RunMatrix runs every (bench × depth × mode) combination requested on r
// and collects the completed cells into a Matrix. On partial failure the
// matrix holds every completed cell and the error joins the per-cell
// failures; renderers that go through Matrix.Lookup degrade gracefully.
func RunMatrix(ctx context.Context, r Runner, benches []string, depths []int, modes []cpu.PredMode, maxInsts int64) (*Matrix, error) {
	return runMatrix(ctx, r, MatrixSpecs(benches, depths, modes, maxInsts), maxInsts)
}

// runMatrix runs the specs (all at the budget) on r and folds the
// completed cells into a Matrix, under Run's partial-result contract.
func runMatrix(ctx context.Context, r Runner, specs []Spec, maxInsts int64) (*Matrix, error) {
	res, err := r.RunEach(ctx, specs, nil)
	mx := &Matrix{m: make(map[matrixKey]cpu.Stats, len(res)), MaxInsts: maxInsts}
	for _, r := range res {
		mx.Add(r)
	}
	return mx, err
}

// Modes lists the four Section 5 configurations in presentation order.
var Modes = []cpu.PredMode{
	cpu.PredBaseline2Lvl,
	cpu.PredARVICurrent,
	cpu.PredARVILoadBack,
	cpu.PredARVIPerfect,
}

// Depths lists the evaluated pipeline depths.
var Depths = []int{20, 40, 60}

// matrixKey indexes a result grid by the full spec identity (minus the
// instruction budget, which is a per-matrix property). The ablation knobs
// are part of the key: an ablated run (CutAtLoads, or an explicit
// ConfThreshold override) occupies its own cell instead of silently
// overwriting the baseline result at the same (bench, depth, mode)
// coordinates.
type matrixKey struct {
	bench         string
	depth         int
	mode          cpu.PredMode
	cutAtLoads    bool
	confThreshold uint8
}

// specKey normalises a spec into its matrix cell identity. The threshold
// is the *effective* one the run uses (Spec.Config resolves the 0-means-
// default alias), so the matrix agrees with the cache on spec identity:
// an explicit ConfThreshold equal to the paper default lands in the same
// cell as the baseline spec, exactly as it shares the baseline's cache
// entry.
func specKey(s Spec) matrixKey {
	return matrixKey{s.Bench, s.Depth, s.Mode, s.CutAtLoads, s.Config().ConfThreshold}
}

// Matrix holds a grid of results addressable by (bench, depth, mode). A
// matrix may be partial: renderers should use Lookup and skip or mark
// missing cells.
type Matrix struct {
	m        map[matrixKey]cpu.Stats
	MaxInsts int64
}

// Add inserts one completed result into the grid, keyed by the result's
// full spec identity; ablation cells coexist with their baseline siblings.
func (m *Matrix) Add(r Result) {
	if m.m == nil {
		m.m = make(map[matrixKey]cpu.Stats)
	}
	m.m[specKey(r.Spec)] = r.Stats
}

// Len reports the number of populated cells.
func (m *Matrix) Len() int { return len(m.m) }

// Lookup returns the stats for one non-ablated cell (CutAtLoads false,
// default ConfThreshold) and whether it is populated. Renderers use it so
// that partial grids (crashed or still-resuming sweeps) degrade to "n/a"
// cells instead of panicking. Ablation cells are addressed with
// LookupSpec.
func (m *Matrix) Lookup(bench string, depth int, mode cpu.PredMode) (cpu.Stats, bool) {
	st, ok := m.m[specKey(Spec{Bench: bench, Depth: depth, Mode: mode})]
	return st, ok
}

// LookupSpec returns the stats for the cell with the spec's exact
// identity, including the ablation knobs.
func (m *Matrix) LookupSpec(s Spec) (cpu.Stats, bool) {
	st, ok := m.m[specKey(s)]
	return st, ok
}

// Get returns the stats for one cell; it panics on a missing cell (caller
// bug: the cell was not part of the requested grid). Prefer Lookup
// anywhere a partial grid is possible.
func (m *Matrix) Get(bench string, depth int, mode cpu.PredMode) cpu.Stats {
	st, ok := m.Lookup(bench, depth, mode)
	if !ok {
		panic(fmt.Sprintf("sim: no result for %s/%d/%v", bench, depth, mode))
	}
	return st
}
