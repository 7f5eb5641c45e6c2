package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/smt"
	"repro/internal/workload"
)

// Tuning defaults; see the corresponding Coordinator fields.
const (
	// DefaultRetries is how many *additional* workers a failed job is
	// offered before falling back to local compute.
	DefaultRetries = 2
	// DefaultBackoff is the base delay before a job's first retry; each
	// further retry doubles it.
	DefaultBackoff = 50 * time.Millisecond
	// DefaultCooldown is how long a worker that just failed is
	// deprioritised in placement rankings.
	DefaultCooldown = 2 * time.Second
	// maxResponse caps how much of a worker response the coordinator will
	// read; a confused worker must not balloon coordinator memory. Study
	// responses carry a full grid slice, so the cap is generous.
	maxResponse = 8 << 20
	// inflightPerProc bounds a coordinator's concurrently dispatched jobs
	// (and its goroutines: jobs run on sim.ForEach) per GOMAXPROCS.
	inflightPerProc = 4
)

// Coordinator fans per-cell jobs out to worker arvid daemons and merges
// their answers. The zero value is not useful — at minimum register
// workers with SetWorkers/AddWorker or provide a Local engine; a
// Coordinator with neither fails every job.
//
// All fields are read-only after first use; the worker set itself may be
// mutated concurrently through AddWorker.
type Coordinator struct {
	// Local, when non-nil, computes jobs whose remote attempts are all
	// spent — the cluster can lose every worker and a sweep still
	// completes, just slower. Nil means remote-only (a fully failed job
	// reports its joined worker errors).
	Local *sim.Engine
	// Client issues worker requests; nil means a client with a 60-second
	// timeout. Per-request contexts still apply, so a canceled sweep
	// abandons in-flight calls immediately.
	Client *http.Client
	// Retries bounds the additional workers a failed job is offered
	// (total remote attempts = Retries+1, clipped to the worker count).
	// <= 0 means DefaultRetries.
	Retries int
	// Backoff is the delay before a job's first retry, doubling per
	// further retry. <= 0 means DefaultBackoff.
	Backoff time.Duration
	// Cooldown is how long a failing worker is deprioritised (never
	// excluded: a wrong health guess costs latency, not correctness).
	// <= 0 means DefaultCooldown.
	Cooldown time.Duration
	// PerWorker bounds concurrent jobs in flight to one worker. It should
	// not exceed the worker's -max-inflight, or bursts bounce off the
	// worker's 429 guard and burn retries. <= 0 means GOMAXPROCS (half
	// the worker default, leaving room for the worker's other clients).
	PerWorker int

	// now is a test seam for health bookkeeping; nil means time.Now.
	now func() time.Time

	mu      sync.RWMutex
	workers []*worker

	remote  atomic.Int64 // jobs answered by a worker
	retried atomic.Int64 // extra remote attempts after a failure
	local   atomic.Int64 // jobs that fell back to the local engine
}

// worker tracks one registered worker daemon and its health.
type worker struct {
	base string // normalised base URL, no trailing slash
	sem  chan struct{}

	mu        sync.Mutex
	failures  int64
	downUntil time.Time
}

// fail records a failed call, starting (or extending) the cooldown.
func (w *worker) fail(now time.Time, cooldown time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failures++
	w.downUntil = now.Add(cooldown)
}

// ok records a successful call, ending any cooldown.
func (w *worker) ok() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.downUntil = time.Time{}
}

// available reports whether the worker is outside its failure cooldown.
func (w *worker) available(now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !now.Before(w.downUntil)
}

func (w *worker) failureCount() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failures
}

// SetWorkers replaces the worker set with the given base URLs
// (deduplicated, trailing slashes trimmed).
func (c *Coordinator) SetWorkers(bases []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers = nil
	for _, b := range bases {
		c.addLocked(b)
	}
}

// AddWorker registers one worker base URL; it reports whether the worker
// was new. Safe to call while sweeps are in flight — jobs dispatched
// after the call may land on the new worker.
func (c *Coordinator) AddWorker(base string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addLocked(base)
}

func (c *Coordinator) addLocked(base string) bool {
	base = normalizeBase(base)
	if base == "" {
		return false
	}
	for _, w := range c.workers {
		if w.base == base {
			return false
		}
	}
	per := c.PerWorker
	if per <= 0 {
		per = runtime.GOMAXPROCS(0)
	}
	c.workers = append(c.workers, &worker{base: base, sem: make(chan struct{}, per)})
	return true
}

func normalizeBase(base string) string {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return base
}

// WorkerStatus is one worker's health snapshot, for /healthz.
type WorkerStatus struct {
	URL      string `json:"url"`
	Failures int64  `json:"failures"`
	Down     bool   `json:"down"`
}

// Workers snapshots the registered workers in registration order.
func (c *Coordinator) Workers() []WorkerStatus {
	now := c.clock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]WorkerStatus, len(c.workers))
	for i, w := range c.workers {
		out[i] = WorkerStatus{URL: w.base, Failures: w.failureCount(), Down: !w.available(now)}
	}
	return out
}

// RemoteJobs, RetriedJobs and LocalJobs report lifetime counters: jobs a
// worker answered, extra remote attempts spent on failures, and jobs the
// local engine computed after remote attempts were exhausted. The chaos
// suite pins loss cost with these (a worker death mid-sweep must cost
// only the lost cells' recompute).
func (c *Coordinator) RemoteJobs() int64  { return c.remote.Load() }
func (c *Coordinator) RetriedJobs() int64 { return c.retried.Load() }
func (c *Coordinator) LocalJobs() int64   { return c.local.Load() }

func (c *Coordinator) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return defaultClient
}

var defaultClient = &http.Client{Timeout: 60 * time.Second}

// rank orders the workers for one job: rendezvous (highest-random-weight)
// hashing over (worker, job key), with workers in failure cooldown
// stably moved to the back. Rendezvous gives each key a stable worker
// preference independent of registration order, so a cell keeps hitting
// the worker whose cache holds it, and adding a worker only moves the
// keys that now rank it first.
func (c *Coordinator) rank(key string) []*worker {
	c.mu.RLock()
	ws := make([]*worker, len(c.workers))
	copy(ws, c.workers)
	c.mu.RUnlock()
	scores := make(map[*worker]uint64, len(ws))
	for _, w := range ws {
		scores[w] = rendezvousScore(w.base, key)
	}
	sort.SliceStable(ws, func(i, j int) bool { return scores[ws[i]] > scores[ws[j]] })
	now := c.clock()
	ordered := make([]*worker, 0, len(ws))
	var cooling []*worker
	for _, w := range ws {
		if w.available(now) {
			ordered = append(ordered, w)
		} else {
			cooling = append(cooling, w)
		}
	}
	return append(ordered, cooling...)
}

// rendezvousScore hashes (worker, key) into the weight the ranking
// maximises.
func rendezvousScore(base, key string) uint64 {
	h := sha256.New()
	h.Write([]byte(base))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return binary.BigEndian.Uint64(h.Sum(nil))
}

// retries resolves the Retries default.
func (c *Coordinator) retries() int {
	if c.Retries <= 0 {
		return DefaultRetries
	}
	return c.Retries
}

// sleepBackoff waits out the delay before retry number attempt (1-based),
// doubling per attempt, unless ctx ends first.
func (c *Coordinator) sleepBackoff(ctx context.Context, attempt int) error {
	d := c.Backoff
	if d <= 0 {
		d = DefaultBackoff
	}
	d <<= attempt - 1
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// runJob drives one job through placement, bounded retries and the local
// fallback. remote performs the job against one worker base URL; local
// (nil when no fallback exists) computes it on the coordinator.
func (c *Coordinator) runJob(ctx context.Context, key string, remote func(ctx context.Context, base string) error, local func(ctx context.Context) error) error {
	order := c.rank(key)
	attempts := c.retries() + 1
	if attempts > len(order) {
		attempts = len(order)
	}
	var errs []error
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i > 0 {
			c.retried.Add(1)
			if err := c.sleepBackoff(ctx, i); err != nil {
				return err
			}
		}
		w := order[i]
		err := c.withWorker(ctx, w, remote)
		if err == nil {
			w.ok()
			c.remote.Add(1)
			return nil
		}
		if ctx.Err() != nil {
			// The failure is our own cancellation propagating, not the
			// worker's; report it as such and spend no more attempts.
			return ctx.Err()
		}
		w.fail(c.clock(), c.cooldown())
		errs = append(errs, fmt.Errorf("worker %s: %w", w.base, err))
	}
	if local != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.local.Add(1)
		if err := local(ctx); err != nil {
			return errors.Join(append(errs, err)...)
		}
		return nil
	}
	if len(errs) == 0 {
		return errors.New("dist: no workers registered and no local engine")
	}
	return errors.Join(errs...)
}

func (c *Coordinator) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return DefaultCooldown
	}
	return c.Cooldown
}

// withWorker runs one remote attempt under the worker's inflight bound
// (so a burst of jobs cannot bounce off the worker's 429 guard).
func (c *Coordinator) withWorker(ctx context.Context, w *worker, remote func(ctx context.Context, base string) error) error {
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-w.sem }()
	return remote(ctx, w.base)
}

// --- jobs -----------------------------------------------------------------

// job is one distributed cell job, the unit every sweep kind decomposes
// into: its placement key, the worker request that computes it, the check
// a worker's answer must pass, and how the local engine computes it once
// every worker attempt is spent. A kind of cell needs only a job
// constructor; placement, retries, answer checking and the local
// fallback are run's.
type job[A any] struct {
	name  string                                              // names the job in errors
	key   string                                              // placement key: the cell's cache key
	err   error                                               // a job whose key could not be computed fails unplaced
	path  string                                              // worker endpoint
	req   any                                                 // worker request body
	check func(A) error                                       // rejects an answer for any other cell
	local func(ctx context.Context, e *sim.Engine) (A, error) // the fallback computation
}

// run drives the job through runJob's placement, retries and local
// fallback, POSTing it to each worker it tries. A worker answering for
// any other cell than the one asked for — another budget, another
// ablation knob, a build with other study defaults — is a protocol bug,
// not data: its answer fails the job's check and counts as a failed
// attempt, so a healthy worker (or the local engine) re-answers.
func (j job[A]) run(ctx context.Context, c *Coordinator) (A, error) {
	var answer A
	if err := ctx.Err(); err != nil {
		return answer, fmt.Errorf("dist: %s: %w", j.name, err)
	}
	if j.err != nil {
		return answer, fmt.Errorf("dist: %s: %w", j.name, j.err)
	}
	var local func(context.Context) error
	if c.Local != nil {
		local = func(ctx context.Context) error {
			a, err := j.local(ctx, c.Local)
			if err != nil {
				return fmt.Errorf("local: %w", err)
			}
			answer = a
			return nil
		}
	}
	err := c.runJob(ctx, j.key, func(ctx context.Context, base string) error {
		var a A
		if err := c.postJSON(ctx, base, j.path, j.req, &a); err != nil {
			return err
		}
		if err := j.check(a); err != nil {
			return err
		}
		answer = a
		return nil
	}, local)
	if err != nil {
		return answer, fmt.Errorf("dist: %s: %w", j.name, err)
	}
	return answer, nil
}

// runJobs runs the jobs on sim's bounded pool (at most inflightPerProc ×
// GOMAXPROCS at a time) and returns the answers of every job that
// completed, in job order, with the per-job errors joined — the engine's
// partial-result contract. done (when non-nil) fires per job as it
// settles; a failed job reports its error and a zero answer.
func runJobs[A any](ctx context.Context, c *Coordinator, jobs []job[A], done func(i int, a A, err error)) ([]A, error) {
	answers := make([]A, len(jobs))
	errs := make([]error, len(jobs))
	sim.ForEach(ctx, inflightPerProc*runtime.GOMAXPROCS(0), len(jobs), func(i int) {
		answers[i], errs[i] = jobs[i].run(ctx, c)
		if done != nil {
			done(i, answers[i], errs[i])
		}
	})
	finished := answers[:0]
	for i := range answers {
		if errs[i] == nil {
			finished = append(finished, answers[i])
		}
	}
	return finished, errors.Join(errs...)
}

// --- wire helpers ---------------------------------------------------------

// postJSON POSTs req to base+path and decodes a 200 response into out.
// Any other status is surfaced as an error carrying the worker's own
// message when it sent one.
func (c *Coordinator) postJSON(ctx context.Context, base, path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("encode request: %w", err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse))
	if err != nil {
		return fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb ErrorBody
		if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("status %d: %s", resp.StatusCode, eb.Error)
		}
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// --- matrix jobs ----------------------------------------------------------

// specJob is one matrix cell: a POST /v1/run placed by the cell's cache
// key, whose answer must be for exactly the spec asked for.
func specJob(spec sim.Spec) job[sim.Result] {
	return job[sim.Result]{
		name: spec.String(),
		key:  sim.CacheKey(spec, spec.Config()),
		path: "/v1/run",
		req: RunRequest{
			Bench: spec.Bench, Depth: spec.Depth, Mode: spec.Mode.String(),
			MaxInsts: spec.MaxInsts, CutAtLoads: spec.CutAtLoads,
			ConfThreshold: uint(spec.ConfThreshold),
		},
		check: func(r sim.Result) error {
			if r.Spec != spec {
				return fmt.Errorf("answered for %+v, asked for %+v", r.Spec, spec)
			}
			return nil
		},
		local: func(ctx context.Context, e *sim.Engine) (sim.Result, error) {
			results, err := e.Run(ctx, []sim.Spec{spec})
			if err != nil {
				return sim.Result{}, err
			}
			return results[0], nil
		},
	}
}

// RunSpecs executes the specs as distributed jobs and returns the
// completed results in spec order, mirroring sim.Engine.RunEach: done
// (when non-nil) fires per spec as it settles, partial results survive
// partial failure, and per-spec errors are joined.
func (c *Coordinator) RunSpecs(ctx context.Context, specs []sim.Spec, done func(i int, r sim.Result, err error)) ([]sim.Result, error) {
	jobs := make([]job[sim.Result], len(specs))
	for i, spec := range specs {
		jobs[i] = specJob(spec)
	}
	return runJobs(ctx, c, jobs, done)
}

// Matrix runs the (bench × depth × mode) grid distributed and folds the
// answers into a sim.Matrix. Rendering the returned matrix through the
// same Export path as a local run is what makes distributed output
// byte-identical to single-node output: cell identity (the cache key)
// and iteration order are shared, only the executor differs.
func (c *Coordinator) Matrix(ctx context.Context, benches []string, depths []int, modes []cpu.PredMode, maxInsts int64) (*sim.Matrix, error) {
	res, err := c.RunSpecs(ctx, sim.MatrixSpecs(benches, depths, modes, maxInsts), nil)
	mx := &sim.Matrix{MaxInsts: maxInsts}
	for _, r := range res {
		mx.Add(r)
	}
	return mx, err
}

// --- study jobs -----------------------------------------------------------

// smtJob is one SMT mix: a one-mix POST /v1/study/smt. Its placement key
// is the mix's first policy cell's study key: any of the mix's cells pins
// the full configuration, and one stable choice keeps the mix's placement
// (and so its cache locality) consistent. The answer must carry the
// asked-for model configuration and one cell per policy, all of the mix.
func smtJob(mix workload.Mix, cfg smt.Config) job[sim.SMTGrid] {
	key, err := sim.StudyKey(sim.SMTStudy{Mix: mix, Policy: sim.SMTPolicies[0], Config: cfg})
	return job[sim.SMTGrid]{
		name: "smt " + mix.Name,
		key:  key,
		err:  err,
		path: "/v1/study/smt",
		req:  SMTRequest{Mixes: []string{mix.Name}, MaxCycles: cfg.MaxCycles},
		check: func(g sim.SMTGrid) error {
			if g.Config != cfg {
				return fmt.Errorf("answered under config %+v, asked for %+v", g.Config, cfg)
			}
			if len(g.Cells) != len(sim.SMTPolicies) {
				return fmt.Errorf("answered %d cells for mix %s, want %d", len(g.Cells), mix.Name, len(sim.SMTPolicies))
			}
			for _, cell := range g.Cells {
				if cell.Mix != mix.Name {
					return fmt.Errorf("answered for mix %s, asked for %s", cell.Mix, mix.Name)
				}
			}
			return nil
		},
		local: func(ctx context.Context, e *sim.Engine) (sim.SMTGrid, error) {
			g, err := e.RunSMTGrid(ctx, []workload.Mix{mix}, sim.SMTPolicies, cfg)
			return *g, err
		},
	}
}

// SMTGrid runs the SMT fetch-policy study distributed, one job per mix
// (a mix's policy cells share its thread set; splitting finer would buy
// little and cost the worker its per-mix program resolution). The
// returned grid appends the per-mix answers' cells in request order —
// exactly sim.Engine.RunSMTGrid's mix-major run order, so the merged
// grid is byte-identical to a single-node run.
func (c *Coordinator) SMTGrid(ctx context.Context, mixes []workload.Mix, cfg smt.Config) (*sim.SMTGrid, error) {
	jobs := make([]job[sim.SMTGrid], len(mixes))
	for i, mix := range mixes {
		jobs[i] = smtJob(mix, cfg)
	}
	answers, err := runJobs(ctx, c, jobs, nil)
	g := &sim.SMTGrid{Config: cfg, Cells: []sim.SMTRecord{}, Mixes: mixes, Policies: sim.SMTPolicies}
	for _, a := range answers {
		g.Cells = append(g.Cells, a.Cells...)
	}
	return g, err
}

// vpredJob is one (bench × predictor) pair: a one-pair POST
// /v1/study/vpred (its all/selective cells share the bench's trace),
// placed by the pair's all-instructions study key. The answer must carry
// the asked-for parameters and both cells of the pair.
func vpredJob(bench, pred string, params sim.VPredParams) job[sim.VPredGrid] {
	key, err := sim.StudyKey(sim.VPredStudy{Bench: bench, Predictor: pred, Selective: false, Params: params})
	return job[sim.VPredGrid]{
		name: "vpred " + bench + "/" + pred,
		key:  key,
		err:  err,
		path: "/v1/study/vpred",
		req: VPredRequest{
			Benches: []string{bench}, Predictors: []string{pred},
			MaxInsts: params.MaxInsts, DepThreshold: params.DepThreshold,
		},
		check: func(g sim.VPredGrid) error {
			if g.Params != params {
				return fmt.Errorf("answered under params %+v, asked for %+v", g.Params, params)
			}
			if len(g.Cells) != 2 {
				return fmt.Errorf("answered %d cells for %s/%s, want 2", len(g.Cells), bench, pred)
			}
			for _, cell := range g.Cells {
				if cell.Bench != bench || cell.Predictor != pred {
					return fmt.Errorf("answered for %s/%s, asked for %s/%s", cell.Bench, cell.Predictor, bench, pred)
				}
			}
			return nil
		},
		local: func(ctx context.Context, e *sim.Engine) (sim.VPredGrid, error) {
			g, err := e.RunVPredGrid(ctx, []string{bench}, []string{pred}, params)
			return *g, err
		},
	}
}

// VPredGrid runs the value-prediction study distributed, one job per
// (bench × predictor) pair. The returned grid appends the per-pair
// answers' cells in request order — exactly sim.Engine.RunVPredGrid's
// bench-major run order.
func (c *Coordinator) VPredGrid(ctx context.Context, benches, predictors []string, params sim.VPredParams) (*sim.VPredGrid, error) {
	var jobs []job[sim.VPredGrid]
	for _, b := range benches {
		for _, p := range predictors {
			jobs = append(jobs, vpredJob(b, p, params))
		}
	}
	answers, err := runJobs(ctx, c, jobs, nil)
	g := &sim.VPredGrid{Params: params, Cells: []sim.VPredRecord{}, Benches: benches, Predictors: predictors}
	for _, a := range answers {
		g.Cells = append(g.Cells, a.Cells...)
	}
	return g, err
}
