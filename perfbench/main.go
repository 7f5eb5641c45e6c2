// Command perfbench is the repository's end-to-end benchmark. It drives an
// in-process arvid (server.New over a sim.Engine with an on-disk result
// cache and trace store, behind a loopback listener) from a single load
// generator, checks every answer, and prints one JSON result line.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see README.md for why each exists and which layer metric
// should move which end-to-end metric):
//
//	matrix-cold   the cold 96-cell /v1/matrix on a fresh daemon
//	serve-warm    2 closed-loop clients on a daemon over a pre-filled cache
//	cluster-cold  the cold matrix through a coordinator and two workers
//	studies-cold  the cold /v1/study/smt and /v1/study/vpred
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run. The process exits
// non-zero when any answer was wrong or any exact count was off.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/smt"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	budget   budget
	warm     float64 // seconds of a cold workload's warm phase
	traceN   int     // warm requests of each traced-run pass
	setupN   int     // set-up repetitions behind setup_s
}

// The budgets digests.json holds answers for: the paper's, which every
// benchmark run uses, and the smoke test's tiny one.
var (
	paperBudget = budget{insts: sim.DefaultMaxInsts, smtCycles: smt.DefaultConfig().MaxCycles}
	smokeBudget = budget{insts: 2000, smtCycles: 2000}
)

// prefillSweeps is how many set-up sweeps serve-warm, which has no cold
// phase, runs for sweep_s.
const prefillSweeps = 3

func defaultOptions() options {
	return options{
		seed:    1,
		seconds: 10,
		workdir: ".bench_build/tmp",
		budget:  paperBudget,
		warm:    8,
		traceN:  300,
		setupN:  9,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

//go:embed digests.json
var digestsJSON []byte

// loadDigests returns the expected answer digests for the budget, or nil
// when digests.json has none for it.
func loadDigests(b budget) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return all[b.String()], nil
}

func main() {
	o := defaultOptions()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", o.seed, "seed of the serve mix")
	fs.Float64Var(&o.seconds, "seconds", o.seconds, "seconds the run measures")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", o.workdir, "directory for daemon state and profiles")
	record := fs.Bool("record-digests", false, "print digests.json recomputed at the paper and smoke budgets, and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	if *record {
		if err := recordDigests(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result. Answer and count
// failures land in the result; an error means the run itself could not
// proceed.
func run(ctx context.Context, o options) (*result, error) {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	want, err := loadDigests(o.budget)
	if err != nil {
		return nil, err
	}
	if want == nil {
		return nil, fmt.Errorf("digests.json has no digests for %s; run with -record-digests", o.budget)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	e := &env{o: o, w: w, base: base, ck: newChecker(want), cl: newClient()}
	defer e.cl.tr.CloseIdleConnections()

	var metrics map[string]metric
	if o.trace {
		metrics, err = runTraced(ctx, e)
	} else {
		metrics, err = runUntraced(ctx, e)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range e.ck.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	return &result{
		Correct:   e.ck.failed == 0,
		Attempted: e.ck.attempted,
		Failed:    e.ck.failed,
		Metrics:   metrics,
	}, nil
}

// runUntraced measures the end-to-end metrics:
//
//   - set-up: the prefill sweep (studies-cold; serve-warm runs it
//     prefillSweeps times and reports their median as sweep_s), then
//     o.setupN bring-ups of the deployment for setup_s;
//   - cold phase: cold passes, each on a fresh deployment, until
//     o.seconds have passed (at least one);
//   - warm phase: the seeded serve mix from GOMAXPROCS closed-loop
//     clients against the last deployment for o.warm seconds (serve-warm,
//     which has no cold phase, for o.seconds instead).
//
// The /v1/run tail is reported at p95, not p99: the p99 moved by a
// quarter from run to run on matrix-cold, whose warm phase shares the
// process with the resident trace heap the collector keeps marking.
// heap_peak_mb is the 95th percentile of the post-collection live heap
// over the timed region's collections (see heapSampler).
func runUntraced(ctx context.Context, e *env) (map[string]metric, error) {
	var sweeps []time.Duration
	if e.w.prefill && e.w.cold == nil {
		// serve-warm's only cold sweeps; one would make sweep_s a single
		// sample where the cold workloads report a median.
		for i := 0; i < prefillSweeps; i++ {
			d, err := e.prefill(ctx, nil)
			if err != nil {
				return nil, err
			}
			sweeps = append(sweeps, d)
		}
	} else if e.w.prefill {
		if _, err := e.prefill(ctx, nil); err != nil {
			return nil, err
		}
	}
	setup, err := e.measureSetup(ctx)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	heap := startHeapSampler()
	budget := time.Duration(e.o.seconds * float64(time.Second))
	t0 := time.Now()
	var dep *deployment
	if e.w.cold != nil {
		for dep == nil || time.Since(t0) < budget {
			if dep != nil {
				if err := dep.close(); err != nil {
					return nil, err
				}
			}
			if dep, _, err = e.deploy(nil); err != nil {
				return nil, err
			}
			sweeps = append(sweeps, e.coldPass(ctx, dep))
		}
	} else if dep, _, err = e.deploy(nil); err != nil {
		return nil, err
	}
	warm := time.Duration(e.o.warm * float64(time.Second))
	if e.w.cold == nil {
		warm = budget
	}
	// At least minWarm requests, so even a tiny run sees both kinds.
	const minWarm = 50
	stop := func(i int, elapsed time.Duration) bool { return i >= minWarm && elapsed >= warm }
	tw := time.Now()
	lat := closedLoop(ctx, e.cl, e.ck, dep.front.url, newMixGen(e.o.seed, e.o.budget), runtime.GOMAXPROCS(0), stop)
	warmWall := time.Since(tw)
	e.checkCounts(dep, "warm phase")
	if err := dep.close(); err != nil {
		return nil, err
	}
	peak := heap.stop()

	runs, mats := lat.by["run"], lat.by["matrix"]
	if len(runs) == 0 || len(mats) == 0 || len(sweeps) == 0 {
		return nil, fmt.Errorf("%s: no successful samples (runs %d, matrices %d, sweeps %d)",
			e.w.name, len(runs), len(mats), len(sweeps))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: sweeps %v; %d runs, %d matrices in the warm phase (%.2fs)\n",
		e.w.name, sweeps, len(runs), len(mats), warmWall.Seconds())
	return map[string]metric{
		"setup_s":       {setup.Seconds(), "s"},
		"sweep_s":       {medianDur(sweeps).Seconds(), "s"},
		"run_p50_ms":    {ms(quantileDur(runs, 0.50)), "ms"},
		"run_p95_ms":    {ms(quantileDur(runs, 0.95)), "ms"},
		"matrix_p50_ms": {ms(quantileDur(mats, 0.50)), "ms"},
		"matrix_p95_ms": {ms(quantileDur(mats, 0.95)), "ms"},
		"req_per_s":     {float64(len(runs)+len(mats)) / warmWall.Seconds(), "1/s"},
		"heap_peak_mb":  {float64(peak) / (1 << 20), "MB"},
	}, nil
}
