package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/smt"
	"repro/internal/trace"
	"repro/internal/vpred"
	"repro/internal/workload"
)

// runProbes times direct calls into the layers a workload reaches only
// inside the daemon, at the workload's budgets. Each probe is the same on
// every workload; README.md names the workload each one belongs to.
func runProbes(ctx context.Context, e *env) (map[string]metric, error) {
	m := map[string]metric{}
	decs, err := traceProbe(ctx, e, m)
	if err != nil {
		return nil, err
	}
	stats, err := cpuProbe(ctx, e, decs, m)
	if err != nil {
		return nil, err
	}
	if err := cacheProbe(e, stats, m); err != nil {
		return nil, err
	}
	if err := studyProbe(e, m); err != nil {
		return nil, err
	}
	lookupProbe(m)
	kernelProbe(e, m)
	return m, nil
}

// traceProbe records and decodes every benchmark's correct-path trace at
// the cell budget (trace.RecordAll, trace.Decode), and times a cold
// sim.TraceStore.Get (record plus persist) per benchmark. It returns the
// decoded traces by benchmark.
func traceProbe(ctx context.Context, e *env, m map[string]metric) (map[string]*trace.Decoded, error) {
	dir, err := e.fresh("probe-traces")
	if err != nil {
		return nil, err
	}
	ts, err := sim.OpenTraceStore(dir, 0)
	if err != nil {
		return nil, err
	}
	decs := map[string]*trace.Decoded{}
	var rec, dec, get time.Duration
	var insts int64
	for _, name := range workload.Names {
		p := workload.ByName(name).Prog
		t0 := time.Now()
		d, err := trace.RecordAll(p, e.o.budget.insts)
		if err != nil {
			return nil, err
		}
		rec += time.Since(t0)
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			return nil, err
		}
		t0 = time.Now()
		if _, err := trace.Decode(p, &buf); err != nil {
			return nil, err
		}
		dec += time.Since(t0)
		t0 = time.Now()
		if _, err := ts.Get(ctx, p, e.o.budget.insts); err != nil {
			return nil, err
		}
		get += time.Since(t0)
		insts += d.Len()
		decs[name] = d
	}
	m["trace.record_ns_per_inst"] = metric{float64(rec.Nanoseconds()) / float64(insts), "ns"}
	m["trace.decode_ns_per_inst"] = metric{float64(dec.Nanoseconds()) / float64(insts), "ns"}
	m["sim.tracestore.get_ms"] = metric{ms(get) / float64(len(workload.Names)), "ms"}
	return decs, nil
}

// stages are the cpu.Engine methods the CPU profile is bucketed by.
var stages = []string{"process", "predictBranch", "executeLoad", "resolveLeaves", "advanceFrontier", "injectWrongPath"}

// cpuProbe replays every matrix cell through a fresh cpu.Engine, timing
// Engine.RunSource per cell, under a CPU profile that is then bucketed by
// engine stage. It returns each cell's stats.
func cpuProbe(ctx context.Context, e *env, decs map[string]*trace.Decoded, m map[string]metric) (map[cell]cpu.Stats, error) {
	prof := filepath.Join(e.base, "cpu.pprof")
	f, err := os.Create(prof)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	type acc struct {
		d     time.Duration
		insts int64
	}
	by := map[string]*acc{}
	add := func(k string, d time.Duration, n int64) {
		if by[k] == nil {
			by[k] = &acc{}
		}
		by[k].d += d
		by[k].insts += n
	}
	stats := map[cell]cpu.Stats{}
	var runErr error
	for _, c := range cells() {
		mode, err := sim.ParseMode(c.mode)
		if err != nil {
			runErr = err
			break
		}
		spec := sim.Spec{Bench: c.bench, Depth: c.depth, Mode: mode, MaxInsts: e.o.budget.insts}
		eng, err := cpu.NewEngine(spec.Config())
		if err != nil {
			runErr = err
			break
		}
		d := decs[c.bench]
		t0 := time.Now()
		st, err := eng.RunSource(d.Prog(), d.Cursor())
		el := time.Since(t0)
		if err != nil {
			runErr = fmt.Errorf("%s: %w", spec, err)
			break
		}
		stats[c] = st
		add("", el, st.Insts)
		add(fmt.Sprintf(".d%d", c.depth), el, st.Insts)
		add("."+c.mode, el, st.Insts)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	for k, a := range by {
		m["cpu.ns_per_inst"+k] = metric{float64(a.d.Nanoseconds()) / float64(a.insts), "ns"}
	}
	shares, err := stageShares(ctx, prof)
	if err != nil {
		return nil, err
	}
	for _, s := range stages {
		m["cpu.stage."+s+"_share"] = metric{shares[s], "frac"}
	}
	return stats, nil
}

// stageShares reads a CPU profile through `go tool pprof -traces` and
// attributes each sample inside the engine loop to the innermost listed
// cpu.Engine stage method on its stack; samples under no listed method
// stay unattributed. Shares are of all samples inside Engine.RunSource.
func stageShares(ctx context.Context, prof string) (map[string]float64, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", prof).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	const engine = "repro/internal/cpu.(*Engine)."
	var total time.Duration
	by := map[string]time.Duration{}
	flush := func(val time.Duration, stack []string) {
		inLoop, stage := false, ""
		for _, fn := range stack {
			fn = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(fn), "(inline)"))
			if !strings.HasPrefix(fn, engine) {
				continue
			}
			meth := strings.TrimPrefix(fn, engine)
			if meth == "RunSource" {
				inLoop = true
			}
			if stage == "" {
				for _, s := range stages {
					if meth == s {
						stage = s
					}
				}
			}
		}
		if inLoop {
			total += val
			if stage != "" {
				by[stage] += val
			}
		}
	}
	var val time.Duration
	var stack []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush(val, stack)
			val, stack = 0, nil
			continue
		}
		if stack == nil {
			// The first line of a sample: "<value> <leaf function>".
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue // header lines
			}
			val, stack = d, []string{strings.Join(fields[1:], " ")}
			continue
		}
		stack = append(stack, line)
	}
	flush(val, stack)
	shares := map[string]float64{}
	if total == 0 {
		// Only a tiny budget replays too briefly for a single sample.
		fmt.Fprintln(os.Stderr, "perfbench: CPU profile holds no samples inside cpu.(*Engine).RunSource")
		return shares, nil
	}
	for _, s := range stages {
		shares[s] = float64(by[s]) / float64(total)
	}
	return shares, nil
}

// cacheProbe times sim.Cache.Put of every matrix cell's stats into an
// empty cache and sim.Cache.Get of each back from a freshly opened one.
func cacheProbe(e *env, stats map[cell]cpu.Stats, m map[string]metric) error {
	dir, err := e.fresh("probe-cache")
	if err != nil {
		return err
	}
	c, err := sim.OpenCache(dir)
	if err != nil {
		return err
	}
	var specs []sim.Spec
	var put time.Duration
	for _, cl := range cells() {
		mode, err := sim.ParseMode(cl.mode)
		if err != nil {
			return err
		}
		spec := sim.Spec{Bench: cl.bench, Depth: cl.depth, Mode: mode, MaxInsts: e.o.budget.insts}
		t0 := time.Now()
		if err := c.Put(spec, stats[cl]); err != nil {
			return err
		}
		put += time.Since(t0)
		specs = append(specs, spec)
	}
	if c, err = sim.OpenCache(dir); err != nil {
		return err
	}
	var get time.Duration
	for _, spec := range specs {
		t0 := time.Now()
		if _, ok := c.Get(spec); !ok {
			return fmt.Errorf("cache probe: %s missing after Put", spec)
		}
		get += time.Since(t0)
	}
	m["sim.cache.put_us"] = metric{us(put) / float64(len(specs)), "us"}
	m["sim.cache.get_us"] = metric{us(get) / float64(len(specs)), "us"}
	return nil
}

// studyProbe times Study.Simulate for a fixed sample of study cells — the
// first SMT mix under every policy, and the first benchmark under every
// value predictor, all and selective — at the workload's budgets, then
// Cache.PutStudy and Cache.GetStudy of those cells' stats.
func studyProbe(e *env, m map[string]metric) error {
	smtCfg := smt.DefaultConfig()
	smtCfg.MaxCycles = e.o.budget.smtCycles
	var smts []sim.Study
	for _, p := range sim.SMTPolicies {
		smts = append(smts, sim.SMTStudy{Mix: workload.MixByName(workload.MixNames[0]), Policy: p, Config: smtCfg})
	}
	var vps []sim.Study
	for _, p := range sim.VPredPredictors {
		for _, sel := range []bool{false, true} {
			vps = append(vps, sim.VPredStudy{Bench: workload.Names[0], Predictor: p, Selective: sel,
				Params: sim.DefaultVPredParams(e.o.budget.insts)})
		}
	}
	dir, err := e.fresh("probe-study-cache")
	if err != nil {
		return err
	}
	c, err := sim.OpenCache(dir)
	if err != nil {
		return err
	}
	var put, get time.Duration
	simulate := func(studies []sim.Study, out func() any) (time.Duration, error) {
		var total time.Duration
		for _, s := range studies {
			t0 := time.Now()
			st, err := s.Simulate()
			if err != nil {
				return 0, fmt.Errorf("%s: %w", s, err)
			}
			total += time.Since(t0)
			t0 = time.Now()
			if err := c.PutStudy(s, st); err != nil {
				return 0, err
			}
			put += time.Since(t0)
			t0 = time.Now()
			ok, err := c.GetStudy(s, out())
			if err != nil || !ok {
				return 0, fmt.Errorf("study probe: %s missing after PutStudy (%v)", s, err)
			}
			get += time.Since(t0)
		}
		return total / time.Duration(len(studies)), nil
	}
	smtCell, err := simulate(smts, func() any { return new(sim.SMTStats) })
	if err != nil {
		return err
	}
	vpCell, err := simulate(vps, func() any { return new(vpred.Result) })
	if err != nil {
		return err
	}
	n := float64(len(smts) + len(vps))
	m["smt.cell_ms"] = metric{ms(smtCell), "ms"}
	m["vpred.cell_ms"] = metric{ms(vpCell), "ms"}
	m["sim.cache.study_put_us"] = metric{us(put) / n, "us"}
	m["sim.cache.study_get_us"] = metric{us(get) / n, "us"}
	return nil
}

// lookupProbe times workload.Lookup, which assembles the benchmark's
// program on every call.
func lookupProbe(m map[string]metric) {
	const reps = 3
	var total time.Duration
	for i := 0; i < reps; i++ {
		for _, name := range workload.Names {
			t0 := time.Now()
			workload.Lookup(name)
			total += time.Since(t0)
		}
	}
	m["workload.lookup_us"] = metric{us(total) / float64(reps*len(workload.Names)), "us"}
}

var initTesting sync.Once

// kernelProbe runs the internal/benchkit bodies through testing.Benchmark
// and the InsertLeafSetAllocsAt guards. A guard reading above zero is a
// failed check: the steady-state DDT path must not allocate.
func kernelProbe(e *env, m map[string]metric) {
	initTesting.Do(func() {
		testing.Init()
		_ = flag.CommandLine.Set("test.benchtime", "100ms") // a registered flag: cannot fail
	})
	for _, k := range []struct {
		name string
		body func(*testing.B)
	}{
		{"core.ddt_insert_ns", benchkit.DDTInsert},
		{"core.leafset_ns", benchkit.LeafSet},
		{"core.leafset_wrapped_ns", benchkit.LeafSetWrapped},
		{"core.leafset_rob1024_ns", benchkit.LeafSetROB1024},
		{"bitvec.kernels_ns", benchkit.BitvecKernels},
	} {
		r := testing.Benchmark(k.body)
		m[k.name] = metric{float64(r.T.Nanoseconds()) / float64(r.N), "ns"}
	}
	r := testing.Benchmark(benchkit.EngineThroughput)
	m["cpu.benchkit_engine_ns_per_inst"] = metric{r.Extra["ns/inst"], "ns"}

	var worst float64
	for _, cfg := range []struct {
		name string
		a    float64
	}{
		{"default", benchkit.InsertLeafSetAllocsAt(benchkit.DDTInsertConfig)},
		{"rob512", benchkit.InsertLeafSetAllocsAt(benchkit.WideROB512Config)},
		{"rob1024", benchkit.InsertLeafSetAllocsAt(benchkit.WideROB1024Config)},
	} {
		if cfg.a != 0 {
			e.ck.fail("DDT Insert+Commit+LeafSet allocates %.2f/op at the %s geometry, want 0", cfg.a, cfg.name)
		}
		worst = max(worst, cfg.a)
	}
	m["core.ddt_allocs_per_op"] = metric{worst, "count"}
}
