package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/workload"
)

// counts snapshots the daemons' public counters after a traced pass.
type counts struct {
	simulated, cacheHits        int64
	recorded, memHits, diskHits int64
	computes, coalesced         int64
	remote, retried, localJobs  int64
}

func snapshot(dep *deployment) counts {
	var c counts
	for _, n := range dep.nodes() {
		c.simulated += n.eng.Simulated()
		c.cacheHits += n.eng.CacheHits()
		c.recorded += n.eng.Traces.Recorded()
		c.memHits += n.eng.Traces.MemHits()
		c.diskHits += n.eng.Traces.DiskHits()
	}
	c.computes, c.coalesced = dep.front.srv.Computes(), dep.front.srv.Coalesced()
	if co := dep.front.coord; co != nil {
		c.remote, c.retried, c.localJobs = co.RemoteJobs(), co.RetriedJobs(), co.LocalJobs()
	}
	return c
}

// runTraced measures the per-layer metrics. After the workload's set-up
// it deploys twice and runs one cold pass on each: a reference deployment
// built exactly like the untraced run's, then a traced one with a timing
// storage.FS, handler wrappers and (in the cluster) a timing coordinator
// transport. The same seeded warm sequence then goes to both, one request
// at a time (so every storage span inside a handler span belongs to that
// request), in alternating blocks; the ratio of the two sides' warm wall
// times is the tracing overhead. Direct-call probes of the layers the
// workload reaches only inside the daemon follow.
func runTraced(ctx context.Context, e *env) (map[string]metric, error) {
	ob := &observer{}
	if e.w.prefill {
		ob.setPhase("setup")
		if _, err := e.prefill(ctx, ob); err != nil {
			return nil, err
		}
	}
	ref, _, err := e.deploy(nil)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	ob.setPhase("cold")
	dep, _, err := e.deploy(ob)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	if e.w.cold != nil {
		e.coldPass(ctx, ref)
		e.coldPass(ctx, dep)
	}
	cold := snapshot(dep) // dist counts are reported for the cold pass

	ob.setPhase("warm")
	const blocks = 6
	refGen, depGen := newMixGen(e.o.seed, e.o.budget), newMixGen(e.o.seed, e.o.budget)
	var refWall, depWall time.Duration
	for b := 1; b <= blocks; b++ {
		n := b * e.o.traceN / blocks
		block := func(d *deployment, gen *mixGen) time.Duration {
			t0 := time.Now()
			closedLoop(ctx, e.cl, e.ck, d.front.url, gen, 1, func(i int, _ time.Duration) bool { return i >= n })
			return time.Since(t0)
		}
		if b%2 == 0 {
			refWall += block(ref, refGen)
			depWall += block(dep, depGen)
		} else {
			depWall += block(dep, depGen)
			refWall += block(ref, refGen)
		}
	}
	e.checkCounts(ref, "reference pass")
	e.checkCounts(dep, "traced pass")
	if err := ref.close(); err != nil {
		return nil, err
	}
	c := snapshot(dep)
	c.remote, c.retried, c.localJobs = cold.remote, cold.retried, cold.localJobs
	// Requests from here on are probes, not the warm sequence.
	ob.setPhase("probe")
	if !e.w.cluster {
		// No cluster: fan the (warm) matrix out from a probe coordinator to
		// this daemon, so the dist layer is measured on every workload.
		pc := newClient()
		defer pc.tr.CloseIdleConnections()
		co := &dist.Coordinator{Client: pc.hc, PerWorker: 1}
		pc.hc.Transport = ob.transport(pc.tr)
		co.SetWorkers([]string{dep.front.url})
		if _, err := co.Matrix(ctx, workload.Names, sim.Depths, sim.Modes, e.o.budget.insts); err != nil {
			return nil, fmt.Errorf("dist probe: %w", err)
		}
		c.remote, c.retried, c.localJobs = co.RemoteJobs(), co.RetriedJobs(), co.LocalJobs()
	}

	m, err := runProbes(ctx, e)
	if err != nil {
		return nil, err
	}
	// Last: it turns on full allocation sampling.
	calls, err := lookupCallsPerRun(ctx, e, dep.front.url)
	if err != nil {
		return nil, err
	}
	for k, v := range spanMetrics(ob, e.w.cluster, m["workload.lookup_us"].Value*calls) {
		m[k] = v
	}
	m["tracing_overhead_frac"] = metric{depWall.Seconds()/refWall.Seconds() - 1, "frac"}
	m["fail_frac"] = metric{float64(e.ck.failed) / float64(max(e.ck.attempted, 1)), "frac"}
	m["workload.lookup_calls_per_req"] = metric{calls, "count"}
	for k, v := range map[string]int64{
		"sim.engine.simulated":     c.simulated,
		"sim.engine.cache_hits":    c.cacheHits,
		"sim.tracestore.recorded":  c.recorded,
		"sim.tracestore.mem_hits":  c.memHits,
		"sim.tracestore.disk_hits": c.diskHits,
		"server.computes":          c.computes,
		"server.coalesced":         c.coalesced,
		"dist.remote_jobs":         c.remote,
		"dist.retried_jobs":        c.retried,
		"dist.local_jobs":          c.localJobs,
	} {
		m[k] = metric{float64(v), "count"}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: warm sequence %.3fs plain, %.3fs traced\n", e.w.name, refWall.Seconds(), depWall.Seconds())
	return m, dep.close()
}

// spanMetrics derives the boundary-timed layer metrics from the traced
// pass's spans. lookupUS is the estimated workload.Lookup time inside one
// /v1/run handler (calls per request × the direct-call Lookup time): the
// lookup happens inside the daemon, where no span can see it.
func spanMetrics(ob *observer, cluster bool, lookupUS float64) map[string]metric {
	front := "solo"
	if cluster {
		front = "coord"
	}
	fsSpans := ob.spansWhere(func(s span) bool { return strings.HasPrefix(s.kind, "fs.") })
	hops := ob.spansWhere(func(s span) bool { return s.kind == "hop" })
	handlers := ob.spansWhere(func(s span) bool { return s.kind == "handler" })

	var runs, runSelf, mats []time.Duration
	for _, h := range handlers {
		if h.role != front || h.phase != "warm" {
			continue
		}
		switch h.route {
		case "/v1/matrix":
			mats = append(mats, h.dur())
		case "/v1/run":
			runs = append(runs, h.dur())
			self := h.dur()
			for _, s := range fsSpans {
				if s.role == h.role && s.within(h) {
					self -= s.dur()
				}
			}
			for _, s := range hops {
				if s.within(h) {
					self -= s.dur()
				}
			}
			runSelf = append(runSelf, self)
		}
	}

	// Worker handler time per hop id, for hop self time.
	served := map[int64]time.Duration{}
	for _, h := range handlers {
		if h.hop != 0 {
			served[h.hop] = h.dur()
		}
	}
	hopPhase := "probe"
	if cluster {
		hopPhase = "cold"
	}
	var hopD, hopSelf []time.Duration
	for _, s := range hops {
		if s.phase != hopPhase || s.route != "/v1/run" {
			continue
		}
		hopD = append(hopD, s.dur())
		hopSelf = append(hopSelf, s.dur()-served[s.hop])
	}

	// Each storage time covers only the path it is meant to track: reads
	// are the warm phase's cache hits (not misses, not trace loads); writes
	// and renames are cache entries being stored (not trace files), in
	// whichever phase stored them. ops and bytes count every call outside
	// set-up and the probes.
	var reads, writes, renames []time.Duration
	var ops, bytes int64
	for _, s := range fsSpans {
		if s.store == "cache" {
			switch {
			case s.kind == "fs.read" && s.phase == "warm" && s.bytes > 0:
				reads = append(reads, s.dur())
			case s.kind == "fs.write":
				writes = append(writes, s.dur())
			case s.kind == "fs.rename":
				renames = append(renames, s.dur())
			}
		}
		if s.phase != "setup" && s.phase != "probe" {
			ops++
			bytes += s.bytes
		}
	}
	return map[string]metric{
		"server.run_handler_us":    {us(meanDur(runs)), "us"},
		"server.run_self_us":       {us(meanDur(runSelf)) - lookupUS, "us"},
		"server.matrix_handler_ms": {ms(meanDur(mats)), "ms"},
		"storage.fs.read_us":       {us(meanDur(reads)), "us"},
		"storage.fs.write_us":      {us(meanDur(writes)), "us"},
		"storage.fs.rename_us":     {us(meanDur(renames)), "us"},
		"storage.fs.ops":           {float64(ops), "count"},
		"storage.fs.bytes":         {float64(bytes), "bytes"},
		"dist.hop_ms":              {ms(meanDur(hopD)), "ms"},
		"dist.hop_self_ms":         {ms(meanDur(hopSelf)), "ms"},
	}
}

// lookupCallsPerRun counts workload.Lookup calls per warm /v1/run. Lookup
// runs inside the daemon, so it is counted through the allocation
// profile: with every allocation sampled, the allocations made under
// workload.Lookup while serving a set of requests, divided by those of
// one direct Lookup per request's benchmark, is the calls per request.
// It runs last, since full allocation sampling slows everything after it.
func lookupCallsPerRun(ctx context.Context, e *env, base string) (float64, error) {
	all := cells()
	var reqs []cell
	for i := 0; i < 2*len(workload.Names); i++ {
		reqs = append(reqs, all[(i*13)%len(all)])
	}
	prev := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = prev }()

	before := lookupAllocs()
	for _, c := range reqs {
		e.send(ctx, base, runOp(c, e.o.budget))
	}
	served := lookupAllocs()
	for _, c := range reqs {
		if _, ok := workload.Lookup(c.bench); !ok {
			return 0, fmt.Errorf("unknown benchmark %q", c.bench)
		}
	}
	direct := lookupAllocs()
	if direct == served {
		return 0, fmt.Errorf("lookup count: direct Lookup calls recorded no allocations")
	}
	return float64(served-before) / float64(direct-served), nil
}

// lookupAllocs sums the allocations recorded under workload.Lookup so far.
func lookupAllocs() int64 {
	// The profile lags by up to two collections.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	for {
		n, _ := runtime.MemProfile(nil, true)
		recs = make([]runtime.MemProfileRecord, n+64)
		if n, ok := runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	var total int64
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			if f.Function == "repro/internal/workload.Lookup" {
				total += recs[i].AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}
