// Command arvisim runs a single benchmark through the timing simulator and
// reports its statistics.
//
// Usage:
//
//	arvisim -bench m88ksim -depth 20 -mode arvi-current -n 250000
//	arvisim -bench li -conf-threshold 12      # JRS threshold ablation
//	arvisim -bench gcc -json                  # machine-readable stats
//	arvisim -bench gcc -cache .simcache       # reuse cached results
//	arvisim -bench gcc -record gcc.trc        # record the dynamic trace, no timing
//	arvisim -bench gcc -replay gcc.trc        # replay a recorded trace
//
// A run records the benchmark's trace in memory and replays it through
// the timing model. -n must be at least 1 (exit status 2 otherwise).
// -record writes the trace with its exact record count to any file or
// pipe and reports on stderr; -replay loads and checks the whole file
// (its program, its count, every record) before the timing run starts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cpu"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "m88ksim", "benchmark: gcc compress go ijpeg li m88ksim perl vortex")
	depth := flag.Int("depth", 20, "pipeline depth in stages: 20, 40 or 60")
	mode := flag.String("mode", "arvi-current", "predictor: baseline arvi-current arvi-loadback arvi-perfect")
	n := flag.Int64("n", sim.DefaultMaxInsts, "dynamic instruction budget (>= 1)")
	cut := flag.Bool("cut-at-loads", false, "DDT chain ablation: cut chains at loads")
	confTh := flag.Uint("conf-threshold", 0, "JRS confidence threshold override, 1-15 (0 = paper default, not threshold 0)")
	jsonOut := flag.Bool("json", false, "emit the spec and raw stats as JSON instead of text")
	cacheDir := flag.String("cache", "", "result cache directory shared with cmd/experiments (empty = no cache)")
	record := flag.String("record", "", "record the benchmark's dynamic trace to this file and exit (no timing run)")
	replay := flag.String("replay", "", "replay the timing model from this trace file instead of recording the benchmark's trace")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	// The validation rules (and their message text) are shared with
	// cmd/experiments and the HTTP service; see internal/sim/validate.go.
	md, err := sim.ParseMode(*mode)
	if err != nil {
		usage(err)
	}
	for _, err := range []error{
		sim.ValidateBench(*bench),
		sim.ValidateDepth(*depth),
		sim.ValidateBudget(*n),
		// The JRS counters are 4-bit: a larger threshold could never be
		// reached and would silently veto every ARVI override.
		sim.ValidateConfThreshold(*confTh),
	} {
		if err != nil {
			usage(err)
		}
	}
	b, _ := workload.Lookup(*bench)
	if *record != "" && *replay != "" {
		usage(errors.New("-record and -replay are mutually exclusive"))
	}
	if (*record != "" || *replay != "") && *cacheDir != "" {
		// Standalone trace files bypass the engine, so silently accepting
		// this would break the "shared with cmd/experiments" promise.
		usage(errors.New("-record/-replay bypass the engine; -cache does not apply"))
	}

	// Profiling starts only after argument validation (a usage error must
	// not leave a truncated profile behind); fatal() flushes the profiles
	// too, because os.Exit skips the defer.
	flush, err := profiling.Setup(*cpuProfile, *memProfile, "arvisim")
	if err != nil {
		fatal(err)
	}
	flushProfiles = flush
	defer flush()

	if *record != "" {
		dec, err := trace.RecordAll(b.Prog, *n)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		if _, err := dec.WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		// The status line goes to stderr, so -record /dev/stdout writes
		// nothing but the trace.
		fmt.Fprintf(os.Stderr, "recorded %d events of %s to %s\n", dec.Len(), b.Name, *record)
		return
	}

	spec := sim.Spec{
		Bench: *bench, Depth: *depth, Mode: md, MaxInsts: *n,
		CutAtLoads: *cut, ConfThreshold: uint8(*confTh),
	}

	// Ctrl-C cancels the run at its next checkpoint instead of leaving a
	// half-written profile or cache temp file behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res sim.Result
	if *replay != "" {
		// Replay bypasses the engine: the trace file is the event source
		// (Decode rejects a trace of the wrong program, and any corrupt
		// record, before the run starts).
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		dec, err := trace.Decode(b.Prog, f)
		_ = f.Close() // read-only replay file
		if err != nil {
			fatal(err)
		}
		eng, err := cpu.NewEngine(spec.Config())
		if err != nil {
			fatal(err)
		}
		st, err := eng.RunSourceContext(ctx, b.Prog, dec.Cursor())
		if err != nil {
			fatal(err)
		}
		// A trace may legitimately end before the budget — but only at a
		// halt. Anything shorter was recorded with a smaller -n, and the
		// stats would silently describe a different run.
		if st.Insts < spec.Config().MaxInsts && !dec.Halted() {
			fatal(fmt.Errorf("trace %s ends after %d events without halting; "+
				"recorded with a smaller budget than -n %d (re-record, or lower -n)",
				*replay, st.Insts, spec.Config().MaxInsts))
		}
		res = sim.Result{Spec: spec, Stats: st}
	} else {
		eng := &sim.Engine{}
		if *cacheDir != "" {
			c, err := sim.OpenCache(*cacheDir)
			if err != nil {
				fatal(err)
			}
			eng.Cache = c
		}
		results, err := eng.Run(ctx, []sim.Spec{spec})
		if err != nil {
			fatal(err)
		}
		res = results[0]
	}
	st := res.Stats

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "arvisim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("run            %s\n", res.Spec)
	fmt.Printf("instructions   %d\n", st.Insts)
	fmt.Printf("cycles         %d\n", st.Cycles)
	fmt.Printf("IPC            %.4f\n", st.IPC())
	fmt.Printf("cond branches  %d (taken %.1f%%)\n", st.CondBranches,
		100*float64(st.TakenBranches)/max1(st.CondBranches))
	fmt.Printf("accuracy       %.4f (L1 alone %.4f)\n", st.PredAccuracy(),
		1-float64(st.L1Mispredicts)/max1(st.CondBranches))
	fmt.Printf("overrides      %d (correct %d)\n", st.Overrides, st.OverrideGood)
	if md.UsesARVI() {
		fmt.Printf("branch classes calculated %d / load %d (load fraction %.3f)\n",
			st.CalcBranches, st.LoadBranches, st.LoadBranchFraction())
		fmt.Printf("class accuracy calc %.4f / load %.4f\n",
			st.ClassAccuracy(cpu.ClassCalculated), st.ClassAccuracy(cpu.ClassLoad))
		fmt.Printf("ARVI           lookups %d, hits %d, used %d\n",
			st.ARVILookups, st.ARVIHits, st.ARVIUsed)
		if st.ARVILookups > 0 {
			fmt.Printf("chain profile  avg depth %.1f, avg leaf set %.1f\n",
				float64(st.ChainDepthSum)/float64(st.ARVILookups),
				float64(st.LeafCountSum)/float64(st.ARVILookups))
		}
	}
	fmt.Printf("memory         loads %d, stores %d, forwarded %d\n",
		st.Loads, st.Stores, st.StoreForwarded)
	fmt.Printf("miss rates     L1D %.3f, L2 %.3f, L1I %.3f\n",
		st.L1DMissRate, st.L2MissRate, st.L1IMissRate)
}

// flushProfiles is profiling.Setup's flush once configured; fatal routes
// through it so error exits still produce usable profiles (the flush is
// idempotent, so the deferred call after a fatal-free run is harmless).
var flushProfiles = func() {}

func fatal(err error) {
	flushProfiles()
	fmt.Fprintln(os.Stderr, "arvisim:", err)
	os.Exit(1)
}

// usage rejects bad arguments with exit status 2 (before profiling has
// been configured, so there is nothing to flush).
func usage(err error) {
	fmt.Fprintln(os.Stderr, "arvisim:", err)
	os.Exit(2)
}

func max1(v int64) float64 {
	if v <= 0 {
		return 1
	}
	return float64(v)
}
