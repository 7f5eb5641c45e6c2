// Command arvid serves the experiment engine as a long-running HTTP/JSON
// daemon. Where cmd/arvisim and cmd/experiments pay process startup,
// cache open and trace decode per invocation, arvid opens the result
// cache and trace store once and keeps the engine (and its per-
// configuration pool of reset-able cpu.Engines) resident, so repeated
// queries are warm cache hits in microseconds.
//
// The cache directory defaults to the same `.simcache` the CLIs use: a
// sweep primed by `experiments` serves warm from arvid, and cells first
// simulated by arvid are cache hits for the CLIs. Traces live in memory
// only: the daemon records each benchmark's trace once and replays it
// for every cell of that benchmark it simulates.
//
// Usage:
//
//	arvid                              # serve on :8744, cache in .simcache
//	arvid -addr 127.0.0.1:9000         # explicit listen address
//	arvid -max-inflight 4              # at most 4 concurrent computations
//	arvid -max-insts 10000000          # per-request total instruction cap
//	arvid -cache ""                    # nothing on disk: every cell simulates
//
// Scaling out (see DESIGN.md's distributed execution section):
//
//	arvid -role worker -addr :8745                         # a worker node
//	arvid -role coordinator \
//	      -workers-list http://h1:8745,http://h2:8745      # fan sweeps out
//
// A coordinator decomposes every sweep — /v1/matrix, /v1/study/* and
// /v1/artifacts/* — into per-cell jobs keyed by the result cache's own
// content hashes, fans them out to the workers with retries and backoff,
// and merges answers byte-identically to a single-node run; it answers a
// job its own cache holds without a worker and keeps every worker answer
// there. A single /v1/run is the worker job itself and runs where it
// lands. A daemon's cache serves only that daemon: a coordinator in
// front is the one way to share results across daemons. Worker URLs must
// be absolute http(s) with a host and no query or fragment (exit status
// 2 otherwise). -workers-list and the -dist-* flags apply only to -role
// coordinator. A negative count or duration flag is a usage error too.
//
//	curl localhost:8744/healthz
//	curl localhost:8744/v1/bench
//	curl -d '{"bench":"m88ksim","depth":20,"mode":"arvi-current"}' localhost:8744/v1/run
//	curl -d '{"depths":[20],"max_insts":100000}' localhost:8744/v1/matrix
//	curl -d '{"mixes":["ijpeg+li"]}' localhost:8744/v1/study/smt
//	curl -d '{"benches":["li"],"dep_threshold":4}' localhost:8744/v1/study/vpred
//	curl localhost:8744/v1/artifacts/fig6?n=100000
//
// See internal/server for the endpoint contracts (byte-stable warm hits,
// singleflight coalescing of duplicate in-flight requests, 429 beyond
// -max-inflight, 400 beyond -max-insts) and the README's "Serving"
// section for the endpoint table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/server"
	"repro/internal/sim"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "arvid:", err)
	os.Exit(1)
}

// usage rejects a bad flag value with exit status 2, before any store is
// opened or any port bound.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "arvid:", err)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", ":8744", "listen address")
	cacheDir := flag.String("cache", ".simcache", "result cache directory shared with the CLIs (empty = no cache)")
	traceMem := flag.Int64("trace-mem", 0, "resident decoded-trace budget in MiB (0 = default)")
	workers := flag.Int("workers", 0, "max concurrent simulations inside the engine (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently computing requests; excess get 429 (0 = 2x GOMAXPROCS)")
	maxInsts := flag.Int64("max-insts", server.DefaultMaxTotalInsts, "per-request cap on total instruction budget (per-cell budget x cells)")
	defaultInsts := flag.Int64("default-insts", sim.DefaultMaxInsts, "per-cell instruction budget when a request omits max_insts")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request simulation deadline; past it the request gets 504 (0 = no timeout)")
	role := flag.String("role", "solo", "daemon role: solo (compute everything locally), worker (a solo node a coordinator fans jobs to), or coordinator (distribute sweeps to -workers-list)")
	workersList := flag.String("workers-list", "", "comma-separated worker base URLs for the coordinator role (more can join via POST /v1/workers)")
	distRetries := flag.Int("dist-retries", 0, "extra workers a failed job is offered before local fallback (0 = default)")
	distBackoff := flag.Duration("dist-backoff", 0, "delay before a job's first retry, doubling per retry (0 = default)")
	distTimeout := flag.Duration("dist-timeout", 0, "per-job HTTP timeout for coordinator->worker calls (0 = default)")
	flag.Parse()

	if *role != "solo" && *role != "worker" && *role != "coordinator" {
		usage(fmt.Errorf("-role %q out of range (need solo, worker or coordinator)", *role))
	}
	if *role != "coordinator" {
		// Only a coordinator reads these; flag.Visit sees the flags set
		// on the command line, even to their defaults.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workers-list", "dist-retries", "dist-backoff", "dist-timeout":
				usage(fmt.Errorf("-%s only applies to -role coordinator", f.Name))
			}
		})
	}
	// The base-URL rule (and its message) is POST /v1/workers' too; see
	// internal/sim/validate.go.
	workerURLs := splitList(*workersList)
	for _, u := range workerURLs {
		if err := sim.ValidateBaseURL(u); err != nil {
			usage(err)
		}
	}

	if *maxInsts <= 0 {
		usage(fmt.Errorf("-max-insts %d out of range (need >= 1)", *maxInsts))
	}
	if *defaultInsts <= 0 {
		usage(fmt.Errorf("-default-insts %d out of range (need >= 1)", *defaultInsts))
	}
	// Shared with cmd/experiments; see internal/sim/validate.go.
	for _, err := range []error{
		sim.ValidateTraceMem(*traceMem),
		sim.ValidateNonNegative("-workers", *workers),
		sim.ValidateNonNegative("-max-inflight", *maxInflight),
		sim.ValidateNonNegative("-request-timeout", *requestTimeout),
		sim.ValidateNonNegative("-dist-retries", *distRetries),
		sim.ValidateNonNegative("-dist-backoff", *distBackoff),
		sim.ValidateNonNegative("-dist-timeout", *distTimeout),
	} {
		if err != nil {
			usage(err)
		}
	}

	eng := &sim.Engine{Workers: *workers, Traces: sim.NewTraceStore(*traceMem << 20)}
	if *cacheDir != "" {
		c, err := sim.OpenCache(*cacheDir)
		if err != nil {
			fail(err)
		}
		eng.Cache = c
	}

	var coord *dist.Coordinator
	if *role == "coordinator" {
		coord = &dist.Coordinator{
			Local:   eng,
			Retries: *distRetries,
			Backoff: *distBackoff,
		}
		if *distTimeout > 0 {
			coord.Client = &http.Client{Timeout: *distTimeout}
		}
		coord.SetWorkers(workerURLs)
	}

	h := server.New(server.Config{
		Engine:         eng,
		MaxInflight:    *maxInflight,
		MaxTotalInsts:  *maxInsts,
		DefaultInsts:   *defaultInsts,
		RequestTimeout: *requestTimeout,
		Coordinator:    coord,
	})
	srv := &http.Server{
		Addr:    *addr,
		Handler: h,
		// Simulations can legitimately take a while; bound only the parts
		// a slow or hostile client controls.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "arvid: serving on %s as %s (cache %q)\n", *addr, *role, *cacheDir)

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "arvid: shutting down")
	// Refuse new requests (503 + Retry-After) and cancel in-flight engine
	// work before asking the listener to drain, so Shutdown is bounded by
	// a cancellation checkpoint instead of a full sweep.
	h.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fail(err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
}

// splitList splits a comma-separated URL list, dropping empty elements
// (so a trailing comma or an unset flag is not a phantom worker).
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
