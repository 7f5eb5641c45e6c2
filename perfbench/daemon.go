package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/storage"
)

// node is one in-process arvid daemon, wired the way cmd/arvid wires it:
// server.New over a sim.Engine with an on-disk result cache and trace
// store, served on a loopback listener.
type node struct {
	eng   *sim.Engine
	srv   *server.Server
	coord *dist.Coordinator // non-nil for a coordinator
	url   string
	hs    *http.Server
	done  chan error

	closeOnce sync.Once
	closeErr  error
}

// dirs are one daemon's cache and trace directories.
type dirs struct{ cache, trace string }

// startNode starts one daemon. With a non-nil observer its stores get a
// timing storage.FS each and its handler is wrapped, all labelled with
// role. A coordinator daemon is given its coordinator and cache peers.
func startNode(role string, d dirs, workers int, obs *observer, coord *dist.Coordinator, peers storage.KV) (*node, error) {
	var cacheFS, traceFS storage.FS = storage.OS{}, storage.OS{}
	if obs != nil {
		cacheFS, traceFS = obs.fs(role, "cache"), obs.fs(role, "trace")
	}
	cache, err := sim.OpenCacheFS(d.cache, cacheFS, nil)
	if err != nil {
		return nil, err
	}
	if peers != nil {
		cache.SetPeers(peers, false)
	}
	traces, err := sim.OpenTraceStoreFS(d.trace, 0, traceFS, nil)
	if err != nil {
		return nil, err
	}
	eng := &sim.Engine{Workers: workers, Cache: cache, Traces: traces}
	if coord != nil {
		coord.Local = eng
	}
	srv := server.New(server.Config{Engine: eng, Coordinator: coord})
	var h http.Handler = srv
	if obs != nil {
		h = obs.handler(role)(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		eng: eng, srv: srv, coord: coord,
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// close stops the daemon and waits for its serve loop to return. Later
// calls return the first call's result.
func (n *node) close() error {
	n.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		n.srv.StartDrain()
		if err := n.hs.Shutdown(ctx); err != nil {
			n.closeErr = fmt.Errorf("shutdown %s: %w", n.url, err)
			return
		}
		if err := <-n.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			n.closeErr = fmt.Errorf("serve %s: %w", n.url, err)
		}
	})
	return n.closeErr
}

// deployment is what one workload talks to: a solo daemon, or a
// coordinator with its workers. front is the daemon clients call.
type deployment struct {
	front   *node
	workers []*node
	dialer  *hostDialer // cluster only
}

func (d *deployment) nodes() []*node { return append([]*node{d.front}, d.workers...) }

func (d *deployment) close() error {
	var errs []error
	for _, n := range d.nodes() {
		errs = append(errs, n.close())
	}
	if d.dialer != nil {
		d.dialer.tr.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// simulated sums Engine.Simulated over every daemon of the deployment.
func (d *deployment) simulated() int64 {
	var n int64
	for _, x := range d.nodes() {
		n += x.eng.Simulated()
	}
	return n
}

// hostDialer resolves the cluster's fixed worker host names to their
// loopback listeners. Rendezvous placement hashes the worker base URL, so
// fixed names give every run the same cell-to-worker placement, where
// ephemeral ports would reshuffle it (and the per-worker load) each run.
type hostDialer struct {
	addrs map[string]string // "w0.perfbench:80" -> "127.0.0.1:port"
	tr    *http.Transport
}

func newHostDialer() *hostDialer {
	d := &hostDialer{addrs: map[string]string{}}
	var nd net.Dialer
	d.tr = &http.Transport{
		MaxIdleConnsPerHost: 2 * runtime.GOMAXPROCS(0),
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := d.addrs[addr]
			if !ok {
				return nil, fmt.Errorf("perfbench: no daemon named %s", addr)
			}
			return nd.DialContext(ctx, network, real)
		},
	}
	return d
}

// name registers a daemon under a fixed host name and returns its URL.
func (d *hostDialer) name(host string, n *node) string {
	d.addrs[host+":80"] = strings.TrimPrefix(n.url, "http://")
	return "http://" + host
}

// workerRoles names the cluster's workers; the coordinator is "coord".
var workerRoles = []string{"w0", "w1"}

// startCluster builds one worker daemon per workerRoles entry
// (Engine.Workers = 1 each) and a coordinator with PerWorker = 1 in front
// of them, so at most len(workerRoles) simulations run at once. ds holds
// each role's directories; obs instruments every daemon and the
// coordinator's transport when non-nil. The coordinator's cache has the
// workers as cache peers, so a warm /v1/run it executes locally is served
// from the workers' caches instead of simulating.
func startCluster(ds map[string]dirs, obs *observer) (*deployment, error) {
	dep := &deployment{dialer: newHostDialer()}
	var bases []string
	for _, role := range workerRoles {
		w, err := startNode(role, ds[role], 1, obs, nil, nil)
		if err != nil {
			_ = dep.closePartial()
			return nil, err
		}
		dep.workers = append(dep.workers, w)
		bases = append(bases, dep.dialer.name(role+".perfbench", w))
	}
	var rt http.RoundTripper = dep.dialer.tr
	if obs != nil {
		rt = obs.transport(rt)
	}
	client := &http.Client{Transport: rt, Timeout: 120 * time.Second}
	coord := &dist.Coordinator{Client: client, PerWorker: 1}
	coord.SetWorkers(bases)
	front, err := startNode("coord", ds["coord"], 1, obs, coord, storage.NewPeerKV(bases, client))
	if err != nil {
		_ = dep.closePartial()
		return nil, err
	}
	dep.front = front
	return dep, nil
}

// closePartial tears down a deployment whose front never started.
func (d *deployment) closePartial() error {
	var errs []error
	for _, w := range d.workers {
		errs = append(errs, w.close())
	}
	d.dialer.tr.CloseIdleConnections()
	return errors.Join(errs...)
}
