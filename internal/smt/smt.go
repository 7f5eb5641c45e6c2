package smt

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/vm"
	"repro/internal/wtrace"
)

// Policy selects which thread fetches each cycle.
type Policy int

const (
	// RoundRobin alternates threads regardless of state.
	RoundRobin Policy = iota
	// ICOUNT picks the thread with the fewest in-flight instructions
	// (Tullsen's policy, cited by the paper).
	ICOUNT
	// DepLength picks the thread with the smallest average
	// dependence-chain length among its in-flight instructions, computed
	// from its private DDT (the paper's proposal).
	DepLength
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case ICOUNT:
		return "icount"
	case DepLength:
		return "dep-length"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config parameterises the SMT model.
type Config struct {
	FetchWidth int // instructions fetched per cycle from the chosen thread
	// Window is the *shared* in-flight window (ROB/issue-queue budget all
	// threads compete for). A thread with slow, serial instructions clogs
	// it — the phenomenon ICOUNT and the dependence policy manage.
	Window    int
	LoadLat   int // fixed load-to-use latency
	MaxCycles int64
}

// DefaultConfig returns a 4-wide, 64-entry-window model.
func DefaultConfig() Config {
	return Config{FetchWidth: 4, Window: 64, LoadLat: 6, MaxCycles: 200_000}
}

// Result summarises one SMT run.
type Result struct {
	Policy     Policy
	Cycles     int64
	PerThread  []int64 // retired instructions per thread
	TotalInsts int64
	// PeakWindow is the largest combined in-flight occupancy observed
	// across all threads; the shared-window invariant is
	// PeakWindow <= Config.Window.
	PeakWindow int
}

// Throughput is combined instructions per cycle.
func (r Result) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TotalInsts) / float64(r.Cycles)
}

// inflight is a thread's per-instruction state, in window (program)
// order; rename and dependence tracking live in the thread's wtrace.Window.
type inflight struct {
	doneC    int64
	chainLen int
}

type thread struct {
	machine  *vm.VM
	win      *wtrace.Window
	doneC    []int64 // per physical register
	window   []inflight
	chainBuf bitvec.Vec // reused per-instruction chain read (DDT.ChainInto)
	chainSum int64      // sum of chain lengths of in-flight instructions
	retired  int64
	halted   bool
}

func newThread(p *prog.Program, window int) (*thread, error) {
	win, err := wtrace.NewWindow(window, false)
	if err != nil {
		return nil, err
	}
	return &thread{
		machine:  vm.New(p),
		win:      win,
		doneC:    make([]int64, win.DDT().Config().PhysRegs),
		chainBuf: bitvec.New(window),
	}, nil
}

// avgChain is the thread's dependence metric: mean chain length over the
// in-flight window (0 for an empty window).
func (t *thread) avgChain() float64 {
	if len(t.window) == 0 {
		return 0
	}
	return float64(t.chainSum) / float64(len(t.window))
}

// retireReady drains completed instructions from the window head.
func (t *thread) retireReady(now int64) {
	for len(t.window) > 0 && t.window[0].doneC <= now {
		t.chainSum -= int64(t.window[0].chainLen)
		t.window = t.window[1:]
		if err := t.win.Retire(); err != nil {
			panic("smt: window desync: " + err.Error())
		}
		t.retired++
	}
}

// fetchOne renames and "executes" one instruction, returning false when the
// thread cannot fetch (halted or private window full).
func (t *thread) fetchOne(now int64, loadLat int) bool {
	if t.halted || t.win.DDT().Full() {
		return false
	}
	var ev vm.Event
	if err := t.machine.Step(&ev); err != nil {
		t.halted = true
		return false
	}
	in := ev.Inst
	srcs := t.win.Sources(in)
	ready := now
	for _, p := range srcs {
		if t.doneC[p] > ready {
			ready = t.doneC[p]
		}
	}
	dest, err := t.win.Insert(in, srcs)
	if err != nil {
		panic("smt: DDT insert failed: " + err.Error())
	}
	lat := int64(in.ExecLatency())
	if in.IsLoad() {
		lat += int64(loadLat)
	}
	f := inflight{doneC: ready + lat}
	if dest != core.NoPReg {
		t.doneC[dest] = f.doneC
		destReg := [1]core.PhysReg{dest}
		t.win.DDT().ChainInto(t.chainBuf, destReg[:])
		f.chainLen = t.chainBuf.Count()
		t.chainSum += int64(f.chainLen)
	}
	t.window = append(t.window, f)
	if t.machine.Halt {
		t.halted = true
	}
	return true
}

// Run executes the programs as SMT threads under the policy until every
// thread halts or MaxCycles elapse.
func Run(progs []*prog.Program, policy Policy, cfg Config) (Result, error) {
	if len(progs) == 0 {
		return Result{}, fmt.Errorf("smt: no threads")
	}
	if cfg.FetchWidth <= 0 || cfg.Window <= 0 || cfg.MaxCycles <= 0 {
		return Result{}, fmt.Errorf("smt: non-positive config %+v", cfg)
	}
	threads := make([]*thread, len(progs))
	for i, p := range progs {
		t, err := newThread(p, cfg.Window)
		if err != nil {
			return Result{}, err
		}
		threads[i] = t
	}

	res := Result{Policy: policy, PerThread: make([]int64, len(threads))}
	rr := 0
	for cycle := int64(0); cycle < cfg.MaxCycles; cycle++ {
		allHalted := true
		shared := 0
		for _, t := range threads {
			t.retireReady(cycle)
			shared += len(t.window)
			if !t.halted || len(t.window) > 0 {
				allHalted = false
			}
		}
		if allHalted {
			res.Cycles = cycle
			break
		}
		pick := choose(threads, policy, &rr, cfg.Window-shared)
		if pick >= 0 {
			budget := cfg.Window - shared
			if budget > cfg.FetchWidth {
				budget = cfg.FetchWidth
			}
			for k := 0; k < budget; k++ {
				if !threads[pick].fetchOne(cycle, cfg.LoadLat) {
					break
				}
				shared++
			}
		}
		// Post-fetch occupancy is the cycle's true shared-window pressure.
		if shared > res.PeakWindow {
			res.PeakWindow = shared
		}
		res.Cycles = cycle + 1
	}
	for i, t := range threads {
		res.PerThread[i] = t.retired
		res.TotalInsts += t.retired
	}
	return res, nil
}

// choose applies the fetch policy; -1 means no thread can fetch.
func choose(threads []*thread, policy Policy, rr *int, sharedFree int) int {
	fetchable := func(t *thread) bool {
		return sharedFree > 0 && !t.halted && !t.win.DDT().Full()
	}
	switch policy {
	case RoundRobin:
		for k := 0; k < len(threads); k++ {
			i := (*rr + k) % len(threads)
			if fetchable(threads[i]) {
				*rr = (i + 1) % len(threads)
				return i
			}
		}
		return -1
	case ICOUNT:
		best, bestN := -1, 1<<30
		for i, t := range threads {
			if fetchable(t) && len(t.window) < bestN {
				best, bestN = i, len(t.window)
			}
		}
		return best
	default: // DepLength
		best := -1
		bestM := 0.0
		for i, t := range threads {
			if !fetchable(t) {
				continue
			}
			m := t.avgChain()
			if best < 0 || m < bestM {
				best, bestM = i, m
			}
		}
		return best
	}
}
