package sim

import (
	"context"
	"fmt"
	"io"

	"repro/internal/prog"
	"repro/internal/smt"
	"repro/internal/workload"
)

// SMTPolicies lists the compared fetch policies in presentation order:
// the paper's dependence-length proposal against Tullsen's ICOUNT and
// blind round-robin.
var SMTPolicies = []smt.Policy{smt.RoundRobin, smt.ICOUNT, smt.DepLength}

// SMTStats is the serialisable result of one SMT study cell.
type SMTStats struct {
	Cycles     int64   `json:"cycles"`
	TotalInsts int64   `json:"total_insts"`
	PerThread  []int64 `json:"per_thread"`
	PeakWindow int     `json:"peak_window"`
}

// Throughput is combined instructions per cycle.
func (s SMTStats) Throughput() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.TotalInsts) / float64(s.Cycles)
}

// SMTStudy is one (mix × policy) cell of the Section 3 fetch-priority
// study: the mix's programs run as simultaneous threads under one fetch
// policy.
type SMTStudy struct {
	Mix    workload.Mix
	Policy smt.Policy
	Config smt.Config

	// benches holds the pre-resolved mix members (see SMTStudies). Nil
	// means resolve on use, so hand-constructed studies stay valid.
	benches []workload.Benchmark
}

// resolve returns the mix's member benchmarks, preferring the
// pre-resolved set.
func (s SMTStudy) resolve() ([]workload.Benchmark, error) {
	if s.benches != nil {
		return s.benches, nil
	}
	return s.Mix.Programs()
}

// Kind implements Study.
func (s SMTStudy) Kind() string { return "smt" }

// String implements Study.
func (s SMTStudy) String() string {
	return fmt.Sprintf("%s/%s", s.Mix.Name, s.Policy)
}

// Identity implements Study. It covers the mix membership, the content
// fingerprints of the member programs (so a workload-generator change
// invalidates stale entries instead of serving them), the policy, and the
// full model configuration.
func (s SMTStudy) Identity() any {
	type id struct {
		Mix      string     `json:"mix"`
		Benches  []string   `json:"benches"`
		Programs []string   `json:"programs,omitempty"`
		Policy   string     `json:"policy"`
		Config   smt.Config `json:"config"`
	}
	var fps []string
	if benches, err := s.resolve(); err == nil {
		for _, b := range benches {
			fps = append(fps, b.Prog.FingerprintHex())
		}
	}
	return id{
		Mix: s.Mix.Name, Benches: s.Mix.Benches, Programs: fps,
		Policy: s.Policy.String(), Config: s.Config,
	}
}

// Simulate implements Study.
func (s SMTStudy) Simulate() (any, error) {
	benches, err := s.resolve()
	if err != nil {
		return nil, err
	}
	progs := make([]*prog.Program, len(benches))
	for i, b := range benches {
		progs[i] = b.Prog
	}
	res, err := smt.Run(progs, s.Policy, s.Config)
	if err != nil {
		return nil, err
	}
	return SMTStats{
		Cycles:     res.Cycles,
		TotalInsts: res.TotalInsts,
		PerThread:  res.PerThread,
		PeakWindow: res.PeakWindow,
	}, nil
}

// SMTGrid is a (mix × policy) result grid and its JSON body: the model
// configuration and the completed cells in run order (mix-major, policy
// order). Like Matrix it may be partial; the tables go through Lookup
// and mark missing cells n/a.
type SMTGrid struct {
	Config smt.Config  `json:"config"`
	Cells  []SMTRecord `json:"cells"`
	// Error is the joined error of a partial result, in the service's
	// body only.
	Error string `json:"error,omitempty"`

	// Mixes and Policies are the requested axes the tables render.
	Mixes    []workload.Mix `json:"-"`
	Policies []smt.Policy   `json:"-"`
}

// SMTRecord is one exported SMT grid cell: its coordinates, its derived
// throughput and every SMTStats field.
type SMTRecord struct {
	Mix        string   `json:"mix"`
	Benches    []string `json:"benches"`
	Policy     string   `json:"policy"`
	IPC        float64  `json:"ipc"`
	Cycles     int64    `json:"cycles"`
	TotalInsts int64    `json:"total_insts"`
	PerThread  []int64  `json:"per_thread"`
	PeakWindow int      `json:"peak_window"`
}

// Lookup returns one cell's stats and whether it is populated. It scans
// the cells: grids are small, and only tables and tests look cells up.
func (g *SMTGrid) Lookup(mix string, p smt.Policy) (SMTStats, bool) {
	for _, c := range g.Cells {
		if c.Mix == mix && c.Policy == p.String() {
			return SMTStats{Cycles: c.Cycles, TotalInsts: c.TotalInsts, PerThread: c.PerThread, PeakWindow: c.PeakWindow}, true
		}
	}
	return SMTStats{}, false
}

// Len reports the number of populated cells.
func (g *SMTGrid) Len() int { return len(g.Cells) }

// SMTStudies enumerates the (mix × policy) cells in the canonical
// mix-major order RunSMTGrid runs them and the service keys its flights
// by. Each mix is resolved once and shared by its policy cells, since
// building a benchmark regenerates and reassembles its program; a mix
// that fails to resolve stays unresolved, so each of its cells' Simulate
// surfaces the failure through the usual partial-result contract.
func SMTStudies(mixes []workload.Mix, policies []smt.Policy, cfg smt.Config) []SMTStudy {
	studies := make([]SMTStudy, 0, len(mixes)*len(policies))
	for _, m := range mixes {
		benches, _ := m.Programs()
		for _, p := range policies {
			studies = append(studies, SMTStudy{Mix: m, Policy: p, Config: cfg, benches: benches})
		}
	}
	return studies
}

// RunSMTGrid evaluates every (mix × policy) cell through the engine's
// worker pool and cache, with the usual partial-result contract: the grid
// holds everything that completed and the error joins per-cell failures.
func (e *Engine) RunSMTGrid(ctx context.Context, mixes []workload.Mix, policies []smt.Policy, cfg smt.Config) (*SMTGrid, error) {
	res, err := RunStudies[SMTStudy, SMTStats](ctx, e, SMTStudies(mixes, policies, cfg))
	g := &SMTGrid{Config: cfg, Cells: make([]SMTRecord, 0, len(res)), Mixes: mixes, Policies: policies}
	for _, r := range res {
		s, st := r.Study, r.Stats
		g.Cells = append(g.Cells, SMTRecord{
			Mix: s.Mix.Name, Benches: s.Mix.Benches, Policy: s.Policy.String(),
			IPC: st.Throughput(), Cycles: st.Cycles, TotalInsts: st.TotalInsts,
			PerThread: st.PerThread, PeakWindow: st.PeakWindow,
		})
	}
	return g, err
}

// SMTThroughputTable renders the study's headline: combined IPC per mix
// under each policy, with the smart policies' speedup over round-robin.
//
//arvi:det
func SMTThroughputTable(g *SMTGrid) Table {
	t := Table{
		Title: fmt.Sprintf("SMT fetch policies: combined throughput (IPC), %d-wide fetch, %d-entry shared window",
			g.Config.FetchWidth, g.Config.Window),
		Note:   "Section 3: per-thread DDT chain length as the fetch-priority signal",
		Header: []string{"mix"},
	}
	for _, p := range g.Policies {
		t.Header = append(t.Header, p.String())
	}
	for _, p := range g.Policies {
		if p != smt.RoundRobin {
			t.Header = append(t.Header, p.String()+"/rr")
		}
	}
	for _, m := range g.Mixes {
		row := []string{m.Name}
		rr, rrOK := g.Lookup(m.Name, smt.RoundRobin)
		for _, p := range g.Policies {
			if st, ok := g.Lookup(m.Name, p); ok {
				row = append(row, f3(st.Throughput()))
			} else {
				row = append(row, na)
			}
		}
		for _, p := range g.Policies {
			if p == smt.RoundRobin {
				continue
			}
			st, ok := g.Lookup(m.Name, p)
			if !ok || !rrOK || rr.Throughput() == 0 {
				row = append(row, na)
				continue
			}
			row = append(row, ratio(st.Throughput()/rr.Throughput()))
		}
		t.AddRow(row...)
	}
	return t
}

// SMTBalanceTable renders per-thread retired instructions per mix and
// policy — the starvation view the throughput headline hides.
//
//arvi:det
func SMTBalanceTable(g *SMTGrid) Table {
	t := Table{
		Title:  "SMT fetch policies: per-thread retired instructions",
		Header: []string{"mix", "policy", "per-thread", "peak window"},
	}
	for _, m := range g.Mixes {
		for _, p := range g.Policies {
			st, ok := g.Lookup(m.Name, p)
			if !ok {
				t.AddRow(m.Name, p.String(), na, na)
				continue
			}
			per := ""
			for i, n := range st.PerThread {
				if i > 0 {
					per += " / "
				}
				per += fmt.Sprintf("%d", n)
			}
			t.AddRow(m.Name, p.String(), per, fmt.Sprintf("%d", st.PeakWindow))
		}
	}
	return t
}

// WriteCSV exports the populated grid as tidy CSV for external plotting.
func (g *SMTGrid) WriteCSV(w io.Writer) error { return writeCSV(w, g.Cells) }

// WriteJSON exports the grid's body as indented JSON.
func (g *SMTGrid) WriteJSON(w io.Writer) error { return writeJSON(w, g) }
