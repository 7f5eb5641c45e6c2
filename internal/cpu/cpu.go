// Package cpu implements the out-of-order superscalar timing model of
// Table 2: 4-wide fetch/decode/commit, a 256-entry ROB, a 32-entry
// load/store queue, 4 integer ALUs + 1 multiplier, and configurable
// pipeline depth (20/40/60 stages).
//
// The model is an analytic replay over the correct-path dynamic trace
// produced by the functional VM: for each retired instruction the engine
// computes fetch, dispatch, ready, issue, completion and commit cycles
// under bandwidth, functional-unit, ROB/LSQ occupancy and data-dependence
// constraints. Branch mispredictions redirect fetch at branch resolution,
// so the penalty scales with pipeline depth exactly as the paper requires;
// wrong-path fetch appears as front-end bubbles (no wrong-path pollution —
// see DESIGN.md).
//
// The engine maintains the paper's machinery exactly in rename order:
// register rename onto a physical register file (early rename at fetch, as
// ARVI requires), the DDT/RSE (package core) and the two-level override
// predictor (level-1 2Bc-gskew plus either a large 2Bc-gskew or ARVI at
// level 2).
//
// The trace arrives as 32-byte vm.Rec records, read from an EventSource
// in chunks of at most 65 536 and replayed in place; the engine looks each
// record's static instruction up in a table it pre-decodes from the
// program text at the start of the run. Cancellation is checked between
// chunks. The shortcuts that keep this loop cheap — masked rings,
// same-line fetch, the DDT's O(1) stale width, one store-queue scan per
// load — are exact; DESIGN.md's replay loop section gives the argument
// for each.
package cpu

import (
	"fmt"

	"repro/internal/arvi"
)

// PredMode selects the level-2 predictor configuration (Section 5).
type PredMode int

const (
	// PredBaseline2Lvl: level-1 4 KB 2Bc-gskew + level-2 32 KB 2Bc-gskew.
	PredBaseline2Lvl PredMode = iota
	// PredARVICurrent: ARVI at level 2 using currently available values.
	PredARVICurrent
	// PredARVILoadBack: ARVI with the load-back hoisting optimisation.
	PredARVILoadBack
	// PredARVIPerfect: ARVI with oracle values (upper bound).
	PredARVIPerfect
)

var predModeNames = map[PredMode]string{
	PredBaseline2Lvl: "2lvl-2bc-gskew",
	PredARVICurrent:  "arvi-current",
	PredARVILoadBack: "arvi-loadback",
	PredARVIPerfect:  "arvi-perfect",
}

// String returns the mode's report name.
func (m PredMode) String() string { return predModeNames[m] }

// UsesARVI reports whether the mode places ARVI at level 2.
func (m PredMode) UsesARVI() bool { return m != PredBaseline2Lvl }

// Config parameterises one simulation.
type Config struct {
	// Depth is the pipeline depth in stages: 20, 40 or 60. It sets the
	// fetch-to-execute latency and, with it, the misprediction penalty.
	Depth int
	// Mode selects the level-2 predictor.
	Mode PredMode

	FetchWidth  int // instructions fetched per cycle (4)
	CommitWidth int // instructions committed per cycle (4)
	ROB         int // reorder-buffer entries (256)
	LSQ         int // load/store queue entries (32)
	IntALU      int // single-cycle integer units (4)
	IntMul      int // multiply/divide units (1)
	MemPorts    int // cache ports (2)

	// L1PredEntries is the per-bank size of the level-1 2Bc-gskew
	// (4096 two-bit counters = 1 KB per bank, 4 KB total).
	L1PredEntries int
	// L2PredEntries is the per-bank size of the baseline level-2 hybrid
	// (32768 counters = 8 KB per bank, 32 KB total).
	L2PredEntries int
	// ConfThreshold is the JRS confidence threshold gating ARVI use.
	ConfThreshold uint8
	// ARVIUseThreshold is the minimum Heil performance-counter value an
	// ARVI entry needs before its prediction overrides the level-1
	// predictor. Entries below it keep training but do not steer fetch.
	ARVIUseThreshold uint8
	// StalePolicy selects what an unavailable leaf contributes to the
	// BVIT index (see the constants).
	StalePolicy StalePolicy
	// ARVIRequireStrong, when set, lets ARVI override the level-1
	// prediction only when the matched entry's direction counter is
	// saturated. Oscillating entries (value-unpredictable branches) then
	// train without steering fetch.
	ARVIRequireStrong bool
	// ARVIGateMode selects experimental composite gates (used by the
	// gating ablation): 0 = plain (threshold + optional strong),
	// 1 = use when strong OR perf>=3, 2 = use when strong OR perf>=2.
	ARVIGateMode int

	// ARVI is the BVIT configuration.
	ARVI arvi.Config
	// CutAtLoads selects the DDT chain ablation (DESIGN.md).
	CutAtLoads bool

	// MaxInsts bounds the simulation length (0 = run to halt).
	MaxInsts int64

	// WrongPathInject, when set, renames a burst of wrong-path
	// instructions into the DDT after every direction misprediction and
	// then recovers with the paper's rollback (head-pointer rewind plus
	// rename-map restore). Timing and statistics are unaffected by
	// construction — the flag exists to exercise the recovery machinery
	// under the full pipeline (see TestWrongPathInjectionIsTransparent).
	WrongPathInject bool
}

// DefaultConfig returns the Table 2 machine at the given depth and mode.
func DefaultConfig(depth int, mode PredMode) Config {
	return Config{
		Depth: depth, Mode: mode,
		FetchWidth: 4, CommitWidth: 4,
		ROB: 256, LSQ: 32,
		IntALU: 4, IntMul: 1, MemPorts: 2,
		L1PredEntries: 4096, L2PredEntries: 32768,
		ConfThreshold: 8, ARVIUseThreshold: 1,
		ARVI: arvi.DefaultConfig(),
	}
}

// L2Latency returns the level-2 predictor access latency (Table 4).
func (c Config) L2Latency() int {
	base := c.Depth / 20
	if base < 1 {
		base = 1
	}
	if c.Mode.UsesARVI() {
		return 6 * base // 6 / 12 / 18
	}
	return 2 * base // 2 / 4 / 6
}

// FrontLatency returns the fetch-to-execute pipeline latency implied by the
// depth: an instruction cannot begin execution earlier than
// fetch + FrontLatency.
func (c Config) FrontLatency() int {
	f := c.Depth - 4 // leave a few back-end stages
	if f < 1 {
		f = 1
	}
	return f
}

func (c Config) validate() error {
	if c.Depth <= 0 || c.FetchWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("cpu: non-positive width/depth in config")
	}
	if c.ROB <= 0 || c.LSQ <= 0 || c.IntALU <= 0 || c.IntMul <= 0 || c.MemPorts <= 0 {
		return fmt.Errorf("cpu: non-positive structure size in config")
	}
	return nil
}

// StalePolicy selects the value an unavailable leaf register contributes
// to the BVIT index hash.
type StalePolicy int

const (
	// StalePhysical is the paper's literal semantics and the default: the
	// shadow register file mirrors the *physical* register file, so an
	// unavailable leaf reads whatever the previous occupant of that
	// physical register left behind. In steady-state loops the free list
	// rotates with the loop, so this stale content is surprisingly well
	// correlated with the path (it is why li benefits strongly from ARVI).
	StalePhysical StalePolicy = iota
	// StaleMask contributes nothing for unavailable leaves: the index is
	// formed from the available values only, keeping it deterministic for
	// a given program point. The availability information comes from the
	// issue scoreboard the rename stage already consults.
	StaleMask
	// StaleArchValue reads the committed architectural value of the
	// leaf's logical register (a 32-entry shadow of the architectural
	// file). Cheap, but the lag between fetch and commit makes the read
	// timing dependent.
	StaleArchValue
)

// BranchClass labels a dynamic conditional branch per Section 4.1.
type BranchClass int

const (
	// ClassCalculated: every leaf value was available at prediction time.
	ClassCalculated BranchClass = iota
	// ClassLoad: the chain terminated in a pending load.
	ClassLoad
)

// Stats aggregates one simulation run.
type Stats struct {
	Insts  int64
	Cycles int64

	CondBranches   int64
	Mispredicts    int64 // final (post-override) direction mispredictions
	L1Mispredicts  int64 // what the level-1 alone would have missed
	Overrides      int64 // level-2 changed the level-1 direction
	OverrideGood   int64 // ... and was right to do so
	JumpMispreds   int64 // indirect-jump target mispredictions
	TakenBranches  int64
	CalcBranches   int64 // dynamic calculated branches (ARVI modes)
	LoadBranches   int64 // dynamic load branches (ARVI modes)
	CalcMispreds   int64
	LoadMispreds   int64
	ARVIUsed       int64 // branches where ARVI steered the prediction
	ARVIHits       int64
	ARVILookups    int64
	ChainDepthSum  int64 // summed dependence-chain depth over lookups
	LeafCountSum   int64 // summed leaf-set size over lookups
	Loads, Stores  int64
	L1DMissRate    float64
	L2MissRate     float64
	L1IMissRate    float64
	StoreForwarded int64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// PredAccuracy returns the final conditional-branch prediction accuracy.
func (s Stats) PredAccuracy() float64 {
	if s.CondBranches == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts)/float64(s.CondBranches)
}

// ClassAccuracy returns the prediction accuracy for the given class.
func (s Stats) ClassAccuracy(c BranchClass) float64 {
	switch c {
	case ClassCalculated:
		if s.CalcBranches == 0 {
			return 1
		}
		return 1 - float64(s.CalcMispreds)/float64(s.CalcBranches)
	default:
		if s.LoadBranches == 0 {
			return 1
		}
		return 1 - float64(s.LoadMispreds)/float64(s.LoadBranches)
	}
}

// LoadBranchFraction returns the Figure 5(a) metric.
func (s Stats) LoadBranchFraction() float64 {
	t := s.CalcBranches + s.LoadBranches
	if t == 0 {
		return 0
	}
	return float64(s.LoadBranches) / float64(t)
}
