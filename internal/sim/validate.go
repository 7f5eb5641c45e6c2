package sim

import (
	"fmt"
	"math"
	"net/url"
	"strings"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// This file is the single home of the user-input validation rules shared
// by every front end — cmd/arvisim, cmd/experiments, cmd/asmrun,
// cmd/arvid's flags and the HTTP service (internal/server). The front
// ends differ in how a bad value arrives (a flag, a JSON field) and in
// how the rejection is delivered (exit status 2, a 4xx response), but the
// rule and the message text must not drift between them:
// internal/server's tests pin that an HTTP rejection carries exactly the
// message the CLI prints for the same bad value.

// ModeNames lists the accepted predictor-mode names in presentation
// order: the CLI aliases first. ParseMode additionally accepts each
// mode's cpu.PredMode.String() report name.
var ModeNames = []string{"baseline", "arvi-current", "arvi-loadback", "arvi-perfect"}

// ParseMode resolves a user-supplied predictor-mode name. It accepts the
// CLI alias "baseline" as well as the report name "2lvl-2bc-gskew" for
// the two-level baseline; the ARVI modes use their report names.
func ParseMode(name string) (cpu.PredMode, error) {
	switch name {
	case "baseline", cpu.PredBaseline2Lvl.String():
		return cpu.PredBaseline2Lvl, nil
	case cpu.PredARVICurrent.String():
		return cpu.PredARVICurrent, nil
	case cpu.PredARVILoadBack.String():
		return cpu.PredARVILoadBack, nil
	case cpu.PredARVIPerfect.String():
		return cpu.PredARVIPerfect, nil
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

// ValidateDepth rejects a non-positive pipeline depth. Depths other
// than the paper's 20/40/60 are deliberately allowed (LatenciesForDepth
// buckets them), but a zero or negative depth has no machine meaning.
func ValidateDepth(depth int) error {
	if depth <= 0 {
		return fmt.Errorf("depth %d out of range (need >= 1)", depth)
	}
	return nil
}

// ValidateBudget rejects a non-positive per-cell instruction budget. A
// zero budget would silently mean the default one (Spec.Config), and a
// negative one would run every program to halt.
func ValidateBudget(n int64) error {
	if n <= 0 {
		return fmt.Errorf("instruction budget %d out of range (need >= 1)", n)
	}
	return nil
}

// ValidateAxis applies valid (nil: none) to each value of one axis of a
// grid request and rejects a value listed twice, which would run and
// report the same cells twice. Values compare as given, so an axis whose
// names have aliases (modes) is checked after parsing.
func ValidateAxis[T comparable](axis string, values []T, valid func(T) error) error {
	seen := make(map[T]bool, len(values))
	for _, v := range values {
		if valid != nil {
			if err := valid(v); err != nil {
				return err
			}
		}
		if seen[v] {
			return fmt.Errorf("%s %v listed twice", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// ValidateBench rejects a benchmark name outside the compiled-in suite.
func ValidateBench(name string) error {
	if _, ok := workload.Lookup(name); !ok {
		return fmt.Errorf("unknown benchmark %q", name)
	}
	return nil
}

// ValidateConfThreshold rejects a JRS confidence-threshold override that
// a 4-bit counter could never reach (such a threshold would silently veto
// every ARVI override). Zero is valid and means "paper default", not
// "threshold 0"; see Spec.ConfThreshold. The parameter is uint so callers
// can validate raw flag/JSON values before narrowing to uint8.
func ValidateConfThreshold(v uint) error {
	if v > 15 {
		return fmt.Errorf("conf-threshold %d out of range (counters saturate at 15)", v)
	}
	return nil
}

// ValidateSpec applies every per-run rule to a spec built from user
// input: the benchmark must exist, the depth must be positive, and the
// threshold override must be reachable.
func ValidateSpec(s Spec) error {
	if err := ValidateBench(s.Bench); err != nil {
		return err
	}
	if err := ValidateDepth(s.Depth); err != nil {
		return err
	}
	return ValidateConfThreshold(uint(s.ConfThreshold))
}

// ValidateSMTCycles rejects a non-positive SMT cycle budget.
func ValidateSMTCycles(cycles int64) error {
	if cycles <= 0 {
		return fmt.Errorf("-smt-cycles %d out of range (need >= 1)", cycles)
	}
	return nil
}

// maxTraceMemMiB is the largest resident decoded-trace budget, in MiB,
// whose byte count fits an int64.
const maxTraceMemMiB int64 = math.MaxInt64 >> 20

// ValidateTraceMem rejects a -trace-mem budget (MiB) the trace store
// cannot honour: a negative one, or one whose byte count overflows. The
// store reads any byte budget <= 0 as DefaultTraceMemBudget, so either
// would silently become the default; 0 asks for that default.
func ValidateTraceMem(mib int64) error {
	if mib < 0 || mib > maxTraceMemMiB {
		return fmt.Errorf("-trace-mem %d out of range (need 0 to %d MiB, 0 = default)", mib, maxTraceMemMiB)
	}
	return nil
}

// ValidateNonNegative rejects a negative value for a count or duration
// flag whose 0 selects a default (-workers, -max-inflight, the dist
// retry knobs) or turns a limit off (-request-timeout). Their consumers
// read any value <= 0 as that 0, so a negative one would silently become
// it.
func ValidateNonNegative[T ~int | ~int64](flag string, v T) error {
	if v < 0 {
		return fmt.Errorf("%s %v out of range (need >= 0)", flag, v)
	}
	return nil
}

// ValidateDepThreshold rejects a non-positive criticality cut: threshold
// 0 would make the "selective" value-prediction cells identical to the
// all-instructions cells, silently collapsing the ablation.
func ValidateDepThreshold(th int) error {
	if th <= 0 {
		return fmt.Errorf("-dep-threshold %d out of range (need >= 1)", th)
	}
	return nil
}

// ValidateMix rejects a mix name outside the canonical SMT mix set.
func ValidateMix(name string) error {
	if _, ok := workload.LookupMix(name); !ok {
		return fmt.Errorf("unknown mix %q", name)
	}
	return nil
}

// ValidatePredictor rejects a value-predictor family name that
// VPredStudy could not instantiate.
func ValidatePredictor(name string) error {
	for _, p := range VPredPredictors {
		if p == name {
			return nil
		}
	}
	return fmt.Errorf("unknown value predictor %q", name)
}

// ValidateBaseURL rejects a worker base URL that endpoint
// paths cannot be appended to: it must be an absolute http or https URL
// with a host, and carry no query or fragment, which would swallow the
// path (http://h:1/?x=1 plus /v1/run asks http://h:1/ with a query).
func ValidateBaseURL(s string) error {
	u, err := url.Parse(s)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" || strings.ContainsAny(s, "?#") {
		return fmt.Errorf("base url %q must be an absolute http or https URL with a host and no query or fragment", s)
	}
	return nil
}
