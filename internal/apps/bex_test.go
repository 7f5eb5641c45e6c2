package apps

import (
	"testing"

	"repro/internal/workload"
)

// TestEvaluateBEXOnWorkloads pins EvaluateBEX's results on two workloads,
// so a change to the window wtrace.Walk maintains cannot pass on
// plausibility alone. The budget-4 rows sit below MaxSlice, which pins
// the uncovered branches too.
func TestEvaluateBEXOnWorkloads(t *testing.T) {
	for _, tc := range []struct {
		bench string
		want  BEXResult
	}{
		{"m88ksim", BEXResult{Branches: 5190, Covered: 5190, SliceSum: 26632, MaxSlice: 8, WindowSize: 64, Budget: 12}},
		{"vortex", BEXResult{Branches: 16558, Covered: 16558, SliceSum: 116437, MaxSlice: 9, WindowSize: 64, Budget: 12}},
		{"m88ksim", BEXResult{Branches: 5190, Covered: 862, SliceSum: 26632, MaxSlice: 8, WindowSize: 64, Budget: 4}},
		{"vortex", BEXResult{Branches: 16558, Covered: 139, SliceSum: 116437, MaxSlice: 9, WindowSize: 64, Budget: 4}},
	} {
		res, err := EvaluateBEX(workload.ByName(tc.bench).Prog, 60_000, 64, tc.want.Budget)
		if err != nil {
			t.Fatalf("%s: %v", tc.bench, err)
		}
		if res != tc.want {
			t.Errorf("%s budget %d: got %+v, want %+v", tc.bench, tc.want.Budget, res, tc.want)
		}
		if res.Coverage() <= 0 || res.Coverage() > 1 {
			t.Errorf("%s: coverage %v out of range", tc.bench, res.Coverage())
		}
		if res.AvgSlice() <= 0 || res.MaxSlice <= 0 {
			t.Errorf("%s: degenerate slices %+v", tc.bench, res)
		}
		if res.MaxSlice > res.WindowSize {
			t.Errorf("%s: slice exceeds window: %d > %d", tc.bench, res.MaxSlice, res.WindowSize)
		}
	}
}

func TestBEXBudgetMonotonicity(t *testing.T) {
	p := workload.ByName("li").Prog
	small, err := EvaluateBEX(p, 40_000, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	large, err := EvaluateBEX(p, 40_000, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if large.Covered < small.Covered {
		t.Errorf("bigger budget must cover at least as many branches: %d < %d",
			large.Covered, small.Covered)
	}
	if small.Branches != large.Branches {
		t.Errorf("branch counts differ: %d vs %d", small.Branches, large.Branches)
	}
}

func TestBEXZeroResultHelpers(t *testing.T) {
	var z BEXResult
	if z.Coverage() != 0 || z.AvgSlice() != 0 {
		t.Error("zero-result helpers wrong")
	}
}
