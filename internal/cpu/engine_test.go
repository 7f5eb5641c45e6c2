package cpu

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/prog"
	"repro/internal/vm"
)

// runLive replays p's live functional-VM execution through eng, as Run
// does on a fresh engine.
func runLive(eng *Engine, p *prog.Program) (Stats, error) {
	return eng.RunSourceContext(context.Background(), p, &vmSource{m: vm.New(p)})
}

func runSrc(t *testing.T, src string, cfg Config) Stats {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	st, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return st
}

// genIndependent builds a program of n fully independent single-cycle ALU
// instructions spread over many registers.
func genIndependent(n int) string {
	var b strings.Builder
	b.WriteString("main:\n")
	for i := 0; i < n; i++ {
		r := 1 + i%20
		b.WriteString("    addi r")
		b.WriteString(itoa(r))
		b.WriteString(", r0, 7\n")
	}
	b.WriteString("    halt\n")
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}

func TestIPCIndependentOps(t *testing.T) {
	st := runSrc(t, genIndependent(4000), DefaultConfig(20, PredBaseline2Lvl))
	if ipc := st.IPC(); ipc < 3.0 {
		t.Errorf("independent-op IPC = %.2f, want near 4", ipc)
	}
	if st.Insts != 4001 {
		t.Errorf("insts = %d", st.Insts)
	}
}

func TestIPCSerialChain(t *testing.T) {
	var b strings.Builder
	b.WriteString("main:\n")
	for i := 0; i < 2000; i++ {
		b.WriteString("    addi r1, r1, 1\n")
	}
	b.WriteString("    halt\n")
	st := runSrc(t, b.String(), DefaultConfig(20, PredBaseline2Lvl))
	if ipc := st.IPC(); ipc > 1.2 {
		t.Errorf("serial-chain IPC = %.2f, want ~1", ipc)
	}
}

func TestMulUnitContention(t *testing.T) {
	var b strings.Builder
	b.WriteString("main:\n")
	for i := 0; i < 1000; i++ {
		r := 1 + i%8
		b.WriteString("    mul r" + itoa(r) + ", r0, r0\n")
	}
	b.WriteString("    halt\n")
	st := runSrc(t, b.String(), DefaultConfig(20, PredBaseline2Lvl))
	// One non-pipelined 3-cycle multiplier: throughput bounded by 1/3.
	if ipc := st.IPC(); ipc > 0.45 {
		t.Errorf("mul-bound IPC = %.2f, want <= ~0.33", ipc)
	}
}

func TestDeeperPipelineSlowerOnMispredicts(t *testing.T) {
	// LCG-driven unpredictable branches: every depth pays per mispredict,
	// deeper pays more.
	src := `
main:
    li  r1, 12345      # lcg state
    li  r2, 1103515245
    li  r3, 12345
    li  r4, 0          # counter
    li  r5, 3000       # iterations
loop:
    mul r1, r1, r2
    add r1, r1, r3
    srli r6, r1, 16
    andi r6, r6, 1
    beq r6, r0, skip
    addi r7, r7, 1
skip:
    addi r4, r4, 1
    bne r4, r5, loop
    halt
`
	st20 := runSrc(t, src, DefaultConfig(20, PredBaseline2Lvl))
	st60 := runSrc(t, src, DefaultConfig(60, PredBaseline2Lvl))
	if st20.IPC() <= st60.IPC() {
		t.Errorf("20-stage IPC (%.3f) must exceed 60-stage (%.3f)", st20.IPC(), st60.IPC())
	}
	// The random branch should be mispredicted a lot.
	if acc := st20.PredAccuracy(); acc > 0.9 {
		t.Errorf("accuracy on random branches = %.3f, suspiciously high", acc)
	}
}

func TestPredictableLoopBranches(t *testing.T) {
	src := `
main:
    li r1, 0
    li r2, 5000
loop:
    addi r1, r1, 1
    bne r1, r2, loop
    halt
`
	st := runSrc(t, src, DefaultConfig(20, PredBaseline2Lvl))
	if acc := st.PredAccuracy(); acc < 0.99 {
		t.Errorf("loop-branch accuracy = %.4f, want ~1", acc)
	}
	if st.CondBranches != 5000 {
		t.Errorf("cond branches = %d", st.CondBranches)
	}
}

// miniM88k is the m88ksim-style kernel: an inner while loop whose trip
// count is fully determined by a value computed (and committed) well before
// the loop — the paper's Figure 7 scenario.
const miniM88k = `
main:
    li  r1, 98765      # lcg state
    li  r2, 16807
    li  r10, 0         # outer counter
    li  r11, 800       # outer iterations
outer:
    mul r1, r1, r2
    addi r1, r1, 11
    srli r3, r1, 12
    andi r3, r3, 7     # inner trip count 0..7 ("key")
    # padding so the trip count is committed before the inner loop
    addi r20, r20, 1
    addi r21, r21, 1
    addi r22, r22, 1
    addi r23, r23, 1
    li  r4, 0          # inner counter
inner:
    beq r4, r3, done   # exit branch: value-determined
    addi r4, r4, 1
    j   inner
done:
    addi r10, r10, 1
    bne r10, r11, outer
    halt
`

func TestARVIBeatsBaselineOnValueDeterminedBranch(t *testing.T) {
	base := runSrc(t, miniM88k, DefaultConfig(20, PredBaseline2Lvl))
	av := runSrc(t, miniM88k, DefaultConfig(20, PredARVICurrent))
	if av.PredAccuracy() <= base.PredAccuracy() {
		t.Errorf("ARVI accuracy (%.4f) must beat baseline (%.4f)",
			av.PredAccuracy(), base.PredAccuracy())
	}
	if av.IPC() <= base.IPC() {
		t.Errorf("ARVI IPC (%.3f) must beat baseline (%.3f)", av.IPC(), base.IPC())
	}
	if av.ARVILookups == 0 || av.ARVIUsed == 0 {
		t.Errorf("ARVI never consulted: %+v", av)
	}
}

func TestBranchClassification(t *testing.T) {
	// A branch directly on a freshly loaded value (pointer-chase style)
	// must classify as a load branch; a branch on long-committed values
	// must classify as calculated.
	src := `
    .data
tab: .word 1, 2, 3, 4, 5, 6, 7, 0
    .text
main:
    li  r9, 0
    li  r8, 2000
loop:
    andi r2, r9, 7
    slli r2, r2, 3
    la  r3, tab
    add r3, r3, r2
    lw  r4, 0(r3)       # load
    beq r4, r0, zero    # branch on loaded value -> load branch
zero:
    addi r9, r9, 1
    bne r9, r8, loop    # branch on committed counter -> mixed/calc
    halt
`
	st := runSrc(t, src, DefaultConfig(20, PredARVICurrent))
	if st.LoadBranches == 0 {
		t.Error("no load branches classified")
	}
	if st.CalcBranches == 0 {
		t.Error("no calculated branches classified")
	}
	if st.LoadBranches+st.CalcBranches != st.CondBranches {
		t.Errorf("class counts %d+%d != branches %d",
			st.LoadBranches, st.CalcBranches, st.CondBranches)
	}
}

func TestLoadBranchFractionGrowsWithDepth(t *testing.T) {
	src := `
    .data
tab: .word 3, 1, 4, 1, 5, 9, 2, 6
    .text
main:
    li  r9, 0
    li  r8, 3000
loop:
    andi r2, r9, 7
    slli r2, r2, 3
    la  r3, tab
    add r3, r3, r2
    lw  r4, 0(r3)
    andi r4, r4, 1
    bne r4, r0, odd
odd:
    addi r9, r9, 1
    bne r9, r8, loop
    halt
`
	st20 := runSrc(t, src, DefaultConfig(20, PredARVICurrent))
	st60 := runSrc(t, src, DefaultConfig(60, PredARVICurrent))
	if st20.LoadBranchFraction() > st60.LoadBranchFraction() {
		t.Errorf("load-branch fraction must not shrink with depth: %.3f -> %.3f",
			st20.LoadBranchFraction(), st60.LoadBranchFraction())
	}
}

func TestPerfectValueAtLeastAsGoodAsCurrent(t *testing.T) {
	src := `
    .data
tab: .word 0, 1, 0, 1, 1, 0, 1, 0
    .text
main:
    li  r1, 5555
    li  r9, 0
    li  r8, 2500
loop:
    mul r1, r1, r1
    addi r1, r1, 17
    srli r2, r1, 9
    andi r2, r2, 7
    slli r2, r2, 3
    la  r3, tab
    add r3, r3, r2
    lw  r4, 0(r3)
    beq r4, r0, skip    # outcome = loaded value, random index
    addi r6, r6, 1
skip:
    addi r9, r9, 1
    bne r9, r8, loop
    halt
`
	cur := runSrc(t, src, DefaultConfig(20, PredARVICurrent))
	per := runSrc(t, src, DefaultConfig(20, PredARVIPerfect))
	if per.PredAccuracy()+1e-9 < cur.PredAccuracy() {
		t.Errorf("perfect (%.4f) must be >= current (%.4f)",
			per.PredAccuracy(), cur.PredAccuracy())
	}
}

func TestStoreForwarding(t *testing.T) {
	src := `
    .data
buf: .space 64
    .text
main:
    li r9, 0
    li r8, 1000
loop:
    la r3, buf
    sw r9, 0(r3)
    lw r4, 0(r3)       # forwarded from the store
    addi r9, r9, 1
    bne r9, r8, loop
    halt
`
	st := runSrc(t, src, DefaultConfig(20, PredBaseline2Lvl))
	if st.StoreForwarded == 0 {
		t.Error("no store-to-load forwarding observed")
	}
}

func TestCacheMissesSlowLoads(t *testing.T) {
	mk := func(stride int) string {
		return `
    .data
buf: .space 2097152
    .text
main:
    li r9, 0
    li r8, 3000
    la r3, buf
loop:
    lw r4, 0(r3)
    addi r3, r3, ` + itoa(stride) + `
    addi r9, r9, 1
    bne r9, r8, loop
    halt
`
	}
	dense := runSrc(t, mk(8), DefaultConfig(20, PredBaseline2Lvl))
	sparse := runSrc(t, mk(512), DefaultConfig(20, PredBaseline2Lvl))
	if sparse.IPC() >= dense.IPC() {
		t.Errorf("strided misses must hurt: dense %.3f vs sparse %.3f",
			dense.IPC(), sparse.IPC())
	}
	if sparse.L1DMissRate <= dense.L1DMissRate {
		t.Errorf("miss rates: dense %.3f, sparse %.3f", dense.L1DMissRate, sparse.L1DMissRate)
	}
}

func TestCallReturnPredictedByRAS(t *testing.T) {
	src := `
main:
    li r9, 0
    li r8, 2000
loop:
    call fn
    addi r9, r9, 1
    bne r9, r8, loop
    halt
fn:
    addi r5, r5, 1
    ret
`
	st := runSrc(t, src, DefaultConfig(20, PredBaseline2Lvl))
	if st.JumpMispreds > 2 {
		t.Errorf("RAS mispredicts = %d, want ~0", st.JumpMispreds)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(20, PredBaseline2Lvl)
	bad.ROB = 0
	if _, err := NewEngine(bad); err == nil {
		t.Error("zero ROB accepted")
	}
	bad = DefaultConfig(0, PredBaseline2Lvl)
	if _, err := NewEngine(bad); err == nil {
		t.Error("zero depth accepted")
	}
}

func TestL2LatencyTable4(t *testing.T) {
	// Table 4: hybrid 2/4/6, ARVI 6/12/18 for 20/40/60 stages.
	cases := []struct {
		depth int
		mode  PredMode
		want  int
	}{
		{20, PredBaseline2Lvl, 2}, {40, PredBaseline2Lvl, 4}, {60, PredBaseline2Lvl, 6},
		{20, PredARVICurrent, 6}, {40, PredARVICurrent, 12}, {60, PredARVICurrent, 18},
	}
	for _, c := range cases {
		if got := DefaultConfig(c.depth, c.mode).L2Latency(); got != c.want {
			t.Errorf("L2Latency(%d, %v) = %d, want %d", c.depth, c.mode, got, c.want)
		}
	}
}

func TestMaxInsts(t *testing.T) {
	cfg := DefaultConfig(20, PredBaseline2Lvl)
	cfg.MaxInsts = 100
	p := asm.MustAssemble("inf", "main:\n  j main\n")
	st, err := Run(p, cfg)
	if err != nil || st.Insts != 100 {
		t.Errorf("MaxInsts run = %d, %v", st.Insts, err)
	}
}

func TestROBLimitsWindow(t *testing.T) {
	// A long-latency load followed by thousands of independent ops: the
	// ROB caps how much parallelism is exposed, so a tiny ROB must be
	// slower than the default.
	src := `
    .data
buf: .space 4194304
    .text
main:
    li r9, 0
    li r8, 40
    la r3, buf
loop:
    lw r4, 0(r3)
    add r5, r5, r4
` + strings.Repeat("    addi r6, r6, 1\n", 100) + `
    addi r3, r3, 65536
    addi r9, r9, 1
    bne r9, r8, loop
    halt
`
	small := DefaultConfig(20, PredBaseline2Lvl)
	small.ROB = 16
	big := DefaultConfig(20, PredBaseline2Lvl)
	sSmall := runSrc(t, src, small)
	sBig := runSrc(t, src, big)
	if sSmall.IPC() >= sBig.IPC() {
		t.Errorf("ROB=16 IPC %.3f must be below ROB=256 IPC %.3f", sSmall.IPC(), sBig.IPC())
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Insts: 100, Cycles: 50, CondBranches: 10, Mispredicts: 2,
		CalcBranches: 6, CalcMispreds: 3, LoadBranches: 4, LoadMispreds: 1}
	if s.IPC() != 2 {
		t.Errorf("IPC = %v", s.IPC())
	}
	if s.PredAccuracy() != 0.8 {
		t.Errorf("acc = %v", s.PredAccuracy())
	}
	if s.ClassAccuracy(ClassCalculated) != 0.5 {
		t.Errorf("calc acc = %v", s.ClassAccuracy(ClassCalculated))
	}
	if s.ClassAccuracy(ClassLoad) != 0.75 {
		t.Errorf("load acc = %v", s.ClassAccuracy(ClassLoad))
	}
	if s.LoadBranchFraction() != 0.4 {
		t.Errorf("lbf = %v", s.LoadBranchFraction())
	}
	var z Stats
	if z.IPC() != 0 || z.PredAccuracy() != 1 || z.LoadBranchFraction() != 0 {
		t.Error("zero-stats helpers wrong")
	}
	if z.ClassAccuracy(ClassCalculated) != 1 || z.ClassAccuracy(ClassLoad) != 1 {
		t.Error("zero class accuracy wrong")
	}
}

func TestProgramValidation(t *testing.T) {
	p := &prog.Program{Name: "empty"}
	if _, err := Run(p, DefaultConfig(20, PredBaseline2Lvl)); err == nil {
		t.Error("empty program accepted")
	}
}

// resetTestKernel mixes serial chains, unpredictable and loop branches,
// loads, stores and calls so an engine run touches every per-run structure:
// the DDT, RAS, free ring, store queue, ARVI, confidence and both gskew
// levels.
const resetTestKernel = `
main:
    li  r1, 424242     # lcg state
    li  r2, 1103515245
    li  r9, 0          # counter
    li  r10, 1500      # iterations
    li  r12, 256       # data base
loop:
    mul r1, r1, r2
    addi r1, r1, 12345
    srli r3, r1, 13
    andi r3, r3, 63
    add r4, r12, r3
    sw  r1, 0(r4)      # store to a hashed slot
    lw  r5, 0(r4)      # forwarded load
    andi r6, r5, 1
    beq r6, r0, even
    addi r7, r7, 1
even:
    jal helper
    addi r9, r9, 1
    bne r9, r10, loop
    halt
helper:
    addi r8, r8, 3
    jr  r31
`

// TestEngineResetDeterminism pins the Reset contract the sim-layer engine
// pool depends on: a reset engine must reproduce a fresh engine's
// statistics bit for bit, for every predictor mode.
func TestEngineResetDeterminism(t *testing.T) {
	p, err := asm.Assemble("t", resetTestKernel)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	for _, mode := range []PredMode{PredBaseline2Lvl, PredARVICurrent, PredARVILoadBack, PredARVIPerfect} {
		cfg := DefaultConfig(20, mode)
		cfg.MaxInsts = 15_000
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := runLive(eng, p)
		if err != nil {
			t.Fatal(err)
		}
		// A second run on dirty state must diverge-proof via Reset only.
		for i := 0; i < 2; i++ {
			eng.Reset()
			again, err := runLive(eng, p)
			if err != nil {
				t.Fatal(err)
			}
			if again != fresh {
				t.Errorf("%v: reset run %d diverged:\nfresh %+v\nreset %+v", mode, i, fresh, again)
			}
		}
	}
}

// TestEngineResetMatchesWrongPathInjection extends the Reset contract to
// the wrong-path exercise machinery (its undo scratch and free-ring
// front-pushes must also reset cleanly).
func TestEngineResetMatchesWrongPathInjection(t *testing.T) {
	p, err := asm.Assemble("t", resetTestKernel)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := DefaultConfig(20, PredARVICurrent)
	cfg.MaxInsts = 10_000
	cfg.WrongPathInject = true
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := runLive(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	eng.Reset()
	again, err := runLive(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	if again != fresh {
		t.Errorf("wrong-path inject reset diverged:\nfresh %+v\nreset %+v", fresh, again)
	}
}

// sliceSource replays pre-recorded records (test-local EventSource).
type sliceSource struct {
	recs []vm.Rec
	i    int
}

func (s *sliceSource) NextChunk(n int) ([]vm.Rec, error) {
	chunk := s.recs[s.i:min(s.i+n, len(s.recs))]
	s.i += len(chunk)
	return chunk, nil
}

// TestRecordOutsideTextFails pins that a record naming a pc outside the
// program text, as a trace of another program can, fails the run with an
// error instead of indexing past the pre-decoded table.
func TestRecordOutsideTextFails(t *testing.T) {
	p, err := asm.Assemble("t", "main:\n  li r1, 1\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(DefaultConfig(20, PredARVICurrent))
	if err != nil {
		t.Fatal(err)
	}
	src := &sliceSource{recs: []vm.Rec{{PC: 0, Next: 1}, {PC: 2, Next: 3}}}
	if _, err := eng.RunSource(p, src); !errors.Is(err, errPCOutside) {
		t.Errorf("err = %v, want %v", err, errPCOutside)
	}
}

// TestSteadyStateAllocFree is the per-event allocation regression guard of
// the hot path: after warm-up, replaying the full timing model (fetch,
// rename, DDT insert, ARVI prediction, issue, commit) must not allocate at
// all. The free-list and RAS rings plus the closure-free leaf resolution
// are what make this hold; any regression shows up as a non-zero
// AllocsPerRun.
func TestSteadyStateAllocFree(t *testing.T) {
	p, err := asm.Assemble("t", resetTestKernel)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	// Pre-record the dynamic trace so the VM is outside the measured loop.
	var recs []vm.Rec
	m := vm.New(p)
	for len(recs) < 12_000 && !m.Halt {
		var ev vm.Event
		if err := m.Step(&ev); err != nil {
			break
		}
		recs = append(recs, ev.Rec())
	}
	for _, mode := range []PredMode{PredBaseline2Lvl, PredARVICurrent} {
		cfg := DefaultConfig(20, mode)
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := &sliceSource{recs: recs}
		run := func() {
			eng.Reset()
			src.i = 0
			if _, err := eng.RunSource(p, src); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: scratch buffers reach steady-state capacity
		if avg := testing.AllocsPerRun(5, run); avg != 0 {
			t.Errorf("%v: steady-state run allocates %.1f times, want 0", mode, avg)
		}
	}
}
