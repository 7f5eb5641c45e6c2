package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/prog"
	"repro/internal/workload"
)

// storeQueueKernel makes the store queue's slot count visible in the
// statistics. Each iteration issues twelve memory operations, so with
// LSQ 12 every store reuses one slot, and a load of X[0] finds the last
// store to it only while no later store has taken that slot. Its data
// comes from a chain of divides, so that store's ready cycle reaches
// past the load's consumer branch and decides, under the load-back
// model, whether the branch is a load branch.
const storeQueueKernel = `
main:
    li r1, 0
    li r2, 2000
    li r10, 256
    li r12, 512
    li r20, 424242
    li r21, 1103515245
loop:
    mul r20, r20, r21
    addi r20, r20, 12345
    andi r3, r1, 3
    slli r3, r3, 3
    add r4, r10, r3
    srli r13, r20, 7
    div r13, r13, r21
    addi r13, r13, 7
    div r13, r13, r21
    addi r13, r13, 7
    div r13, r13, r21
    addi r13, r13, 7
    sw r13, 0(r4)      # X[i mod 4]
    lw r5, 0(r12)
    lw r5, 8(r12)
    lw r5, 16(r12)
    lw r5, 24(r12)
    lw r5, 32(r12)
    lw r5, 40(r12)
    lw r5, 48(r12)
    lw r5, 56(r12)
    lw r5, 0(r12)
    lw r5, 8(r12)
    lw r8, 0(r10)      # X[0]
    andi r9, r8, 1
    beq r9, r0, skip
    addi r11, r11, 1
skip:
    addi r1, r1, 1
    bne r1, r2, loop
    halt
`

// TestOddGeometryStatsPinned pins the full statistics of runs on windows
// that are not powers of two. The golden corpora run only the Table 2
// machine (ROB 256, LSQ 32), where the LSQ-sized store ring already has a
// power-of-two length, so they cannot tell a ring indexed by a mask from
// one indexed by a modulo, nor a store queue of LSQ slots from a longer
// one; these cases can. The values were recorded with the modulo-indexed
// rings the masked ones replaced.
func TestOddGeometryStatsPinned(t *testing.T) {
	kernel := asm.MustAssemble("t", resetTestKernel) // store-to-load forwarding every iteration
	storeQueue := asm.MustAssemble("t", storeQueueKernel)
	for _, tc := range []struct {
		name     string
		p        *prog.Program
		rob, lsq int
		mode     PredMode
		inject   bool
		want     Stats
	}{
		{"gcc", workload.ByName("gcc").Prog, 200, 24, PredBaseline2Lvl, false,
			Stats{Insts: 20000, Cycles: 43650, CondBranches: 6570, Mispredicts: 1476, L1Mispredicts: 1456, Overrides: 450, OverrideGood: 215, TakenBranches: 2608, Loads: 1752, Stores: 372, L1DMissRate: 0.025684931506849314, L2MissRate: 0.5416666666666666, L1IMissRate: 0.00015}},
		{"gcc", workload.ByName("gcc").Prog, 100, 12, PredARVILoadBack, false,
			Stats{Insts: 20000, Cycles: 43385, CondBranches: 6570, Mispredicts: 1412, L1Mispredicts: 1456, Overrides: 454, OverrideGood: 249, TakenBranches: 2608, CalcBranches: 2467, LoadBranches: 4103, CalcMispreds: 272, LoadMispreds: 1140, ARVIUsed: 1630, ARVIHits: 1761, ARVILookups: 5315, ChainDepthSum: 55404, LeafCountSum: 13465, Loads: 1752, Stores: 372, L1DMissRate: 0.025684931506849314, L2MissRate: 0.5416666666666666, L1IMissRate: 0.00015}},
		{"compress", workload.ByName("compress").Prog, 200, 24, PredARVILoadBack, true,
			Stats{Insts: 20000, Cycles: 15498, CondBranches: 4512, Mispredicts: 75, L1Mispredicts: 73, Overrides: 2, TakenBranches: 4451, CalcBranches: 4315, LoadBranches: 197, CalcMispreds: 17, LoadMispreds: 58, ARVIUsed: 10, ARVIHits: 11, ARVILookups: 396, ChainDepthSum: 401888, LeafCountSum: 9716, Loads: 406, Stores: 4376, L1DMissRate: 0.28641975308641976, L2MissRate: 0.7542372881355932, L1IMissRate: 0.0001, StoreForwarded: 1}},
		{"compress", workload.ByName("compress").Prog, 100, 12, PredBaseline2Lvl, false,
			Stats{Insts: 20000, Cycles: 16376, CondBranches: 4512, Mispredicts: 75, L1Mispredicts: 73, Overrides: 12, OverrideGood: 5, TakenBranches: 4451, Loads: 406, Stores: 4376, L1DMissRate: 0.28641975308641976, L2MissRate: 0.7542372881355932, L1IMissRate: 0.0001, StoreForwarded: 1}},
		{"kernel", kernel, 100, 12, PredARVILoadBack, true,
			Stats{Insts: 20000, Cycles: 12665, CondBranches: 2757, Mispredicts: 4, L1Mispredicts: 4, TakenBranches: 2067, CalcBranches: 1378, LoadBranches: 1379, CalcMispreds: 1, LoadMispreds: 3, ARVILookups: 44, ChainDepthSum: 231000, LeafCountSum: 9648, Loads: 1379, Stores: 1379, L2MissRate: 1, L1IMissRate: 5e-05, StoreForwarded: 1379}},
		{"kernel", kernel, 200, 24, PredBaseline2Lvl, false,
			Stats{Insts: 20000, Cycles: 12665, CondBranches: 2757, Mispredicts: 4, L1Mispredicts: 4, TakenBranches: 2067, Loads: 1379, Stores: 1379, L2MissRate: 1, L1IMissRate: 5e-05, StoreForwarded: 1379}},
		{"store queue", storeQueue, 100, 12, PredARVILoadBack, false,
			Stats{Insts: 20000, Cycles: 34810, CondBranches: 1378, Mispredicts: 2, L1Mispredicts: 4, Overrides: 2, OverrideGood: 2, TakenBranches: 689, CalcBranches: 1205, LoadBranches: 173, CalcMispreds: 1, LoadMispreds: 1, ARVIUsed: 11, ARVIHits: 11, ARVILookups: 28, ChainDepthSum: 2123, LeafCountSum: 2756, Loads: 7579, Stores: 690, L1DMissRate: 0.0004050769646232784, L2MissRate: 0.75, L1IMissRate: 5e-05, StoreForwarded: 173}},
	} {
		cfg := DefaultConfig(20, tc.mode)
		cfg.ROB, cfg.LSQ = tc.rob, tc.lsq
		cfg.MaxInsts = 20_000
		cfg.WrongPathInject = tc.inject
		got, err := Run(tc.p, cfg)
		if err != nil {
			t.Fatalf("%s ROB %d LSQ %d %v: %v", tc.name, tc.rob, tc.lsq, tc.mode, err)
		}
		if got != tc.want {
			t.Errorf("%s ROB %d LSQ %d %v inject=%v:\ngot  %+v\nwant %+v", tc.name, tc.rob, tc.lsq, tc.mode, tc.inject, got, tc.want)
		}
	}
}
