// The paper's Figure 7 case study: m88ksim's lookupdisasm walks a fixed
// hash-table chain, so the while-loop exit is fully determined by the key
// value. This example runs the m88ksim workload under all four predictor
// configurations at each pipeline depth and prints the per-depth story.
//
// Run with: go run ./examples/m88ksim_case
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cpu"
	"repro/internal/sim"
)

func main() {
	fmt.Println("m88ksim / lookupdisasm (paper Figure 7)")
	fmt.Println()
	fmt.Println("  INSTAB *lookupdisasm(UINT key) {")
	fmt.Println("      INSTAB *ptr = hashtab[key % HASHVAL];")
	fmt.Println("      while (ptr != NULL && ptr->opcode != key)")
	fmt.Println("          ptr = ptr->next;")
	fmt.Println()

	// One (baseline, ARVI current) pair per depth; the engine records
	// m88ksim's trace once and replays it for all six cells.
	var specs []sim.Spec
	for _, depth := range sim.Depths {
		for _, mode := range []cpu.PredMode{cpu.PredBaseline2Lvl, cpu.PredARVICurrent} {
			specs = append(specs, sim.Spec{Bench: "m88ksim", Depth: depth, Mode: mode, MaxInsts: 400_000})
		}
	}
	res, err := (&sim.Engine{}).Run(context.Background(), specs)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < len(res); i += 2 {
		base, cur := res[i].Stats, res[i+1].Stats
		fmt.Printf("%d-stage pipeline:\n", res[i].Spec.Depth)
		fmt.Printf("  two-level 2Bc-gskew  accuracy %.4f  IPC %.3f\n",
			base.PredAccuracy(), base.IPC())
		fmt.Printf("  ARVI current value   accuracy %.4f  IPC %.3f  (%+.1f%% IPC)\n",
			cur.PredAccuracy(), cur.IPC(), 100*(cur.IPC()/base.IPC()-1))
		fmt.Printf("  load-branch fraction %.2f, ARVI used on %d of %d branches\n\n",
			cur.LoadBranchFraction(), cur.ARVIUsed, cur.CondBranches)
	}
	fmt.Println("The hash table never changes, so (key value, chain depth) fully")
	fmt.Println("determines each while-iteration's outcome — ARVI's BVIT learns the")
	fmt.Println("mapping, while outcome history alone cannot separate the instances.")
}
