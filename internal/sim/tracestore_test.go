package sim

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/workload"
)

const storeLoopSrc = `
    .data
tab: .word 4, 7, 1, 9
    .text
main:
    li  r1, 0
    li  r2, 600
loop:
    andi r3, r1, 3
    slli r3, r3, 3
    lw  r4, tab(r3)
    add r5, r5, r4
    addi r1, r1, 1
    bne r1, r2, loop
    halt
`

const storeLoop2Src = `
    .text
main:
    li  r1, 0
    li  r2, 600
loop:
    addi r1, r1, 1
    xori r6, r1, 5
    add r5, r5, r6
    bne r1, r2, loop
    halt
`

// TestTraceStoreMatchesLiveSimulation is the determinism contract of the
// whole trace tier: for every workload, simulating through a recorded
// trace must produce statistics identical to a live functional-VM run.
func TestTraceStoreMatchesLiveSimulation(t *testing.T) {
	store := NewTraceStore(0)
	eng := &Engine{Traces: store}
	const budget = 4000
	for _, name := range workload.Names {
		spec := Spec{Bench: name, Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: budget}
		traced, err := eng.simulate(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: traced: %v", name, err)
		}
		if want := live(t, spec); want != traced {
			t.Errorf("%s: replayed stats diverged from live:\nlive   %+v\nreplay %+v",
				name, want, traced)
		}
	}
	if got := store.Recorded(); got != int64(len(workload.Names)) {
		t.Errorf("recorded %d traces, want %d", got, len(workload.Names))
	}
}

// TestRunMatrixExecutesEachBenchmarkOnce is the acceptance criterion for
// the trace tier: a sweep with several predictor modes per benchmark runs
// the functional VM exactly once per benchmark, and every replayed cell
// matches a live simulation bit for bit — whether the engine is given a
// store or, as its zero value, records into its own.
func TestRunMatrixExecutesEachBenchmarkOnce(t *testing.T) {
	benches := []string{"gcc", "li"}
	depths := []int{20, 40}
	modes := []cpu.PredMode{cpu.PredBaseline2Lvl, cpu.PredARVICurrent, cpu.PredARVIPerfect}
	const budget = 3000
	for _, tc := range []struct {
		name string
		eng  *Engine
	}{
		{"given store", &Engine{Traces: NewTraceStore(0)}},
		{"zero value", &Engine{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mx, err := RunMatrix(context.Background(), tc.eng, benches, depths, modes, budget)
			if err != nil {
				t.Fatal(err)
			}
			if mx.Len() != len(benches)*len(depths)*len(modes) {
				t.Fatalf("matrix cells = %d", mx.Len())
			}
			if got := tc.eng.traces().Recorded(); got != int64(len(benches)) {
				t.Errorf("functional VM executed %d times for %d benchmarks", got, len(benches))
			}
			for _, b := range benches {
				for _, d := range depths {
					for _, m := range modes {
						got, ok := mx.Lookup(b, d, m)
						if !ok {
							t.Fatalf("missing cell %s/%d/%v", b, d, m)
						}
						if got != live(t, Spec{Bench: b, Depth: d, Mode: m, MaxInsts: budget}) {
							t.Errorf("%s/%d/%v: replay != live", b, d, m)
						}
					}
				}
			}
		})
	}
}

func TestTraceStoreSingleflight(t *testing.T) {
	store := NewTraceStore(0)
	p := asm.MustAssemble("sf", storeLoopSrc)
	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := store.Get(context.Background(), p, 2000); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if store.Recorded() != 1 {
		t.Errorf("recorded %d times under concurrent demand, want 1", store.Recorded())
	}
	if store.Entries() != 1 {
		t.Errorf("entries = %d", store.Entries())
	}
}

// TestTraceStoreWaiterHonoursCancel pins the wait of a Get coalesced onto
// an in-flight recording: it gives up on its own context without counting
// a hit or recording, and once the recording is published a Get with a
// live context returns it as a memory hit.
func TestTraceStoreWaiterHonoursCancel(t *testing.T) {
	store := NewTraceStore(0)
	p := workload.ByName("li").Prog
	const budget = 500
	// An in-flight recording, as the first Get for the key registers it.
	e := &traceEntry{ready: make(chan struct{})}
	store.entries[traceKey{fp: p.FingerprintHex(), budget: budget}] = e

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := store.Get(ctx, p, budget); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v, want context.Canceled", err)
	}
	if store.Recorded() != 0 || store.MemHits() != 0 {
		t.Fatalf("canceled waiter: recorded = %d, memHits = %d; want 0, 0", store.Recorded(), store.MemHits())
	}

	dec, err := trace.RecordAll(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	e.dec = dec
	close(e.ready)
	got, err := store.Get(context.Background(), p, budget)
	if err != nil || got != dec {
		t.Fatalf("after publishing: got %p, err %v; want the published trace %p", got, err, dec)
	}
	if store.Recorded() != 0 || store.MemHits() != 1 {
		t.Errorf("after publishing: recorded = %d, memHits = %d; want 0, 1", store.Recorded(), store.MemHits())
	}
}

func TestTraceStoreKeyedByBudgetAndProgram(t *testing.T) {
	store := NewTraceStore(0)
	a := asm.MustAssemble("a", storeLoopSrc)
	b := asm.MustAssemble("b", storeLoop2Src)
	da, err := store.Get(context.Background(), a, 1000)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Get(context.Background(), b, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if da == db {
		t.Error("different programs shared one trace")
	}
	d2, err := store.Get(context.Background(), a, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if d2 == da {
		t.Error("different budgets shared one trace")
	}
	if d2.Len() != 2000 || da.Len() != 1000 {
		t.Errorf("lens = %d, %d", d2.Len(), da.Len())
	}
	if store.Recorded() != 3 {
		t.Errorf("recorded = %d, want 3", store.Recorded())
	}
	// Same program re-assembled (new pointer, same content) is a hit.
	again, err := store.Get(context.Background(), asm.MustAssemble("a", storeLoopSrc), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if again != da {
		t.Error("content-identical program missed the store")
	}
	if store.MemHits() == 0 {
		t.Error("no memory hits counted")
	}
}

func TestTraceStoreLRUEviction(t *testing.T) {
	// Budget fits one 1000-event trace but not two.
	store := NewTraceStore(40_000)
	a := asm.MustAssemble("a", storeLoopSrc)
	b := asm.MustAssemble("b", storeLoop2Src)
	da, err := store.Get(context.Background(), a, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(context.Background(), b, 1000); err != nil {
		t.Fatal(err)
	}
	if store.Entries() != 1 {
		t.Errorf("entries after eviction = %d, want 1", store.Entries())
	}
	if store.MemUsed() > 40_000 {
		t.Errorf("resident %d bytes over budget", store.MemUsed())
	}
	// The evicted trace is still fully usable by its holder.
	if da.Len() != 1000 {
		t.Errorf("evicted trace lost events: %d", da.Len())
	}
	// Re-requesting the evicted program re-records.
	if _, err := store.Get(context.Background(), a, 1000); err != nil {
		t.Fatal(err)
	}
	if store.Recorded() != 3 {
		t.Errorf("recorded = %d, want 3 (a, b, a-again)", store.Recorded())
	}
}

func TestEngineWithCacheAndTraces(t *testing.T) {
	// The two tiers compose: first run records once and simulates every
	// cell; second run (fresh engine, same cache) touches neither the VM
	// nor the timing model.
	cacheDir := t.TempDir()
	c, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	store := NewTraceStore(0)
	modes := []cpu.PredMode{cpu.PredBaseline2Lvl, cpu.PredARVICurrent, cpu.PredARVIPerfect}

	e1 := &Engine{Cache: c, Traces: store}
	if _, err := RunMatrix(context.Background(), e1, []string{"compress"}, []int{20}, modes, 2500); err != nil {
		t.Fatal(err)
	}
	if store.Recorded() != 1 || e1.Simulated() != int64(len(modes)) {
		t.Errorf("cold run: recorded = %d, simulated = %d", store.Recorded(), e1.Simulated())
	}

	e2 := &Engine{Cache: c, Traces: NewTraceStore(0)}
	if _, err := RunMatrix(context.Background(), e2, []string{"compress"}, []int{20}, modes, 2500); err != nil {
		t.Fatal(err)
	}
	if e2.Traces.Recorded() != 0 || e2.Simulated() != 0 || e2.CacheHits() != int64(len(modes)) {
		t.Errorf("warm run: recorded = %d, simulated = %d, cacheHits = %d",
			e2.Traces.Recorded(), e2.Simulated(), e2.CacheHits())
	}
}

func TestTraceStoreUnknownBenchStillErrors(t *testing.T) {
	eng := &Engine{Traces: NewTraceStore(0)}
	if _, err := eng.simulate(context.Background(), Spec{Bench: "nosuch", Depth: 20}); err == nil {
		t.Error("unknown benchmark must error through the trace path too")
	}
}
