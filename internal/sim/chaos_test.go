package sim

// The chaos suite drives the engine's storage tier through injected disk
// faults (see internal/storage.FaultFS) and asserts the robustness
// contract end to end: under every fault schedule a sweep either produces
// results byte-identical to a fault-free run or fails with a clean joined
// error — never a hang, a panic, a leaked goroutine, or a poisoned cache
// entry that a later run would trust.
//
// Every test here matches `go test -run Chaos`, which CI runs with the
// race detector enabled.

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/storage"
	"repro/internal/workload"
)

var (
	chaosBenches = []string{"li", "compress"}
	chaosDepths  = []int{20}
	chaosModes   = []cpu.PredMode{cpu.PredBaseline2Lvl, cpu.PredARVICurrent}
)

const chaosBudget = 2000

// chaosBaseline simulates the chaos grid with no storage at all — the
// ground truth every faulted run must reproduce bit for bit.
func chaosBaseline(t *testing.T) *Matrix {
	t.Helper()
	eng := &Engine{}
	mx, err := eng.RunMatrix(context.Background(), chaosBenches, chaosDepths, chaosModes, chaosBudget)
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

// assertMatrixMatches checks every populated cell of got against the
// fault-free baseline; complete additionally requires every cell to be
// populated.
func assertMatrixMatches(t *testing.T, label string, got, want *Matrix, complete bool) {
	t.Helper()
	for _, b := range chaosBenches {
		for _, d := range chaosDepths {
			for _, m := range chaosModes {
				wantSt, ok := want.Lookup(b, d, m)
				if !ok {
					t.Fatalf("%s: baseline missing %s/%d/%v", label, b, d, m)
				}
				gotSt, ok := got.Lookup(b, d, m)
				if !ok {
					if complete {
						t.Errorf("%s: cell %s/%d/%v missing", label, b, d, m)
					}
					continue
				}
				if gotSt != wantSt {
					t.Errorf("%s: cell %s/%d/%v diverged from fault-free run:\nfaulted  %+v\nbaseline %+v",
						label, b, d, m, gotSt, wantSt)
				}
			}
		}
	}
}

// assertNoTmpOrphans pins the temp-file cleanup contract: no fault
// schedule may leave *.tmp files behind in a storage directory.
func assertNoTmpOrphans(t *testing.T, label string, dirs ...string) {
	t.Helper()
	for _, dir := range dirs {
		orphans, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		if len(orphans) != 0 {
			t.Errorf("%s: %d orphaned temp files in %s: %v", label, len(orphans), dir, orphans)
		}
	}
}

// TestChaosMatrixByteIdenticalUnderFaultSchedules is the headline chaos
// property: a matrix sweep run over a fault-injecting filesystem either
// matches the fault-free baseline exactly (in the completed cells) or
// fails with a clean error — and after the disk heals, a fresh engine
// over the surviving directories reproduces the baseline in full, proving
// no fault schedule can poison the persisted state.
func TestChaosMatrixByteIdenticalUnderFaultSchedules(t *testing.T) {
	baseline := chaosBaseline(t)
	schedules := []struct {
		name   string
		faults []storage.Fault
	}{
		{"first-write-fails", []storage.Fault{{Op: storage.OpWrite, N: 1, Mode: storage.FaultErr}}},
		{"rename-fails", []storage.Fault{{Op: storage.OpRename, N: 1, Mode: storage.FaultErr}, {Op: storage.OpRename, N: 3, Mode: storage.FaultErr}}},
		{"enospc", []storage.Fault{{Op: storage.OpWrite, N: 1, Mode: storage.FaultENOSPC}, {Op: storage.OpWrite, N: 2, Mode: storage.FaultENOSPC}}},
		{"torn-write", []storage.Fault{{Op: storage.OpWrite, N: 1, Mode: storage.FaultTorn}, {Op: storage.OpWrite, N: 3, Mode: storage.FaultTorn}}},
		{"bitflip-read", []storage.Fault{{Op: storage.OpRead, N: 1, Mode: storage.FaultBitFlip}, {Op: storage.OpRead, N: 2, Mode: storage.FaultBitFlip}}},
		{"seeded-1", storage.RandomSchedule(1, 6, 30)},
		{"seeded-2", storage.RandomSchedule(2, 6, 30)},
		{"seeded-3", storage.RandomSchedule(3, 8, 30)},
	}
	for _, sched := range schedules {
		sched := sched
		t.Run(sched.name, func(t *testing.T) {
			cacheDir := filepath.Join(t.TempDir(), "cache")
			traceDir := filepath.Join(t.TempDir(), "traces")
			cfs := storage.NewFaultFS(storage.OS{}, sched.faults...)
			tfs := storage.NewFaultFS(storage.OS{}, sched.faults...)
			c, err := OpenCacheFS(cacheDir, cfs, nil)
			if err != nil {
				t.Fatalf("open under faults must fail cleanly or succeed: %v", err)
			}
			ts, err := OpenTraceStoreFS(traceDir, 0, tfs, nil)
			if err != nil {
				t.Fatalf("open under faults must fail cleanly or succeed: %v", err)
			}
			eng := &Engine{Cache: c, Traces: ts}
			mx, err := eng.RunMatrix(context.Background(), chaosBenches, chaosDepths, chaosModes, chaosBudget)
			// A fault schedule may surface as a joined per-cell error, but
			// the cells that did complete must match the baseline exactly,
			// and no run may strand temp files.
			assertMatrixMatches(t, sched.name+"/faulted", mx, baseline, err == nil)
			assertNoTmpOrphans(t, sched.name+"/faulted", cacheDir, traceDir)

			// Heal the disk: whatever the faulted run persisted (including
			// torn and half-written files) must self-heal, never serve wrong
			// results. A fresh engine over the same directories is the
			// "next process" reading the survivors.
			cfs.Heal()
			tfs.Heal()
			c2, err := OpenCacheFS(cacheDir, storage.OS{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			ts2, err := OpenTraceStoreFS(traceDir, 0, storage.OS{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			warm := &Engine{Cache: c2, Traces: ts2}
			mx2, err := warm.RunMatrix(context.Background(), chaosBenches, chaosDepths, chaosModes, chaosBudget)
			if err != nil {
				t.Fatalf("healed run failed: %v", err)
			}
			assertMatrixMatches(t, sched.name+"/healed", mx2, baseline, true)
			assertNoTmpOrphans(t, sched.name+"/healed", cacheDir, traceDir)
		})
	}
}

// TestChaosTmpCleanupAndRetryAfterRenameFault pins the temp-file leak fix
// at the unit level: a failed rename removes its temp file, the failure
// is reported, and the very next attempt heals the entry.
func TestChaosTmpCleanupAndRetryAfterRenameFault(t *testing.T) {
	t.Run("cache", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "cache")
		ffs := storage.NewFaultFS(storage.OS{}, storage.Fault{Op: storage.OpRename, N: 1, Mode: storage.FaultErr})
		c, err := OpenCacheFS(dir, ffs, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := cpu.Stats{Insts: 42, Cycles: 99}
		if err := c.Put(cacheSpec, st); err == nil {
			t.Fatal("rename fault must surface from Put")
		}
		assertNoTmpOrphans(t, "after failed put", dir)
		// The result was parked in the overlay, so it still serves...
		if got, ok := c.Get(cacheSpec); !ok || got != st {
			t.Fatalf("failed put lost the result: %+v, %v", got, ok)
		}
		// ...and the next Put lands it on disk (the entry self-heals).
		if err := c.Put(cacheSpec, st); err != nil {
			t.Fatalf("retry after healed rename: %v", err)
		}
		c2, err := OpenCacheFS(dir, storage.OS{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := c2.Get(cacheSpec); !ok || got != st {
			t.Fatalf("retried put not persisted: %+v, %v", got, ok)
		}
	})
	t.Run("tracestore", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "traces")
		ffs := storage.NewFaultFS(storage.OS{}, storage.Fault{Op: storage.OpRename, N: 1, Mode: storage.FaultErr})
		s, err := OpenTraceStoreFS(dir, 0, ffs, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := workload.ByName("li").Prog
		dec, err := s.Get(context.Background(), b, 500)
		if err != nil {
			t.Fatalf("persist failure must not fail the Get: %v", err)
		}
		if dec.Len() != 500 || s.PersistErrs() != 1 {
			t.Fatalf("len = %d, persistErrs = %d", dec.Len(), s.PersistErrs())
		}
		assertNoTmpOrphans(t, "after failed persist", dir)
		// A fresh store re-records and the persist retry succeeds.
		s2, err := OpenTraceStoreFS(dir, 0, ffs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Get(context.Background(), b, 500); err != nil {
			t.Fatal(err)
		}
		if s2.PersistErrs() != 0 || s2.Recorded() != 1 {
			t.Errorf("retry: persistErrs = %d, recorded = %d", s2.PersistErrs(), s2.Recorded())
		}
		s3, err := OpenTraceStoreFS(dir, 0, storage.OS{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s3.Get(context.Background(), b, 500); err != nil || s3.DiskHits() != 1 {
			t.Errorf("healed file not served from disk: %v (diskHits %d)", err, s3.DiskHits())
		}
	})
}

// TestChaosCacheDegradedModeTripsProbesAndRecovers walks the cache's
// circuit breaker through its whole life cycle on a fake clock: writes
// fail and are reported (pre-trip), the breaker opens and Puts silently
// go memory-only while Gets keep serving the overlay byte-identically,
// a probe inside probation is suppressed, and after the disk heals one
// granted probe closes the breaker and flushes the overlay back out.
func TestChaosCacheDegradedModeTripsProbesAndRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ffs := storage.NewFaultFS(storage.OS{})
	now := time.Unix(1000, 0)
	brk := storage.NewBreaker(3, time.Minute)
	brk.Clock = func() time.Time { return now }
	c, err := OpenCacheFS(dir, ffs, brk)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Break() // the disk goes read-only under us

	specAt := func(i int) Spec {
		s := cacheSpec
		s.MaxInsts = int64(1000 + i)
		return s
	}
	stats := func(i int) cpu.Stats { return cpu.Stats{Insts: int64(i), Cycles: int64(10 * i)} }

	// Three consecutive write failures: each is reported (the joined-error
	// contract holds before the breaker trips) and trips the breaker.
	for i := 1; i <= 3; i++ {
		if err := c.Put(specAt(i), stats(i)); err == nil {
			t.Fatalf("put %d: broken disk must error before the breaker trips", i)
		}
	}
	if !c.Degraded() || brk.Trips() != 1 {
		t.Fatalf("degraded = %v, trips = %d; want true, 1", c.Degraded(), brk.Trips())
	}
	// Degraded mode: Put succeeds silently, results stay correct.
	if err := c.Put(specAt(4), stats(4)); err != nil {
		t.Fatalf("degraded put must not error: %v", err)
	}
	if c.MemEntries() != 4 {
		t.Fatalf("overlay entries = %d, want 4", c.MemEntries())
	}
	for i := 1; i <= 4; i++ {
		if got, ok := c.Get(specAt(i)); !ok || got != stats(i) {
			t.Fatalf("degraded get %d: %+v, %v", i, got, ok)
		}
	}
	writesBefore := ffs.Count(storage.OpWrite)
	if err := c.Put(specAt(5), stats(5)); err != nil { // probe not yet due
		t.Fatal(err)
	}
	if ffs.Count(storage.OpWrite) != writesBefore {
		t.Error("put inside the probation window touched the disk")
	}

	// Disk recovers; the first probe after probation flushes everything.
	ffs.Heal()
	now = now.Add(2 * time.Minute)
	if err := c.Put(specAt(6), stats(6)); err != nil {
		t.Fatal(err)
	}
	if c.Degraded() || c.MemEntries() != 0 {
		t.Fatalf("after recovery: degraded = %v, overlay = %d", c.Degraded(), c.MemEntries())
	}
	if n, err := c.Len(); err != nil || n != 6 {
		t.Fatalf("entries on disk after flush = %d (err %v), want 6", n, err)
	}
	// The flushed entries are intact for a fresh process.
	c2, err := OpenCacheFS(dir, storage.OS{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if got, ok := c2.Get(specAt(i)); !ok || got != stats(i) {
			t.Errorf("flushed entry %d: %+v, %v", i, got, ok)
		}
	}
}

// TestChaosCacheFlushesParkedEntryWithoutTrip pins the flush for a
// failure the breaker never trips on: one failed write parks its entry in
// the overlay, and the next successful write puts it on disk, so a fresh
// process finds it and the cache does not stay partly memory-only while
// reporting healthy.
func TestChaosCacheFlushesParkedEntryWithoutTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ffs := storage.NewFaultFS(storage.OS{}, storage.Fault{Op: storage.OpWrite, N: 1, Mode: storage.FaultErr})
	c, err := OpenCacheFS(dir, ffs, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := cacheSpec, cacheSpec
	b.MaxInsts++
	stA, stB := cpu.Stats{Insts: 1, Cycles: 10}, cpu.Stats{Insts: 2, Cycles: 20}
	if err := c.Put(a, stA); err == nil {
		t.Fatal("put a: the failed write must be reported")
	}
	if err := c.Put(b, stB); err != nil {
		t.Fatalf("put b: %v", err)
	}
	if c.Degraded() || c.MemEntries() != 0 {
		t.Fatalf("degraded = %v, overlay = %d; want false, 0", c.Degraded(), c.MemEntries())
	}
	fresh, err := OpenCacheFS(dir, storage.OS{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec Spec
		want cpu.Stats
	}{{a, stA}, {b, stB}} {
		if got, ok := fresh.Get(tc.spec); !ok || got != tc.want {
			t.Errorf("fresh cache: %+v, %v; want %+v", got, ok, tc.want)
		}
	}
}

// TestChaosTraceStoreDegradedModeRecovers drives the trace store's
// breaker open on a write-broken disk and verifies it stops touching the
// disk entirely until a post-probation probe succeeds.
func TestChaosTraceStoreDegradedModeRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	ffs := storage.NewFaultFS(storage.OS{})
	now := time.Unix(1000, 0)
	brk := storage.NewBreaker(3, time.Minute)
	brk.Clock = func() time.Time { return now }
	s, err := OpenTraceStoreFS(dir, 0, ffs, brk)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Break()
	b := workload.ByName("li").Prog
	for i := 1; i <= 3; i++ {
		if _, err := s.Get(context.Background(), b, int64(500+i)); err != nil {
			t.Fatalf("get %d: persist failures must stay non-fatal: %v", i, err)
		}
	}
	if !s.Degraded() || s.PersistErrs() != 3 {
		t.Fatalf("degraded = %v, persistErrs = %d", s.Degraded(), s.PersistErrs())
	}
	ops := ffs.Count(storage.OpRead) + ffs.Count(storage.OpWrite)
	if _, err := s.Get(context.Background(), b, 600); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Count(storage.OpRead) + ffs.Count(storage.OpWrite); got != ops {
		t.Error("degraded store touched the disk inside the probation window")
	}

	ffs.Heal()
	now = now.Add(2 * time.Minute)
	if _, err := s.Get(context.Background(), b, 700); err != nil {
		t.Fatal(err)
	}
	if s.Degraded() {
		t.Fatal("breaker still open after a successful probe")
	}
	// The probe's trace really landed: a fresh store disk-hits it.
	s2, err := OpenTraceStoreFS(dir, 0, storage.OS{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get(context.Background(), b, 700); err != nil || s2.DiskHits() != 1 {
		t.Errorf("probe trace unreadable: %v (diskHits %d)", err, s2.DiskHits())
	}
	assertNoTmpOrphans(t, "degraded tracestore", dir)
}

// TestChaosDegradedEngineEndToEnd is the acceptance scenario: the cache
// directory becomes unwritable mid-run, the sweep still completes with
// correct results, subsequent runs serve from the memory overlay, and a
// healed disk gets the overlay flushed back.
func TestChaosDegradedEngineEndToEnd(t *testing.T) {
	baseline := chaosBaseline(t)
	dir := filepath.Join(t.TempDir(), "cache")
	ffs := storage.NewFaultFS(storage.OS{})
	now := time.Unix(1000, 0)
	brk := storage.NewBreaker(2, time.Minute)
	brk.Clock = func() time.Time { return now }
	c, err := OpenCacheFS(dir, ffs, brk)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Break() // disk gone before the first write

	eng := &Engine{Cache: c}
	mx, err := eng.RunMatrix(context.Background(), chaosBenches, chaosDepths, chaosModes, chaosBudget)
	// The first two Puts fail loudly (joined error); the rest go memory-
	// only. Either way every cell must be present and correct.
	if err == nil {
		t.Fatal("pre-trip put failures must surface in the joined error")
	}
	assertMatrixMatches(t, "degraded run", mx, baseline, true)
	if !c.Degraded() {
		t.Fatal("breaker not open after a run on a broken disk")
	}

	// A second engine over the same (still broken) cache: the overlay
	// serves every cell without re-simulating or touching the disk.
	warm := &Engine{Cache: c}
	mx2, err := warm.RunMatrix(context.Background(), chaosBenches, chaosDepths, chaosModes, chaosBudget)
	if err != nil {
		t.Fatalf("degraded warm run must succeed silently: %v", err)
	}
	assertMatrixMatches(t, "degraded warm run", mx2, baseline, true)
	if warm.Simulated() != 0 || warm.CacheHits() == 0 {
		t.Errorf("warm run: simulated %d, hits %d", warm.Simulated(), warm.CacheHits())
	}

	// Recovery: heal the disk, pass probation, and run once more — the
	// probe write flushes the whole overlay back out.
	ffs.Heal()
	now = now.Add(2 * time.Minute)
	extra := cacheSpec
	extra.MaxInsts = 777
	if err := c.Put(extra, cpu.Stats{Insts: 777}); err != nil {
		t.Fatal(err)
	}
	if c.Degraded() || c.MemEntries() != 0 {
		t.Fatalf("after recovery: degraded = %v, overlay = %d", c.Degraded(), c.MemEntries())
	}
	c2, err := OpenCacheFS(dir, storage.OS{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := &Engine{Cache: c2}
	mx3, err := cold.RunMatrix(context.Background(), chaosBenches, chaosDepths, chaosModes, chaosBudget)
	if err != nil {
		t.Fatal(err)
	}
	assertMatrixMatches(t, "post-recovery run", mx3, baseline, true)
	if cold.Simulated() != 0 {
		t.Errorf("flushed entries missed: simulated %d", cold.Simulated())
	}
}

// TestChaosCancellationGoroutineHygiene cancels a sweep mid-flight and
// asserts the three cancellation invariants: the error reports the
// cancellation cleanly, the goroutine count returns to its baseline
// (no leaked workers), and a subsequent warm run over the same storage
// is byte-identical to an uncanceled cold run.
func TestChaosCancellationGoroutineHygiene(t *testing.T) {
	baseline := chaosBaseline(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the sweep: every cell must fail cleanly
	eng := &Engine{Cache: c}
	mx, err := eng.RunMatrix(ctx, chaosBenches, chaosDepths, chaosModes, chaosBudget)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep error = %v, want context.Canceled", err)
	}
	if mx.Len() != 0 {
		t.Errorf("canceled-before-start sweep produced %d cells", mx.Len())
	}

	// Cancel mid-run: a large budget crosses several checkpoint chunks.
	ctx2, cancel2 := context.WithCancel(context.Background())
	timer := time.AfterFunc(5*time.Millisecond, cancel2)
	defer timer.Stop()
	defer cancel2()
	_, err = eng.RunMatrix(ctx2, chaosBenches, chaosDepths, chaosModes, 50_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel error = %v, want context.Canceled", err)
	}

	// Bounded wait for the pool to wind down, then compare the count.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked by canceled runs: %d -> %d", before, after)
	}

	// The canceled runs must not have poisoned the cache: a warm run over
	// the same directory reproduces the uncanceled baseline exactly.
	warm := &Engine{Cache: c}
	mx3, err := warm.RunMatrix(context.Background(), chaosBenches, chaosDepths, chaosModes, chaosBudget)
	if err != nil {
		t.Fatal(err)
	}
	assertMatrixMatches(t, "warm after cancel", mx3, baseline, true)
	assertNoTmpOrphans(t, "after canceled runs", cacheDir)
}

// TestChaosOpenFailuresAreClean pins the open-time story: when even
// MkdirAll faults, opening reports a clean error instead of limping into
// undefined state.
func TestChaosOpenFailuresAreClean(t *testing.T) {
	ffs := storage.NewFaultFS(storage.OS{}, storage.Fault{Op: storage.OpMkdir, N: 1, Mode: storage.FaultErr})
	if _, err := OpenCacheFS(filepath.Join(t.TempDir(), "c"), ffs, nil); !errors.Is(err, storage.ErrInjected) {
		t.Errorf("cache open error = %v, want ErrInjected", err)
	}
	ffs2 := storage.NewFaultFS(storage.OS{}, storage.Fault{Op: storage.OpMkdir, N: 1, Mode: storage.FaultErr})
	if _, err := OpenTraceStoreFS(filepath.Join(t.TempDir(), "t"), 0, ffs2, nil); !errors.Is(err, storage.ErrInjected) {
		t.Errorf("trace store open error = %v, want ErrInjected", err)
	}
}
