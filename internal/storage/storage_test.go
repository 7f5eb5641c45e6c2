package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fs OS
	if err := fs.MkdirAll(filepath.Join(dir, "a/b"), 0o755); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "a/b/x")
	if err := fs.WriteFile(p, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	q := filepath.Join(dir, "a/b/y")
	if err := fs.Rename(p, q); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile(q)
	if err != nil || string(b) != "hello" {
		t.Fatalf("read back %q, %v", b, err)
	}
	if err := fs.Remove(q); err != nil {
		t.Fatal(err)
	}
	_, err = fs.ReadFile(q)
	if !IsNotExist(err) {
		t.Fatalf("IsNotExist(%v) = false after Remove", err)
	}
}

// TestTierConcurrentPutOneKey pins that concurrent writers of one key
// never trip over each other's temp file: every Put succeeds, the file
// holds the entry and no *.tmp is left behind.
func TestTierConcurrentPutOneKey(t *testing.T) {
	dir := t.TempDir()
	tier, err := OpenTier(dir, ".json", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	want := []byte(`{"entry":1}`)
	const writers = 8
	for round := 0; round < 50; round++ {
		var start, done sync.WaitGroup
		start.Add(1)
		errs := make([]error, writers)
		for i := range errs {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				errs[i] = tier.Put(key, want)
			}()
		}
		start.Done()
		done.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d, writer %d: %v", round, i, err)
			}
		}
	}
	if b, err := os.ReadFile(filepath.Join(dir, key+".json")); err != nil || !bytes.Equal(b, want) {
		t.Fatalf("entry holds %q (%v), want %q", b, err, want)
	}
	if orphans, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(orphans) != 0 {
		t.Fatalf("concurrent writes left temp files: %v", orphans)
	}
}

func TestFaultFSFailNth(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS{}, Fault{Op: OpWrite, N: 2, Mode: FaultErr})
	p := filepath.Join(dir, "f")
	if err := ffs.WriteFile(p, []byte("one"), 0o644); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	err := ffs.WriteFile(p, []byte("two"), 0o644)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: %v, want ErrInjected", err)
	}
	if b, _ := os.ReadFile(p); string(b) != "one" {
		t.Fatalf("FaultErr write must have no side effect; file holds %q", b)
	}
	if err := ffs.WriteFile(p, []byte("three"), 0o644); err != nil {
		t.Fatalf("write 3: %v", err)
	}
	if got := ffs.Injected(); got != 1 {
		t.Fatalf("injected %d, want 1", got)
	}
}

func TestFaultFSENOSPCAndTorn(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS{},
		Fault{Op: OpWrite, N: 1, Mode: FaultENOSPC},
		Fault{Op: OpWrite, N: 2, Mode: FaultTorn},
	)
	p := filepath.Join(dir, "f")
	err := ffs.WriteFile(p, []byte("0123456789"), 0o644)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ENOSPC write: %v", err)
	}
	if b, _ := os.ReadFile(p); string(b) != "01234" {
		t.Fatalf("ENOSPC should leave the half-written prefix, got %q", b)
	}
	if err := ffs.WriteFile(p, []byte("abcdefghij"), 0o644); err != nil {
		t.Fatalf("torn write must report success, got %v", err)
	}
	if b, _ := os.ReadFile(p); string(b) != "abcde" {
		t.Fatalf("torn write should persist half, got %q", b)
	}
}

func TestFaultFSBitFlipRead(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := os.WriteFile(p, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS{}, Fault{Op: OpRead, N: 2, Mode: FaultBitFlip})
	clean, err := ffs.ReadFile(p)
	if err != nil || string(clean) != "0123456789" {
		t.Fatalf("read 1: %q, %v", clean, err)
	}
	flipped, err := ffs.ReadFile(p)
	if err != nil {
		t.Fatalf("bit-flip read must succeed, got %v", err)
	}
	if bytes.Equal(flipped, clean) {
		t.Fatal("bit-flip read returned clean data")
	}
	diff := 0
	for i := range clean {
		if clean[i] != flipped[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d corrupted bytes, want exactly 1", diff)
	}
	if b, _ := os.ReadFile(p); string(b) != "0123456789" {
		t.Fatal("bit flip must corrupt the returned copy, not the file")
	}
}

func TestFaultFSBreakHeal(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS{})
	p := filepath.Join(dir, "f")
	ffs.Break()
	if err := ffs.WriteFile(p, []byte("x"), 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("broken write: %v", err)
	}
	if err := ffs.Rename(p, p+"2"); !errors.Is(err, ErrInjected) {
		t.Fatalf("broken rename: %v", err)
	}
	// Break() without args leaves reads working (unwritable disk shape).
	if _, err := ffs.ReadFile(p); !IsNotExist(err) {
		t.Fatalf("read while write-broken: %v, want plain not-exist", err)
	}
	ffs.Heal()
	if err := ffs.WriteFile(p, []byte("x"), 0o644); err != nil {
		t.Fatalf("healed write: %v", err)
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	a := RandomSchedule(42, 8, 100)
	b := RandomSchedule(42, 8, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	c := RandomSchedule(43, 8, 100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
	for _, f := range a {
		if f.N < 1 || f.N > 100 {
			t.Fatalf("fault N %d outside [1,100]", f.N)
		}
		if f.Op >= opCount {
			t.Fatalf("fault op %d out of range", f.Op)
		}
	}
}

func TestBreakerTripProbeRecover(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, 10*time.Second)
	b.Clock = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker denied op %d", i)
		}
		b.Failure()
	}
	if b.Open() {
		t.Fatal("breaker opened below threshold")
	}
	// A success resets the consecutive-failure run.
	b.Success()
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	if !b.Open() {
		t.Fatal("breaker did not open at threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed an op inside probation")
	}
	// Probation elapses: exactly one probe is granted per window.
	now = now.Add(10 * time.Second)
	if !b.Allow() {
		t.Fatal("probe denied after probation")
	}
	if b.Allow() {
		t.Fatal("second probe granted in the same window")
	}
	// Failed probe: stays open, window restarts.
	b.Failure()
	if !b.Open() {
		t.Fatal("breaker closed on failed probe")
	}
	now = now.Add(10 * time.Second)
	if !b.Allow() {
		t.Fatal("probe denied after failed-probe probation")
	}
	b.Success()
	if b.Open() {
		t.Fatal("breaker still open after successful probe")
	}
	if !b.Allow() {
		t.Fatal("closed breaker denied")
	}
	if got := b.Trips(); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}
}
