package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestMain lets a test run this binary as arvisim itself: with
// ARVISIM_RUN_MAIN=1 in the environment the process is main() over its
// command-line arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ARVISIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// arvisim runs this test binary as arvisim over args, under a deadline,
// and returns its stdout, its stderr and its exit status.
func arvisim(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ARVISIM_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		status = exit.ExitCode()
	case err != nil:
		t.Fatalf("arvisim %v: %v", args, err)
	}
	return out.String(), errOut.String(), status
}

// TestBudgetFlagRejected pins -n to the instruction-budget rule every
// front end shares: a budget below 1 is a usage error (exit 2) with
// sim.ValidateBudget's message, for a timing run and for -record alike,
// instead of silently meaning the default budget (0) or running the
// program to halt (< 0).
func TestBudgetFlagRejected(t *testing.T) {
	trc := filepath.Join(t.TempDir(), "t.trc")
	for _, tc := range []struct {
		args []string
		n    int64
	}{
		{[]string{"-bench", "li", "-n", "0"}, 0},
		{[]string{"-bench", "li", "-n", "-1"}, -1},
		{[]string{"-bench", "li", "-record", trc, "-n", "0"}, 0},
	} {
		_, stderr, status := arvisim(t, tc.args...)
		if want := "arvisim: " + sim.ValidateBudget(tc.n).Error() + "\n"; status != 2 || stderr != want {
			t.Errorf("%v: exit %d, stderr %q; want exit 2, stderr %q", tc.args, status, stderr, want)
		}
	}
	if _, err := os.Stat(trc); !os.IsNotExist(err) {
		t.Errorf("a rejected -record left %s behind (stat: %v)", trc, err)
	}
}

// TestReplayFileMatchesRun pins arvisim's two replay paths to each other:
// a plain -json run (which replays the trace the engine records in
// memory) and a -replay of a trace file written by -record must print
// the same bytes.
func TestReplayFileMatchesRun(t *testing.T) {
	for _, spec := range [][]string{
		{"-bench", "li", "-n", "20000"},
		{"-bench", "gcc", "-depth", "60", "-mode", "arvi-perfect", "-cut-at-loads", "-conf-threshold", "12"},
	} {
		trc := filepath.Join(t.TempDir(), "t.trc")
		run, stderr, status := arvisim(t, append(spec, "-json")...)
		if status != 0 || run == "" {
			t.Fatalf("%v -json: exit %d, stderr %q", spec, status, stderr)
		}
		if _, stderr, status := arvisim(t, append(spec, "-record", trc)...); status != 0 {
			t.Fatalf("%v -record: exit %d, stderr %q", spec, status, stderr)
		}
		replay, stderr, status := arvisim(t, append(spec, "-replay", trc, "-json")...)
		if status != 0 {
			t.Fatalf("%v -replay: exit %d, stderr %q", spec, status, stderr)
		}
		if replay != run {
			t.Errorf("%v: -replay -json differs from -json:\nreplay %s\nrun    %s", spec, replay, run)
		}
	}
}

// TestRecordToPipe pins -record to a sink that cannot seek: with
// -record /dev/stdout, whose stdout the test reads through a pipe,
// arvisim exits 0 and writes exactly the trace RecordAll and WriteTo
// make for the same benchmark and budget (so its header carries the
// exact record count), and its status line goes to stderr.
func TestRecordToPipe(t *testing.T) {
	stdout, stderr, status := arvisim(t, "-bench", "li", "-n", "1000", "-record", "/dev/stdout")
	if status != 0 {
		t.Fatalf("exit %d, stderr %q", status, stderr)
	}
	b, _ := workload.Lookup("li")
	dec, err := trace.RecordAll(b.Prog, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := dec.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if stdout != want.String() {
		t.Errorf("stdout is %d bytes unlike the %d-byte trace RecordAll+WriteTo make", len(stdout), want.Len())
	}
	if line := "recorded 1000 events of li to /dev/stdout\n"; stderr != line {
		t.Errorf("stderr %q, want %q", stderr, line)
	}
}

// TestReplayChecksWholeFile pins that -replay validates the whole trace
// file before it runs, not only the records its budget reaches: a byte
// of trailing data after records the run would never read is an error.
func TestReplayChecksWholeFile(t *testing.T) {
	trc := filepath.Join(t.TempDir(), "t.trc")
	if _, stderr, status := arvisim(t, "-bench", "li", "-n", "2000", "-record", trc); status != 0 {
		t.Fatalf("-record: exit %d, stderr %q", status, stderr)
	}
	f, err := os.OpenFile(trc, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, stderr, status := arvisim(t, "-bench", "li", "-n", "1000", "-replay", trc, "-json")
	if want := "arvisim: trace: trailing data after 2000 declared records\n"; status != 1 || stderr != want {
		t.Errorf("exit %d, stderr %q; want exit 1, stderr %q", status, stderr, want)
	}
}
