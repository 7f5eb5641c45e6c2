package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestMain lets a test run this binary as asmrun itself: with
// ASMRUN_RUN_MAIN=1 in the environment the process is main() over its
// command-line arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ASMRUN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// loopSrc is a small program that halts after about 1200 instructions.
const loopSrc = `
    .data
tab: .word 5, 3, 9
    .text
main:
    li  r1, 0
    li  r2, 200
loop:
    andi r3, r1, 1
    slli r3, r3, 3
    lw  r4, tab(r3)
    add r5, r5, r4
    addi r1, r1, 1
    bne r1, r2, loop
    halt
`

// asmrun writes loop.s into a fresh directory and runs this test binary
// as asmrun there over args (loop.s last), under a deadline. It returns
// the directory, the run's stdout, its stderr and its exit status.
func asmrun(t *testing.T, args ...string) (dir, stdout, stderr string, status int) {
	t.Helper()
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "loop.s"), []byte(loopSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append(args, "loop.s")...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "ASMRUN_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		status = exit.ExitCode()
	case err != nil:
		t.Fatalf("asmrun %v: %v", args, err)
	}
	return dir, out.String(), errOut.String(), status
}

// TestUsageFlagsRejected pins asmrun's flags to the rules every front end
// shares: an unknown -mode, a -depth below 1 and a negative -n are usage
// errors (exit 2) with the shared validator's message, reported before
// the program is assembled (nothing on stdout).
func TestUsageFlagsRejected(t *testing.T) {
	_, modeErr := sim.ParseMode("gshare")
	for _, tc := range []struct {
		flags []string
		want  error
	}{
		{[]string{"-time", "-mode", "gshare"}, modeErr},
		{[]string{"-time", "-depth", "0"}, sim.ValidateDepth(0)},
		{[]string{"-n", "-5"}, sim.ValidateNonNegative("-n", int64(-5))},
	} {
		_, stdout, stderr, status := asmrun(t, tc.flags...)
		if want := "asmrun: " + tc.want.Error() + "\n"; status != 2 || stderr != want || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr %q",
				tc.flags, status, stdout, stderr, want)
		}
	}
}

// TestModeReportName pins -mode to sim.ParseMode: the baseline's report
// name, which every other front end accepts and prints, runs the same
// timing model as its CLI alias.
func TestModeReportName(t *testing.T) {
	_, alias, stderr, status := asmrun(t, "-time", "-mode", "baseline")
	if status != 0 {
		t.Fatalf("-mode baseline: exit %d, stderr %q", status, stderr)
	}
	_, report, stderr, status := asmrun(t, "-time", "-mode", "2lvl-2bc-gskew")
	if status != 0 {
		t.Fatalf("-mode 2lvl-2bc-gskew: exit %d, stderr %q", status, stderr)
	}
	if report != alias {
		t.Errorf("-mode 2lvl-2bc-gskew printed %q, -mode baseline %q", report, alias)
	}
}

// TestTraceFileMatchesRecordAll pins -trace to the one trace codec: the
// file equals RecordAll then WriteTo of the assembled program, for a run
// to halt and for a budget.
func TestTraceFileMatchesRecordAll(t *testing.T) {
	p := asm.MustAssemble("loop", loopSrc)
	for _, n := range []int64{0, 500} {
		dir, _, stderr, status := asmrun(t, "-trace", "t.trc", "-n", strconv.FormatInt(n, 10))
		if status != 0 {
			t.Fatalf("-n %d -trace: exit %d, stderr %q", n, status, stderr)
		}
		got, err := os.ReadFile(filepath.Join(dir, "t.trc"))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := trace.RecordAll(p, n)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := dec.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("-n %d: the -trace file (%d bytes) differs from RecordAll+WriteTo (%d bytes)", n, len(got), want.Len())
		}
	}
}

// TestTraceToPipe pins -trace to a sink that cannot seek: with
// -trace /dev/stdout, whose stdout the test reads through a pipe, asmrun
// exits 0 and writes exactly the trace RecordAll and WriteTo make of the
// assembled program, with its status lines on stderr.
func TestTraceToPipe(t *testing.T) {
	_, stdout, stderr, status := asmrun(t, "-trace", "/dev/stdout")
	if status != 0 {
		t.Fatalf("exit %d, stderr %q", status, stderr)
	}
	dec, err := trace.RecordAll(asm.MustAssemble("loop", loopSrc), 0)
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
	if line := fmt.Sprintf("recorded %d events to /dev/stdout\n", dec.Len()); !strings.HasSuffix(stderr, line) {
		t.Errorf("stderr %q does not end with %q", stderr, line)
	}
}
