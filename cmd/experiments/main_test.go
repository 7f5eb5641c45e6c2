package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestMain lets a test run this binary as experiments itself: with
// EXPERIMENTS_RUN_MAIN=1 in the environment the process is main() over
// its command-line arguments.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUsageFlagsRejected pins flag values experiments must refuse before
// it simulates or writes anything: a usage error (exit 2) whose first
// stderr line is the shared validator's message. A negative -workers
// would silently mean GOMAXPROCS; -trace-dir is not a flag, because
// traces live in memory only.
func TestUsageFlagsRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.txt")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "-2", "-only", "smt"}, "experiments: " + sim.ValidateNonNegative("-workers", -2).Error()},
		{[]string{"-trace-dir", "t", "-only", "table2"}, "flag provided but not defined: -trace-dir"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-cache", "", "-out", out}, tc.args...)...)
		cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2 (stderr %q)", tc.args, err, stderr.String())
			continue
		}
		if first, _, _ := strings.Cut(stderr.String(), "\n"); first != tc.want {
			t.Errorf("%v: stderr starts %q, want %q", tc.args, first, tc.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: a rejected run wrote %s (stat: %v)", tc.args, out, err)
		}
	}
}
