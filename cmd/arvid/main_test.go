package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestMain lets a test run this binary as arvid itself: with
// ARVID_RUN_MAIN=1 in the environment the process is main() over its
// command-line arguments.
func TestMain(m *testing.M) {
	if os.Getenv("ARVID_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUsageFlagsRejected pins flag values arvid must refuse before any
// store is opened or any port bound: a usage error (exit 2) carrying the
// shared validator's own message. -workers-list follows the base-URL
// rule POST /v1/workers applies (an http(s) scheme and a host, no query
// or fragment); -trace-mem must be a budget the trace store can honour,
// and a count or duration flag must not be negative, rather than be
// silently read as its default. The -dist-* retry knobs need -role
// coordinator, the only role that reads them. Each run has a
// deadline, so a value that is wrongly accepted fails the case instead of
// hanging the test on a serving daemon.
func TestUsageFlagsRejected(t *testing.T) {
	tooBig := strconv.FormatInt(math.MaxInt64>>20+1, 10)
	cases := []struct {
		flags []string
		want  error
	}{
		{[]string{"-role", "coordinator", "-workers-list", "localhost:8751"}, sim.ValidateBaseURL("localhost:8751")},
		{[]string{"-role", "coordinator", "-workers-list", "http://127.0.0.1:8751,ftp://h:1"}, sim.ValidateBaseURL("ftp://h:1")},
		{[]string{"-role", "coordinator", "-workers-list", "http://h:1/?x=1"}, sim.ValidateBaseURL("http://h:1/?x=1")},
		{[]string{"-trace-mem", "-1"}, sim.ValidateTraceMem(-1)},
		{[]string{"-trace-mem", tooBig}, sim.ValidateTraceMem(math.MaxInt64>>20 + 1)},
		{[]string{"-request-timeout", "-1s"}, sim.ValidateNonNegative("-request-timeout", -time.Second)},
		{[]string{"-max-inflight", "-3"}, sim.ValidateNonNegative("-max-inflight", -3)},
		{[]string{"-workers", "-2"}, sim.ValidateNonNegative("-workers", -2)},
		{[]string{"-role", "coordinator", "-dist-retries", "-1"}, sim.ValidateNonNegative("-dist-retries", -1)},
		{[]string{"-role", "coordinator", "-dist-backoff", "-1s"}, sim.ValidateNonNegative("-dist-backoff", -time.Second)},
		{[]string{"-role", "coordinator", "-dist-timeout", "-1s"}, sim.ValidateNonNegative("-dist-timeout", -time.Second)},
		{[]string{"-dist-retries", "3"}, errors.New("-dist-retries only applies to -role coordinator")},
		{[]string{"-role", "worker", "-dist-backoff", "1s"}, errors.New("-dist-backoff only applies to -role coordinator")},
		{[]string{"-dist-timeout", "5s"}, errors.New("-dist-timeout only applies to -role coordinator")},
	}
	for _, tc := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-cache", "", "-addr", "127.0.0.1:0"}, tc.flags...)...)
		cmd.Env = append(os.Environ(), "ARVID_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2 (stderr %q)", tc.flags, err, stderr.String())
			continue
		}
		if want := "arvid: " + tc.want.Error() + "\n"; stderr.String() != want {
			t.Errorf("%v: stderr %q, want %q", tc.flags, stderr.String(), want)
		}
	}
}
