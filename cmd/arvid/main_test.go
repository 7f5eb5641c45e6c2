package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"

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

// TestBaseURLFlagsRejected pins -workers-list and -cache-peers to the
// base-URL rule POST /v1/workers applies: a URL without an http(s)
// scheme and a host, or with a query or fragment, is a usage error (exit
// 2) carrying the rule's own message, before any cache is opened or any
// port bound.
func TestBaseURLFlagsRejected(t *testing.T) {
	cases := []struct {
		flags []string
		bad   string
	}{
		{[]string{"-role", "coordinator", "-workers-list", "localhost:8751"}, "localhost:8751"},
		{[]string{"-role", "coordinator", "-workers-list", "http://127.0.0.1:8751,ftp://h:1"}, "ftp://h:1"},
		{[]string{"-role", "coordinator", "-workers-list", "http://h:1/?x=1"}, "http://h:1/?x=1"},
		{[]string{"-cache-peers", "http://h:1#frag"}, "http://h:1#frag"},
		{[]string{"-cache-peers", "h:1"}, "h:1"},
	}
	for _, tc := range cases {
		cmd := exec.Command(os.Args[0], append([]string{"-cache", "", "-no-traces", "-addr", "127.0.0.1:0"}, tc.flags...)...)
		cmd.Env = append(os.Environ(), "ARVID_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2 (stderr %q)", tc.flags, err, stderr.String())
			continue
		}
		if want := "arvid: " + sim.ValidateBaseURL(tc.bad).Error() + "\n"; stderr.String() != want {
			t.Errorf("%v: stderr %q, want %q", tc.flags, stderr.String(), want)
		}
	}
}
