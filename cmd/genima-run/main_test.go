package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrorsExitTwo builds the command and runs it with one bad
// flag value at a time. Each must exit 2 with the valid values named,
// and print nothing on stdout: the values are checked before the
// sequential reference run, so a typo costs no simulation.
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "genima-run")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-proto", "bogus"}, "valid protocols: Base, DW, DW+RF, DW+RF+DD, GeNIMA, hw"},
		{[]string{"-topo", "bogus"}, "have xbar8, clos2, fattree"},
		{[]string{"-app", "bogus"}, "valid apps: fft"},
		{[]string{"-scale", "bogus"}, "valid scales: test, bench"},
		{[]string{"-proto", "hw", "-trace-hash"}, "not -proto hw"},
		{[]string{"-proto", "hw", "-trace", filepath.Join(t.TempDir(), "hw.trace")}, "not -proto hw"},
		{[]string{"-proto", "hw", "-sg"}, "not -proto hw"},
		{[]string{"-proto", "hw", "-broadcast"}, "not -proto hw"},
		{[]string{"-proto", "hw", "-collectives"}, "not -proto hw"},
		{[]string{"-proto", "hw", "-faults", "0.01"}, "not -proto hw"},
		{[]string{"-topo", "clos2", "-radix", "4", "-nodes", "9"}, "holds at most 8 nodes"},
	} {
		cmd := exec.Command(bin, append([]string{"-scale", "test"}, tc.args...)...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit %v, want status 2 (stderr %q)", tc.args, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q lacks %q, or stdout %q is not empty", tc.args, stderr.String(), tc.want, stdout.String())
		}
	}
}
