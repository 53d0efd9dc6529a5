package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestUsageErrorsExitTwo builds the command and runs it with one bad
// flag value at a time. Each must exit 2 with the valid values named,
// and print nothing on stdout: the values are checked before the
// sequential reference run, so a typo costs no simulation.
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := build(t)
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
		{[]string{"-proto", "hw", "-topo", "clos2"}, "-topo applies to SVM protocols, not -proto hw"},
		{[]string{"-proto", "hw", "-radix", "4"}, "-radix applies to SVM protocols, not -proto hw"},
		{[]string{"-proto", "hw", "-arity", "2"}, "-arity applies to SVM protocols, not -proto hw"},
		{[]string{"-proto", "hw", "-jrun", "4"}, "-jrun applies to SVM protocols, not -proto hw"},
		{[]string{"-arity", "2"}, "it needs -collectives"},
		{[]string{"-fault-seed", "7"}, "it needs -faults"},
		{[]string{"-checkpoint-every", "10"}, "-checkpoint-every needs -checkpoint"},
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

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "genima-run")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestStatsOneLinePerBoundary: a checkpointed run with -stats writes
// one valid JSON line per boundary, every -checkpoint-every trace
// events, so trace_events strictly increases down the file.
func TestStatsOneLinePerBoundary(t *testing.T) {
	bin := build(t)
	dir := t.TempDir()
	stats := filepath.Join(dir, "stats.jsonl")
	const every = 50
	out, err := exec.Command(bin, "-app", "fft", "-scale", "test", "-trace-hash",
		"-checkpoint", filepath.Join(dir, "run.ckpt"), "-checkpoint-every", strconv.Itoa(every),
		"-stats", stats).Output()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var total uint64
	for _, f := range strings.Fields(string(out)) {
		if v, ok := strings.CutPrefix(f, "trace-events="); ok {
			total, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	if total < 3*every {
		t.Fatalf("run had %d trace events, want at least 3 boundaries of %d:\n%s", total, every, out)
	}
	raw, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if want := int(total / every); len(lines) != want {
		t.Fatalf("stats file has %d lines, want one per boundary (%d)", len(lines), want)
	}
	var last uint64
	for i, line := range lines {
		var rec struct {
			TraceEvents uint64 `json:"trace_events"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad stats line %q: %v", line, err)
		}
		if rec.TraceEvents <= last {
			t.Fatalf("line %d: trace_events %d does not increase past %d", i, rec.TraceEvents, last)
		}
		last = rec.TraceEvents
	}
}
