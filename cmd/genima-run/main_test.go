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

	genima "genima"
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
		{[]string{"-arity", "2"}, "it needs -collectives"},
		{[]string{"-fault-seed", "7"}, "it needs -faults"},
		{[]string{"-faults", "-0.01"}, "Faults.DropRate = -0.01, need [0, 1)"},
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

// TestStatsWriteErrorExitsOne: a -stats log that cannot be written is
// a run failure. /dev/full accepts the open and fails every write, so
// the run must exit 1 naming the stats write, not report success.
func TestStatsWriteErrorExitsOne(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	bin := build(t)
	cmd := exec.Command(bin, "-app", "fft", "-scale", "test", "-checkpoint-every", "50", "-stats", "/dev/full")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), "writing stats") {
		t.Fatalf("exit %v, stderr %q; want status 1 and a stats write error", err, stderr.String())
	}
}

// TestRestoreBoundariesPastCut: a restored run replays the boundaries
// at or before its cut silently. A -stop-after 3 run halts at trace
// event 150; restored onto the same checkpoint file with -stop-after 1
// it halts at 200, the first boundary past the cut, so the file moves
// forward instead of back to 50. A last restore finishes with the
// uninterrupted run's hash, and the -stats log the three runs share
// holds one line per boundary of the 240-event run, in order.
func TestRestoreBoundariesPastCut(t *testing.T) {
	bin := build(t)
	dir := t.TempDir()
	ck, stats := filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "stats.jsonl")
	run := func(wantExit int, args ...string) (hash, stderr string) {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-app", "fft", "-scale", "test", "-checkpoint-every", "50", "-trace-hash"}, args...)...)
		var out, errOut strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &errOut
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != wantExit {
			t.Fatalf("%v: exit %d, want %d (stderr %q)", args, code, wantExit, errOut.String())
		}
		for _, f := range strings.Fields(out.String()) {
			if v, ok := strings.CutPrefix(f, "trace-hash="); ok {
				hash = v
			}
		}
		return hash, errOut.String()
	}
	full, _ := run(0)
	if _, stderr := run(130, "-checkpoint", ck, "-stats", stats, "-stop-after", "3"); !strings.Contains(stderr, "halted at trace event 150;") {
		t.Fatalf("first leg: stderr %q, want a halt at trace event 150", stderr)
	}
	if _, stderr := run(130, "-restore", ck, "-checkpoint", ck, "-stats", stats, "-stop-after", "1"); !strings.Contains(stderr, "halted at trace event 200;") {
		t.Fatalf("restored leg: stderr %q, want a halt at trace event 200", stderr)
	}
	st, err := genima.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceEvents != 200 {
		t.Fatalf("checkpoint file holds the cut at trace event %d, want 200", st.TraceEvents)
	}
	if resumed, _ := run(0, "-restore", ck, "-stats", stats); resumed == "" || resumed != full {
		t.Errorf("resumed hash %q != uninterrupted %q", resumed, full)
	}
	raw, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("stats file has %d lines, want one per boundary (4):\n%s", len(lines), raw)
	}
	for i, line := range lines {
		var rec struct {
			TraceEvents uint64 `json:"trace_events"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad stats line %q: %v", line, err)
		}
		if want := uint64(50 * (i + 1)); rec.TraceEvents != want {
			t.Errorf("line %d: trace_events %d, want %d", i, rec.TraceEvents, want)
		}
	}
}
