package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	genima "genima"
	"genima/internal/apps"
)

func TestParseExperimentsAcceptsValidNames(t *testing.T) {
	for _, in := range []string{
		"all",
		"fig2,table3",
		" serve ",
		"soak",
		"scaling,faultsweep,scalesweep,serve",
		"fig1,fig2,fig3,fig4,table1,table2,table3,table4,table5",
	} {
		want, err := parseExperiments(in)
		if err != nil {
			t.Errorf("parseExperiments(%q) = %v", in, err)
			continue
		}
		for _, name := range strings.Split(in, ",") {
			if name = strings.TrimSpace(name); name != "" && !want[name] {
				t.Errorf("parseExperiments(%q) lost %q", in, name)
			}
		}
	}
}

func TestParseExperimentsRejectsUnknownNames(t *testing.T) {
	for _, in := range []string{
		"serv", // the typo class that used to silently run nothing
		"fig2,tabel3",
		"bogus",
		"all,xyzzy",
		"",
		" , ",
	} {
		_, err := parseExperiments(in)
		if err == nil {
			t.Errorf("parseExperiments(%q) accepted", in)
			continue
		}
		if !strings.Contains(err.Error(), "valid experiments") ||
			!strings.Contains(err.Error(), "serve") {
			t.Errorf("parseExperiments(%q) error does not list valid experiments: %v", in, err)
		}
	}
}

// TestParseScaleRejectsUnknownNames: both CLIs and Soak parse -scale
// with apps.ParseScale, which maps exactly "test" and "bench" and
// rejects everything else with the valid names listed. Any name but
// "test" used to run bench-scale problems.
func TestParseScaleRejectsUnknownNames(t *testing.T) {
	for in, want := range map[string]apps.Scale{"test": apps.Test, "bench": apps.Bench} {
		if got, err := apps.ParseScale(in); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"tset", "Test", "BENCH", " bench", ""} {
		_, err := apps.ParseScale(in)
		if err == nil {
			t.Errorf("ParseScale(%q) accepted", in)
			continue
		}
		if !strings.Contains(err.Error(), "valid scales: test, bench") {
			t.Errorf("ParseScale(%q) error does not list valid scales: %v", in, err)
		}
	}
}

// TestUsageErrorsExitTwo builds the command and runs it with one bad
// flag value at a time. Each must exit 2 with the valid values named,
// before any run: stdout stays empty.
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := build(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "bogus"}, "valid experiments: all, fig1"},
		{[]string{"-scale", "bogus"}, "valid scales: test, bench"},
		{[]string{"-exp", "soak", "-soak-restore"}, "-soak-restore needs -soak-checkpoint"},
		{[]string{"-exp", "fig1,soak", "-soak-iters", "1", "-soak-events", "0"}, "-exp soak runs alone"},
		{[]string{"-exp", "fig2", "-soak-iters", "3"}, "-soak-iters applies only to -exp soak"},
		{[]string{"-exp", "fig2", "-soak-stats", filepath.Join(t.TempDir(), "soak.jsonl")}, "-soak-stats applies only to -exp soak"},
		{[]string{"-soak-restore"}, "-soak-restore applies only to -exp soak"},
	} {
		cmd := exec.Command(bin, append([]string{"-scale", "test", "-q"}, tc.args...)...)
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
	bin := filepath.Join(t.TempDir(), "genima-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSoakStatsAcrossRestore: a campaign halted by -soak-stop-after and
// finished by -soak-restore leaves a -soak-stats log of exactly one
// valid JSON record per iteration, in iteration order.
func TestSoakStatsAcrossRestore(t *testing.T) {
	bin := build(t)
	dir := t.TempDir()
	ck, stats := filepath.Join(dir, "soak.ckpt"), filepath.Join(dir, "soak.jsonl")
	args := []string{"-exp", "soak", "-scale", "test", "-q", "-soak-iters", "5", "-soak-events", "0",
		"-soak-checkpoint", ck, "-soak-stats", stats}
	for _, leg := range []struct {
		extra []string
		want  string
	}{
		{[]string{"-soak-stop-after", "2"}, "iters=2 "},
		{[]string{"-soak-restore"}, "iters=5 "},
	} {
		out, err := exec.Command(bin, append(args, leg.extra...)...).CombinedOutput()
		if err != nil || !strings.Contains(string(out), leg.want) {
			t.Fatalf("%v: %v, output %q lacks %q", leg.extra, err, out, leg.want)
		}
	}
	raw, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("stats log has %d records, want 5:\n%s", len(lines), raw)
	}
	for i, line := range lines {
		var rec genima.SoakRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad stats line %q: %v", line, err)
		}
		if rec.Iter != uint64(i) {
			t.Fatalf("stats record %d has iter %d", i, rec.Iter)
		}
	}
}
