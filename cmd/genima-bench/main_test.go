package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
	bin := filepath.Join(t.TempDir(), "genima-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "bogus"}, "valid experiments: all, fig1"},
		{[]string{"-scale", "bogus"}, "valid scales: test, bench"},
		{[]string{"-exp", "soak", "-soak-restore"}, "-soak-restore needs -soak-checkpoint"},
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
