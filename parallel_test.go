package genima_test

// Determinism contract of the experiment runner: for the same inputs,
// Workers=N must render every experiment byte-identically to a serial
// run (Workers=1). `go test -race` exercises the pool's sharing
// discipline.

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	genima "genima"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current code")

const experimentsGolden = "testdata/experiments.golden"

// renderExperiments renders every experiment at TestScale on the given
// number of workers, keyed by experiment name. "raw" fingerprints every
// suite run's virtual time, event count and accounting counters.
func renderExperiments(t *testing.T, workers int) map[string]string {
	t.Helper()
	opt := genima.SuiteOptions{Scale: genima.TestScale, Hardware: true, Workers: workers}
	s, err := genima.RunSuite(genima.DefaultConfig(), opt)
	if err != nil {
		t.Fatalf("RunSuite(Workers=%d): %v", workers, err)
	}
	var raw strings.Builder
	for _, rs := range append([][]*genima.Result{s.Seq, s.HW}, s.SVM[genima.Base], s.SVM[genima.DW],
		s.SVM[genima.DWRF], s.SVM[genima.DWRFDD], s.SVM[genima.GeNIMA]) {
		for _, r := range rs {
			a := r.Acct
			fmt.Fprintf(&raw, "%s %d %d BarrierProto:%d Mprotect:%d MprotectOps:%d DiffCompute:%d DiffBytes:%d PageFetches:%d FetchRetries:%d LockOps:%d Interrupts:%d\n",
				r.Label, r.Elapsed, r.Events, a.BarrierProto, a.Mprotect, a.MprotectOps,
				a.DiffCompute, a.DiffBytes, a.PageFetches, a.FetchRetries, a.LockOps, a.Interrupts)
		}
	}
	out := map[string]string{
		"raw":     raw.String(),
		"Figure1": s.Figure1().String(),
		"Figure2": s.Figure2().String(),
		"Figure3": s.Figure3().String(),
		"Figure4": s.Figure4().String(),
		"Table1":  s.Table1().String(),
		"Table2":  s.Table2().String(),
		"Table3":  s.Table3().String(),
		"Table4":  s.Table4().String(),
	}
	for name, run := range map[string]func() (fmt.Stringer, error){
		"Table5":     func() (fmt.Stringer, error) { return genima.Table5(opt) },
		"Scaling":    func() (fmt.Stringer, error) { return genima.Scaling(opt) },
		"FaultSweep": func() (fmt.Stringer, error) { return genima.FaultSweep(opt, 1) },
		"ScaleSweep": func() (fmt.Stringer, error) { return genima.ScaleSweep(opt, 1) },
		"Serve":      func() (fmt.Stringer, error) { return genima.Serve(opt, 1) },
	} {
		d, err := run()
		if err != nil {
			t.Fatalf("%s(Workers=%d): %v", name, workers, err)
		}
		out[name] = d.String()
	}
	return out
}

// joinExperiments concatenates the renders in name order, each under a
// "== name ==" header: the text testdata/experiments.golden holds.
func joinExperiments(out map[string]string) string {
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "== %s ==\n%s", name, out[name])
		if !strings.HasSuffix(out[name], "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// lineDiff returns a unified-style listing of the lines that differ
// between want and got ("-" want, "+" got), each prefixed with its
// line number in want, from a longest-common-subsequence alignment.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	// lcs[i][j] is the LCS length of w[i:] and g[j:].
	lcs := make([][]int, len(w)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(g)+1)
	}
	for i := len(w) - 1; i >= 0; i-- {
		for j := len(g) - 1; j >= 0; j-- {
			if w[i] == g[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var b strings.Builder
	i, j := 0, 0
	for i < len(w) || j < len(g) {
		switch {
		case i < len(w) && j < len(g) && w[i] == g[j]:
			i, j = i+1, j+1
		case i < len(w) && (j == len(g) || lcs[i+1][j] >= lcs[i][j+1]):
			fmt.Fprintf(&b, "%5d - %s\n", i+1, w[i])
			i++
		default:
			fmt.Fprintf(&b, "%5d + %s\n", i+1, g[j])
			j++
		}
	}
	return b.String()
}

// TestExperimentsMatchAcrossWorkers renders every experiment — the
// suite's figures and Tables 1–4, Table 5, Scaling, FaultSweep,
// ScaleSweep and Serve — serially and on four workers, and requires
// byte-identical output. The serial render must also equal
// testdata/experiments.golden, so a change that moves any model output
// names the figure cell or run that moved; `go test -run
// TestExperimentsMatchAcrossWorkers -update .` rewrites the file.
func TestExperimentsMatchAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment twice in -short mode")
	}
	serial := renderExperiments(t, 1)
	got := joinExperiments(serial)
	if *update {
		if err := os.WriteFile(experimentsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("serial render differs from %s (line numbers are the golden's):\n%s",
			experimentsGolden, lineDiff(string(want), got))
	}
	par := renderExperiments(t, 4)
	for name, want := range serial {
		if got := par[name]; got != want {
			t.Errorf("%s renders differently under Workers=4:\nserial:\n%s\nparallel:\n%s", name, want, got)
		}
	}
}

// TestParallelSuiteVerifies runs the suite on the worker pool: every
// protocol run's shared memory must match its sequential reference.
func TestParallelSuiteVerifies(t *testing.T) {
	cfg := genima.DefaultConfig()
	_, err := genima.RunSuite(cfg, genima.SuiteOptions{
		Scale:     genima.TestScale,
		Protocols: []genima.Protocol{genima.Base, genima.GeNIMA},
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
}
