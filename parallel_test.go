package genima_test

// Determinism contract of the experiment runner: for the same inputs,
// Workers=N must render every experiment byte-identically to a serial
// run (Workers=1). `go test -race` exercises the pool's sharing
// discipline.

import (
	"fmt"
	"strings"
	"testing"

	genima "genima"
)

// renderExperiments renders every experiment at TestScale on the given
// number of workers, keyed by experiment name. "raw" fingerprints every
// suite run's virtual time, event count and accounting.
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
			fmt.Fprintf(&raw, "%s %d %d %+v\n", r.Label, r.Elapsed, r.Events, r.Acct)
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

// TestExperimentsMatchAcrossWorkers renders every experiment — the
// suite's figures and Tables 1–4, Table 5, Scaling, FaultSweep,
// ScaleSweep and Serve — serially and on four workers, and requires
// byte-identical output.
func TestExperimentsMatchAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment twice in -short mode")
	}
	serial, par := renderExperiments(t, 1), renderExperiments(t, 4)
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
