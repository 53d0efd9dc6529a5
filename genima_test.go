package genima_test

// End-to-end assertions on the regenerated tables and figures: the
// qualitative "shape" results the paper reports must hold in the
// reproduction (see DESIGN.md §4 for the shape targets).

import (
	"strings"
	"sync"
	"testing"

	genima "genima"
	"genima/internal/apps"
)

// appByName fetches a test-scale suite app.
func appByName(t *testing.T, name string) (genima.App, apps.Entry) {
	t.Helper()
	e, ok := apps.ByName(apps.Test, name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	return e.App, e
}

var (
	suiteOnce sync.Once
	suite     *genima.SuiteResults
	suiteErr  error
)

// sharedSuite runs the full test-scale suite (with hardware and
// verification) once for all facade tests.
func sharedSuite(t *testing.T) *genima.SuiteResults {
	t.Helper()
	suiteOnce.Do(func() {
		cfg := genima.DefaultConfig()
		suite, suiteErr = genima.RunSuite(cfg, genima.SuiteOptions{
			Scale:    genima.TestScale,
			Hardware: true,
		})
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestSuiteValidatesEverywhere(t *testing.T) {
	s := sharedSuite(t)
	if len(s.Entries) != 10 {
		t.Fatalf("suite has %d apps, want 10", len(s.Entries))
	}
	for _, k := range genima.Protocols() {
		if len(s.SVM[k]) != 10 {
			t.Errorf("%v: %d results", k, len(s.SVM[k]))
		}
	}
}

func TestFigure1HardwareDominatesBaseSVM(t *testing.T) {
	f := sharedSuite(t).Figure1()
	for i, a := range f.Apps {
		if f.Origin[i] <= f.Base[i] {
			t.Errorf("%s: Origin %.2f not above Base SVM %.2f", a, f.Origin[i], f.Base[i])
		}
	}
	if !strings.Contains(f.String(), "Figure 1") {
		t.Error("rendering lacks the figure title")
	}
}

func TestFigure2GeNIMAHelpsOnAverage(t *testing.T) {
	f := sharedSuite(t).Figure2()
	wins := 0
	for i := range f.Apps {
		if f.ByProtocol[genima.GeNIMA][i] >= f.ByProtocol[genima.Base][i] {
			wins++
		}
	}
	// The paper's only regression is Barnes-spatial (direct diffs);
	// allow up to two apps below Base at test scale.
	if wins < len(f.Apps)-2 {
		t.Errorf("GeNIMA beats Base on only %d of %d apps", wins, len(f.Apps))
	}
}

func TestFigure3BreakdownsNormalized(t *testing.T) {
	f := sharedSuite(t).Figure3()
	for i, a := range f.Apps {
		// Base row must sum to ~1.0 by construction.
		var baseTotal float64
		for _, v := range f.Normalized[i][0] {
			baseTotal += v
		}
		if baseTotal < 0.999 || baseTotal > 1.001 {
			t.Errorf("%s: Base normalized total = %.4f, want 1.0", a, baseTotal)
		}
	}
}

func TestTable1ImprovementFields(t *testing.T) {
	d := sharedSuite(t).Table1()
	if len(d.Rows) != 10 {
		t.Fatalf("%d rows", len(d.Rows))
	}
	for _, r := range d.Rows {
		if r.UniprocSec <= 0 {
			t.Errorf("%s: uniproc time %.3f", r.App, r.UniprocSec)
		}
		if r.OverallPct < -100 || r.OverallPct > 100 {
			t.Errorf("%s: overall improvement %.1f%% out of range", r.App, r.OverallPct)
		}
	}
}

func TestTable2SharesAreBounded(t *testing.T) {
	d := sharedSuite(t).Table2()
	for _, r := range d.Rows {
		for name, v := range map[string]float64{"BT": r.BTPct, "BPT": r.BPTPct, "MT": r.MTPct} {
			if v < 0 || v > 100.0001 {
				t.Errorf("%s: %s = %.1f%% out of [0,100]", r.App, name, v)
			}
		}
	}
}

func TestTables34ContentionAtLeastOne(t *testing.T) {
	s := sharedSuite(t)
	for _, d := range []*genima.ContentionData{s.Table3(), s.Table4()} {
		for _, r := range d.Rows {
			for st := 0; st < 4; st++ {
				if r.Base[st] < 0.999 || r.GeNIMA[st] < 0.999 {
					t.Errorf("%s stage %d: ratio below 1 (%.2f/%.2f)", r.App, st, r.Base[st], r.GeNIMA[st])
				}
			}
		}
	}
}

// The paper's §4 finding: GeNIMA increases small-message contention
// relative to Base (more, smaller messages) yet still wins overall.
func TestSmallMessageContentionRises(t *testing.T) {
	s := sharedSuite(t)
	t3 := s.Table3()
	higher := 0
	for _, r := range t3.Rows {
		if r.GeNIMA[2] >= r.Base[2] { // NetLat
			higher++
		}
	}
	if higher < len(t3.Rows)/2 {
		t.Errorf("GeNIMA small-message NetLat contention above Base for only %d of %d apps",
			higher, len(t3.Rows))
	}
}

func TestGeNIMAEliminatesAllInterrupts(t *testing.T) {
	s := sharedSuite(t)
	for i, e := range s.Entries {
		if n := s.SVM[genima.GeNIMA][i].Acct.Interrupts; n != 0 {
			t.Errorf("%s: GeNIMA took %d interrupts", e.PaperName, n)
		}
		if n := s.SVM[genima.Base][i].Acct.Interrupts; n == 0 {
			t.Errorf("%s: Base took no interrupts", e.PaperName)
		}
	}
}

func TestRenderings(t *testing.T) {
	s := sharedSuite(t)
	for name, out := range map[string]string{
		"fig2":   s.Figure2().String(),
		"fig3":   s.Figure3().String(),
		"fig4":   s.Figure4().String(),
		"table1": s.Table1().String(),
		"table2": s.Table2().String(),
		"table3": s.Table3().String(),
		"table4": s.Table4().String(),
	} {
		if len(out) < 100 || !strings.Contains(out, "FFT") {
			t.Errorf("%s rendering looks empty:\n%s", name, out)
		}
	}
}

func TestTable5RunsAt32Procs(t *testing.T) {
	d, err := genima.Table5(genima.SuiteOptions{Scale: genima.TestScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Apps) != 10 {
		t.Fatalf("%d apps", len(d.Apps))
	}
	for i, a := range d.Apps {
		if d.SVM[i] <= 0 || d.Origin[i] <= 0 {
			t.Errorf("%s: speedups %.2f / %.2f", a, d.SVM[i], d.Origin[i])
		}
	}
}

func TestProtocolsList(t *testing.T) {
	ps := genima.Protocols()
	if len(ps) != 5 || ps[0] != genima.Base || ps[4] != genima.GeNIMA {
		t.Errorf("protocol ladder = %v", ps)
	}
	if genima.DWRF.String() != "DW+RF" {
		t.Errorf("DWRF renders as %q", genima.DWRF.String())
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := genima.DefaultConfig()
	cfg.Nodes = 0
	if err := cfg.Validate(); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunTracedStreamsPackets(t *testing.T) {
	cfg := genima.DefaultConfig()
	var events int
	var lastT int64
	ordered := true
	a, _ := appByName(t, "fft")
	res, _, err := genima.RunTraced(cfg, genima.GeNIMA, a, func(ev genima.TraceEvent) {
		events++
		if ev.Time < lastT {
			ordered = false
		}
		lastT = ev.Time
		if ev.Size <= 0 || ev.Kind == "" {
			t.Errorf("bad trace event %+v", ev)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(events) != res.Monitor.TotalPackets() {
		t.Errorf("traced %d events, monitor counted %d", events, res.Monitor.TotalPackets())
	}
	if !ordered {
		t.Error("trace not in delivery order")
	}
}

func TestScalingStudyShape(t *testing.T) {
	d, err := genima.Scaling(genima.SuiteOptions{Scale: genima.TestScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Apps) != 10 || len(d.Nodes) != 4 {
		t.Fatalf("apps=%d sizes=%d", len(d.Apps), len(d.Nodes))
	}
	for i := range d.Apps {
		for si := range d.Nodes {
			if d.Base[i][si] <= 0 || d.GeNIMA[i][si] <= 0 {
				t.Errorf("%s at %d nodes: non-positive speedup", d.Apps[i], d.Nodes[si])
			}
		}
	}
}
