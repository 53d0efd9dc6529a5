package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	genima "genima"
)

// TestBenchmarkJSONMatchesRegistry checks the committed BENCHMARK.json
// against the registry it is generated from (go run . -spec) and against
// the limits its readers enforce.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var got spec
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want := benchmarkSpec()
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with go run . -spec\n got %s\nwant %s", gotJSON, wantJSON)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	workloadNames := map[string]bool{}
	for _, w := range want.Workloads {
		if !nameRE.MatchString(w.Name) || workloadNames[w.Name] {
			t.Errorf("workload name %q is not allowed or repeated", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
		workloadNames[w.Name] = true
	}
	e2e := map[string]metric{}
	maxBound := 0.0
	for _, m := range registry {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q is not allowed", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %s is defined twice", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) || (m.better != lower && m.better != higher) {
			t.Errorf("metric %s: unit %q, better %q", m.name, m.unit, m.better)
		}
		if m.e2e {
			e2e[m.name] = m
			maxBound = math.Max(maxBound, m.bound)
			if m.bound <= 0 || m.bound > 0.25 || m.samples == nil {
				t.Errorf("end-to-end metric %s: bound %g, samples set %v", m.name, m.bound, m.samples != nil)
			}
		}
	}
	if s, ok := e2e["setup_s"]; !ok || s.unit != "s" || s.better != lower || s.bound != maxBound {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better, with the largest bound")
	}
	for _, m := range registry {
		if m.e2e {
			continue
		}
		if _, ok := e2e[m.moves]; !ok && m.name != "trace_overhead_frac" {
			t.Errorf("layer metric %s moves %q, which is no end-to-end metric", m.name, m.moves)
		}
		if len(m.on) == 0 {
			t.Errorf("layer metric %s names no workload", m.name)
		}
		for _, w := range m.on {
			if !workloadNames[w] {
				t.Errorf("layer metric %s names unknown workload %q", m.name, w)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at reduced size twice, traced
// and untraced: nothing may fail, and the simulated outputs and counters
// must repeat exactly.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var reports [2]*report
			for i := range reports {
				r, err := measure(w, 1, 0, i == 0, true)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("%d of %d runs failed: %v", r.failed, r.attempted, r.errs)
				}
				reports[i] = r
			}
			a, b := reports[0], reports[1]
			if a.model != b.model || a.events != b.events || a.sums != b.sums {
				t.Errorf("simulated outputs differ between calls:\n%+v %d %+v\n%+v %d %+v", a.model, a.events, a.sums, b.model, b.events, b.sums)
			}
			for _, m := range registry {
				if m.virtual && m.value != nil {
					if v := m.value(a); math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v", m.name, v)
					}
				}
			}
		})
	}
}

// TestDriversCheckTheirWork runs every per-layer driver for a few
// iterations; each one fails if the work it timed did not happen.
func TestDriversCheckTheirWork(t *testing.T) {
	if err := flag.Set("test.benchtime", "5x"); err != nil {
		t.Fatal(err)
	}
	r := &report{}
	r.runDrivers()
	if r.failed != 0 {
		t.Fatal(r.errs)
	}
	for _, m := range registry {
		if m.driver != nil {
			if v := layerValue(m, r); !(v > 0) {
				t.Errorf("%s = %v", m.name, v)
			}
		}
	}
}

// TestPDESTraceMatchesSerial hashes every delivered packet of the pdes
// runs under the serial engine and under 2 intra-run workers.
func TestPDESTraceMatchesSerial(t *testing.T) {
	w, _ := workloadByName("pdes")
	runs, err := w.setup(1, true)
	if err != nil {
		t.Fatal(err)
	}
	traceHash := func(rn run, workers int) uint64 {
		h := fnv.New64a()
		cfg := rn.cfg
		cfg.IntraRunWorkers = workers
		_, _, err := genima.RunTraced(cfg, rn.proto, rn.app, func(ev genima.TraceEvent) {
			_ = binary.Write(h, binary.LittleEndian, []int64{ev.Time, int64(ev.Src), int64(ev.Dst), int64(ev.Size)})
			_ = binary.Write(h, binary.LittleEndian, ev.StageTime)
			h.Write([]byte(ev.Kind))
		})
		if err != nil {
			t.Fatal(err)
		}
		return h.Sum64()
	}
	for _, rn := range runs {
		if s, p := traceHash(rn, 1), traceHash(rn, w.workers); s != p {
			t.Errorf("%s: parallel trace hash %x, serial %x", rn.label, p, s)
		}
	}
}

// TestLadderMatchesFigure2 checks that the ladder's speedups are the
// geomeans of Figure 2's Base and GeNIMA columns.
func TestLadderMatchesFigure2(t *testing.T) {
	runs, err := setupLadder(1, true)
	if err != nil {
		t.Fatal(err)
	}
	r := &report{}
	got := ladderModel(runs, runPass(runs, 1, nil, r).res)
	s, err := genima.RunSuite(genima.DefaultConfig(), genima.SuiteOptions{Scale: genima.TestScale, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := s.Figure2()
	geomean := func(xs []float64) float64 {
		l := 0.0
		for _, x := range xs {
			l += math.Log(x)
		}
		return math.Exp(l / float64(len(xs)))
	}
	if g := geomean(f.ByProtocol[genima.GeNIMA]); got.speedupGeNIMA != g {
		t.Errorf("speedup_genima %v, Figure 2 geomean %v", got.speedupGeNIMA, g)
	}
	if b := geomean(f.ByProtocol[genima.Base]); got.speedupBase != b {
		t.Errorf("speedup_base %v, Figure 2 geomean %v", got.speedupBase, b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
