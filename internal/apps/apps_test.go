package apps

import (
	"testing"

	"genima/internal/app"
	"genima/internal/topo"
)

func TestSuiteHasTenUniqueApps(t *testing.T) {
	for _, scale := range []Scale{Test, Bench} {
		suite := Suite(scale)
		if len(suite) != 10 {
			t.Fatalf("scale %d: %d apps, want 10", scale, len(suite))
		}
		seen := map[string]bool{}
		for _, e := range suite {
			if seen[e.App.Name()] {
				t.Errorf("duplicate app name %q", e.App.Name())
			}
			seen[e.App.Name()] = true
			if e.PaperName == "" || e.PaperSize == "" || e.OurSize == "" {
				t.Errorf("%s: missing paper metadata", e.App.Name())
			}
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	names := Names(Test)
	if len(names) != 10 {
		t.Fatalf("Names returned %d", len(names))
	}
	for _, n := range names {
		e, ok := ByName(Test, n)
		if !ok || e.App.Name() != n {
			t.Errorf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName(Test, "no-such-app"); ok {
		t.Error("ByName accepted a bogus name")
	}
}

func TestPaperTableOrder(t *testing.T) {
	// The suite must follow the paper's Table 1 row order.
	want := []string{"FFT", "LU-contiguous", "Ocean-rowwise", "Water-nsquared",
		"Water-spatial", "Radix-local", "Volrend-stealing", "Raytrace",
		"Barnes-original", "Barnes-spatial"}
	for i, e := range Suite(Bench) {
		if e.PaperName != want[i] {
			t.Errorf("row %d = %q, want %q", i, e.PaperName, want[i])
		}
	}
}

// Every suite app must run sequentially without error.
func TestSuiteAppsRunnable(t *testing.T) {
	for _, e := range Suite(Test) {
		e := e
		t.Run(e.App.Name(), func(t *testing.T) {
			if _, _, err := app.RunSeq(topo.Default(), e.App); err != nil {
				t.Fatalf("sequential run failed: %v", err)
			}
		})
	}
}
