package genima_test

import (
	"encoding/json"
	"reflect"
	"testing"

	genima "genima"
	"genima/internal/apps"
)

// TestResultJSONRoundTrip: the scripting view of a real run (svmkv
// under GeNIMA with faults, so every section is populated) survives a
// marshal/unmarshal cycle unchanged, and its scalar fields match the
// Result it was built from.
func TestResultJSONRoundTrip(t *testing.T) {
	cfg := genima.DefaultConfig()
	cfg.Faults = genima.FaultMix(0.01, 1)
	entry, ok := apps.ByName(apps.Test, "svmkv")
	if !ok {
		t.Fatal("svmkv not registered")
	}
	res, _, err := genima.Run(cfg, genima.GeNIMA, entry.App)
	if err != nil {
		t.Fatal(err)
	}

	view := genima.NewResultJSON(res)
	if view.Latency == nil {
		t.Fatal("svmkv run produced no latency section")
	}
	if view.Latency.Count == 0 || view.Latency.ReqsPerSec <= 0 {
		t.Fatalf("empty latency summary: %+v", view.Latency)
	}
	if view.Faults.DropsInjected == 0 {
		t.Fatal("faulted run reported no injected drops")
	}
	if len(view.Traffic) == 0 {
		t.Fatal("no per-kind traffic rows")
	}
	if view.ElapsedNs != int64(res.Elapsed) || view.Procs != res.Procs ||
		view.Events != res.Events || view.Label != res.Label {
		t.Fatalf("view scalars do not match result: %+v", view)
	}
	if len(view.Breakdowns) != res.Procs {
		t.Fatalf("got %d per-proc breakdowns, want %d", len(view.Breakdowns), res.Procs)
	}
	var avgTotal int64
	for _, ns := range view.AvgBreakdown {
		avgTotal += ns
	}
	if avgTotal != int64(res.Avg.Total()) {
		t.Fatalf("avg breakdown sums to %d ns, want %d", avgTotal, res.Avg.Total())
	}

	blob, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	var back genima.ResultJSON
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*view, back) {
		t.Fatalf("round trip changed the view:\n marshalled %+v\n decoded    %+v", *view, back)
	}
}

// TestResultJSONCleanRunOmissions: with faults off and a batch app,
// the optional sections behave — no latency block, zero fault
// counters — and the view still round-trips.
func TestResultJSONCleanRunOmissions(t *testing.T) {
	cfg := genima.DefaultConfig()
	entry, ok := apps.ByName(apps.Test, "fft")
	if !ok {
		t.Fatal("fft not registered")
	}
	res, _, err := genima.Run(cfg, genima.Base, entry.App)
	if err != nil {
		t.Fatal(err)
	}
	view := genima.NewResultJSON(res)
	if view.Latency != nil {
		t.Fatalf("batch app grew a latency section: %+v", view.Latency)
	}
	if view.Faults != (genima.FaultReport{}) {
		t.Fatalf("clean run reported faults: %+v", view.Faults)
	}
	blob, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	var back genima.ResultJSON
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*view, back) {
		t.Fatal("clean-run view did not round-trip")
	}
}
