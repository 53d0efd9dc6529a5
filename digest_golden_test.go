package genima_test

// Golden live-state digests. Per-peer state (reliable flows, notice
// counters, barrier epoch vectors, collective combine vectors) is
// allocated on first contact, and the digest folds an absent entry
// exactly as the zero entry a dense table would hold. These values were
// recorded from dense per-peer tables, with the fold omitting only the
// two barrier-record free-list lengths (those pools no longer exist:
// barrier records are owned by their senders); any drift in how lazy
// state digests shows up here at every checkpoint cut.

import (
	"fmt"
	"testing"

	genima "genima"
)

// stateDigests runs app under proto with a checkpoint boundary every
// `every` trace events and returns the live-state digest at each cut.
func stateDigests(t *testing.T, cfg genima.Config, proto genima.Protocol, appName string, every uint64) []string {
	t.Helper()
	a, _ := appByName(t, appName)
	var out []string
	ctl := &genima.RunControl{
		BoundaryEvery: every,
		OnBoundary: func(b *genima.Boundary) bool {
			out = append(out, fmt.Sprintf("%016x", b.StateDigest()))
			return true
		},
	}
	if _, _, err := genima.RunControlled(cfg, proto, a, ctl); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStateDigestGolden(t *testing.T) {
	xbar8 := genima.DefaultConfig()
	xbar8.Nodes = 8
	xbar8.Faults = genima.FaultMix(0.01, 42)

	fattree64 := genima.DefaultConfig()
	fattree64.Nodes = 64
	fattree64.ProcsPerNode = 1
	fattree64.Topo = genima.TopoFatTree
	fattree64.SwitchRadix = 16
	fattree64.Faults = genima.FaultMix(0.01, 42)

	fattree64Tree := fattree64
	fattree64Tree.Collectives = true

	for _, tc := range []struct {
		name  string
		cfg   genima.Config
		proto genima.Protocol
		app   string
		every uint64
		want  []string
	}{
		{"xbar8/fft/GeNIMA", xbar8, genima.GeNIMA, "fft", 150, []string{
			"34f990a95e89f853", "c59f0be1c52d2415", "e9e4f386892f7eb3",
			"08610363bc7ee96e", "8798aa62e1270b91", "a44e501edeb036ee",
		}},
		{"fattree64/barrierbench/Base", fattree64, genima.Base, "barrierbench", 500, []string{
			"762e3f3f537646eb", "de1a92a13c1518c8", "de74ba49c562bc9b", "8df50e5718b603cf",
		}},
		{"fattree64/barrierbench/GeNIMA-tree", fattree64Tree, genima.GeNIMA, "barrierbench", 500, []string{
			"e0564a3ad8a46815", "5650804fa973c06a", "9567f9f5e2c27dd6", "0af9f309624b9388",
			"a153a7baec300e2f",
		}},
	} {
		got := stateDigests(t, tc.cfg, tc.proto, tc.app, tc.every)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: live-state digests at every %d trace events:\n got %q\nwant %q",
				tc.name, tc.every, got, tc.want)
		}
	}
}
