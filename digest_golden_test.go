package genima_test

// Golden live-state digests. Per-peer state (reliable flows, notice
// counters, barrier epoch vectors, collective combine vectors) is
// allocated on first contact, and the digest folds an absent entry
// exactly as the zero entry a dense table would hold. These values were
// recorded from dense per-peer tables, with the fold omitting the two
// barrier-record free-list lengths (barrier records are owned by their
// senders) and folding every other pooled-record free-list length and
// the page-buffer pool's depth and hit/miss counters as zero (pooled
// records are fungible host caches, whichever pool holds them); any
// drift in how live state digests shows up here at every checkpoint
// cut.

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
			"645e8464dc5d73dc", "eadcc9dee5b003d0", "cb01ec0c5d2f9fa9",
			"7a92429df2ea7245", "de89203b41520f70", "d421e461d112652f",
		}},
		{"fattree64/barrierbench/Base", fattree64, genima.Base, "barrierbench", 500, []string{
			"a95463fd650626af", "cb70f19766f41bdc", "85cffa9f16994d6f", "e0bd33e296fa9c63",
		}},
		{"fattree64/barrierbench/GeNIMA-tree", fattree64Tree, genima.GeNIMA, "barrierbench", 500, []string{
			"65d4a63e254342b1", "8de9184e03ba3f02", "f997625335d9e88a", "623681447bec5c14",
			"d2160c8e4ae9703b",
		}},
	} {
		got := stateDigests(t, tc.cfg, tc.proto, tc.app, tc.every)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: live-state digests at every %d trace events:\n got %q\nwant %q",
				tc.name, tc.every, got, tc.want)
		}
	}
}
