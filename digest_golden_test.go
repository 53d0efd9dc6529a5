package genima_test

// Golden live-state digests. Per-peer state (reliable flows, notice
// counters, barrier epoch vectors, collective combine vectors) is
// allocated on first contact, and the digest folds an absent entry
// exactly as the zero entry a dense table would hold. These values were
// recorded from dense per-peer tables, with the fold omitting the two
// barrier-record free-list lengths (barrier records are owned by their
// senders), folding every other pooled-record free-list length and
// the page-buffer pool's depth and hit/miss counters as zero (pooled
// records are fungible host caches, whichever pool holds them), and
// folding the protocol process as a busy flag plus its queued messages
// (its resume point inside a message body is control state), and
// folding a barrier epoch's arrival vector only while the epoch is live
// (once the node leader leaves the barrier it folds as zeros), and
// folding each retransmit entry's header-checksum slot as zero (the
// receive gate reads only whether a link corrupted a packet); any
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
	_, err := genima.RunCheckpointed(cfg, proto, a, genima.CheckpointOptions{
		Every: every,
		OnBoundary: func(b *genima.Boundary) {
			out = append(out, fmt.Sprintf("%016x", b.StateDigest()))
		},
	})
	if err != nil {
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
			"22406b91a7cadff8", "243503065a77d93d", "24ace2f18d7df4c6",
			"44d91ce3c1629c4b", "23ce66f6a081a103", "c69a1c289cb87baa",
		}},
		{"fattree64/barrierbench/Base", fattree64, genima.Base, "barrierbench", 500, []string{
			"8f04d1efcde74bdc", "e62ab7c3d185c15d", "a26e397818ce58f8", "0113a034b0cf0b07",
		}},
		{"fattree64/barrierbench/GeNIMA-tree", fattree64Tree, genima.GeNIMA, "barrierbench", 500, []string{
			"c4899322b77636aa", "bf24ef1bd3255711", "dbd4ff884954f36a", "480784812d0dfd1c",
			"56df6d361f60c12f",
		}},
	} {
		got := stateDigests(t, tc.cfg, tc.proto, tc.app, tc.every)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: live-state digests at every %d trace events:\n got %q\nwant %q",
				tc.name, tc.every, got, tc.want)
		}
	}
}
