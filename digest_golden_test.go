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
// receive gate reads only whether a link corrupted a packet), and
// folding each engine's pending events sorted by their (at, seq) key
// rather than in the event heap's slot order (so the digest does not
// depend on how the queue is laid out); any
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
			"f32d0f82cfd2a6bc", "d35d7646f36c53a1", "79201808eb438a82",
			"0941c8e3a964a8ff", "1bea08392552f51b", "3edc6356176cbf2a",
		}},
		{"fattree64/barrierbench/Base", fattree64, genima.Base, "barrierbench", 500, []string{
			"b0a4b79193432740", "2dd6d9d7a5852df9", "eb0e4549ec5d3ed8", "4fb44c3df814aa87",
		}},
		{"fattree64/barrierbench/GeNIMA-tree", fattree64Tree, genima.GeNIMA, "barrierbench", 500, []string{
			"a60a6647cacfd24a", "c88dd79f55392edd", "85821646d75e8236", "8d864353aa1ee4e4",
			"c77f014793f0f9c7",
		}},
	} {
		got := stateDigests(t, tc.cfg, tc.proto, tc.app, tc.every)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: live-state digests at every %d trace events:\n got %q\nwant %q",
				tc.name, tc.every, got, tc.want)
		}
	}
}
