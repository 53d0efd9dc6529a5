package core

// Tests for the NI extensions the paper discusses as future work and
// that this reproduction implements behind config flags: scatter-gather
// direct diffs (§3.3) and NI broadcast for write notices (§5).

import (
	"testing"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/topo"
)

func newClusterCfg(t *testing.T, cfg topo.Config, kind Kind, pages int) *testCluster {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	space := memory.NewSpace(cfg.PageSize, cfg.WordSize, cfg.Nodes)
	space.Alloc("shared", pages*cfg.PageSize, memory.RoundRobin)
	sys := New(eng, &cfg, kind, space)
	sys.Start()
	return &testCluster{eng: eng, cfg: cfg, space: space, sys: sys}
}

// scatteredWriter writes every other word of a page (worst case for
// direct diffs) and runs one barrier round trip.
func runScatteredWriters(t *testing.T, cfg topo.Config) (*testCluster, uint64) {
	t.Helper()
	tc := newClusterCfg(t, cfg, GeNIMA, 8)
	done := 0
	for nd := 0; nd < cfg.Nodes; nd++ {
		nd := nd
		tc.spawn("w", nd, func(p *sim.Proc, n *Node) {
			// Page (nd+1)%... write alternating words of page 5.
			n.Ensure(p, 5, 5, true)
			pg := n.PageBytes(5)
			for w := nd * 4; w < tc.cfg.PageSize/4; w += 4 * cfg.Nodes {
				pg[4*w] = byte(nd + 1)
			}
			n.Barrier(p)
			done++
		})
	}
	tc.run(t, &done, cfg.Nodes)
	return tc, tc.sys.Layer.Monitor().TotalPackets()
}

func TestScatterGatherReducesMessages(t *testing.T) {
	base := topo.Default()
	base.ProcsPerNode = 1
	_, plain := runScatteredWriters(t, base)

	sg := base
	sg.ScatterGather = true
	tcSG, gathered := runScatteredWriters(t, sg)

	if gathered >= plain {
		t.Errorf("scatter-gather packets (%d) not below per-run deposits (%d)", gathered, plain)
	}
	// Data must still be correct: every node's alternating words
	// merged in the home copy.
	hc := tcSG.space.HomeCopy(5)
	for nd := 0; nd < sg.Nodes; nd++ {
		w := nd * 4
		if hc[4*w] != byte(nd+1) {
			t.Errorf("home copy lost node %d's word (offset %d)", nd, 4*w)
		}
	}
}

func TestScatterGatherEndToEnd(t *testing.T) {
	cfg := topo.Default()
	cfg.ProcsPerNode = 1
	cfg.ScatterGather = true
	tc := newClusterCfg(t, cfg, GeNIMA, 8)
	done := 0
	for nd := 0; nd < 4; nd++ {
		nd := nd
		tc.spawn("w", nd, func(p *sim.Proc, n *Node) {
			writeByte(p, n, 3, 8*nd, byte(0x40+nd))
			writeByte(p, n, 3, 8*nd+128, byte(0x60+nd)) // second run
			n.Barrier(p)
			if got := readByte(p, n, 3, 16); got != 0x42 {
				t.Errorf("node %d read %#x, want 0x42", nd, got)
			}
			if got := readByte(p, n, 3, 136); got != 0x61 {
				t.Errorf("node %d read %#x, want 0x61", nd, got)
			}
			n.Barrier(p)
			done++
		})
	}
	tc.run(t, &done, 4)
}

func TestNIBroadcastDeliversNotices(t *testing.T) {
	cfg := topo.Default()
	cfg.ProcsPerNode = 1
	cfg.NIBroadcast = true
	tc := newClusterCfg(t, cfg, GeNIMA, 8)
	done := 0
	var got byte
	tc.spawn("writer", 1, func(p *sim.Proc, n *Node) {
		n.LockAcquire(p, 0)
		writeByte(p, n, 3, 100, 0xAB)
		n.LockRelease(p, 0)
		done++
	})
	tc.spawn("reader", 2, func(p *sim.Proc, n *Node) {
		p.Sleep(sim.Micro(500))
		n.LockAcquire(p, 0)
		got = readByte(p, n, 3, 100)
		n.LockRelease(p, 0)
		done++
	})
	tc.run(t, &done, 2)
	if got != 0xAB {
		t.Fatalf("reader saw %#x under NI broadcast", got)
	}
}

func TestNIBroadcastFewerHostPosts(t *testing.T) {
	run := func(broadcast bool) sim.Time {
		cfg := topo.Default()
		cfg.ProcsPerNode = 1
		cfg.Nodes = 8
		cfg.NIBroadcast = broadcast
		tc := newClusterCfg(t, cfg, GeNIMA, 8)
		done := 0
		var releaseCost sim.Time
		tc.spawn("w", 0, func(p *sim.Proc, n *Node) {
			n.LockAcquire(p, 0)
			writeByte(p, n, 1, 0, 1)
			t0 := p.Now()
			n.LockRelease(p, 0) // closes the interval: notices go out
			releaseCost = p.Now() - t0
			done++
		})
		tc.run(t, &done, 1)
		return releaseCost
	}
	plain := run(false)
	bcast := run(true)
	if bcast >= plain {
		t.Errorf("NI broadcast release cost (%d) not below per-node posts (%d)", bcast, plain)
	}
}
