package core

import (
	"testing"

	"genima/internal/sim"
	"genima/internal/topo"
)

// TestBarrierRecordsParityOwned runs many barriers on every barrier path
// under 1% faults and checks the record ownership rule: a node holds at
// most its two parity arrival records, only the Base master holds
// release records (at most two), and per-epoch vectors exist only where
// the node's barrier path reads them. Each round also checks that the
// barrier propagated every node's write.
func TestBarrierRecordsParityOwned(t *testing.T) {
	const (
		nodes  = 16
		rounds = 12
	)
	for _, pt := range []struct {
		name        string
		kind        Kind
		collectives bool
		arrRecords  int // arrival records each node ends up holding
	}{
		{"Base", Base, false, 2},
		{"DW", DW, false, 2},
		{"GeNIMA-tree", GeNIMA, true, 0},
	} {
		t.Run(pt.name, func(t *testing.T) {
			cfg := topo.Default()
			cfg.Nodes = nodes
			cfg.ProcsPerNode = 1
			cfg.Collectives = pt.collectives
			cfg.Faults = topo.FaultMix(0.01, 7)
			tc := newClusterCfg(t, cfg, pt.kind, nodes)
			done := 0
			for nd := 0; nd < nodes; nd++ {
				tc.spawn("bar", nd, func(p *sim.Proc, n *Node) {
					for r := 1; r <= rounds; r++ {
						writeByte(p, n, n.ID, 0, byte(r))
						n.Barrier(p)
						peer := (n.ID + r) % nodes
						if got := readByte(p, n, peer, 0); got != byte(r) {
							t.Errorf("round %d: node %d read %d from node %d's page, want %d",
								r, n.ID, got, peer, r)
						}
						n.Barrier(p)
					}
					done++
				})
			}
			tc.run(t, &done, nodes)

			for _, n := range tc.sys.Nodes {
				arr, rel := 0, 0
				for i := range n.barArr {
					if n.barArr[i] != nil {
						arr++
					}
					if n.barRel[i] != nil {
						rel++
					}
				}
				if arr != pt.arrRecords {
					t.Errorf("node %d holds %d arrival records, want %d", n.ID, arr, pt.arrRecords)
				}
				wantRel := 0
				if pt.kind == Base && n.ID == 0 {
					wantRel = 2
				}
				if rel != wantRel {
					t.Errorf("node %d holds %d release records, want %d", n.ID, rel, wantRel)
				}
				for i := range n.barEpochs {
					e := &n.barEpochs[i]
					if hasVC := e.vc != nil; hasVC != tc.sys.Feat.DW {
						t.Errorf("node %d epoch slot %d: vc allocated = %v under %v", n.ID, i, hasVC, pt.kind)
					}
					if hasM, want := e.mVC != nil, pt.kind == Base && n.ID == 0; hasM != want {
						t.Errorf("node %d epoch slot %d: mVC allocated = %v, want %v", n.ID, i, hasM, want)
					}
				}
			}
		})
	}
}

// TestNoticeCountersLazy checks that notice-arrival counters exist only
// for sources that deposited notices or were waited on: a run where
// only node 0 writes leaves every other source without a counter.
func TestNoticeCountersLazy(t *testing.T) {
	const nodes = 8
	tc := newCluster(t, GeNIMA, nodes, 1, nodes)
	done := 0
	for nd := 0; nd < nodes; nd++ {
		tc.spawn("bar", nd, func(p *sim.Proc, n *Node) {
			if n.ID == 0 {
				writeByte(p, n, 1, 0, 42)
			}
			n.Barrier(p)
			if got := readByte(p, n, 1, 0); got != 42 {
				t.Errorf("node %d read %d, want 42", n.ID, got)
			}
			done++
		})
	}
	tc.run(t, &done, nodes)
	for _, n := range tc.sys.Nodes {
		for src := range n.log {
			has := n.log[src].arrived != nil
			want := src == 0 && n.ID != 0
			if has != want {
				t.Errorf("node %d: counter for source %d allocated = %v, want %v", n.ID, src, has, want)
			}
		}
	}
}
