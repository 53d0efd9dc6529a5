package core

import (
	"testing"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/topo"
)

// TestRecordPoolsPerLP checks the pool ownership rule: every node on a
// logical process shares that LP's record pool. A serial system has
// exactly one pool, and a sharded cluster has one per shard, none
// shared across shards.
func TestRecordPoolsPerLP(t *testing.T) {
	const nodes = 8
	cfg := topo.Default()
	cfg.Nodes = nodes
	cfg.ProcsPerNode = 1
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	newSpace := func() *memory.Space {
		space := memory.NewSpace(cfg.PageSize, cfg.WordSize, nodes)
		space.Alloc("shared", nodes*cfg.PageSize, memory.RoundRobin)
		return space
	}

	t.Run("serial", func(t *testing.T) {
		sys := New(sim.NewEngine(), &cfg, GeNIMA, newSpace())
		for _, n := range sys.Nodes {
			if n.pool == nil || n.pool != sys.Nodes[0].pool {
				t.Fatalf("node %d does not share node 0's record pool", n.ID)
			}
		}
	})

	t.Run("sharded", func(t *testing.T) {
		const shards = 4
		nodeLA, fabLA := cfg.Lookaheads()
		cl := sim.NewCluster(nodes, shards, 2, nodeLA, fabLA)
		defer cl.Release()
		sys := New(cl.Main(), &cfg, GeNIMA, newSpace())
		lpOf := map[*recordPool]*sim.Engine{}
		for _, n := range sys.Nodes {
			if n.pool == nil {
				t.Fatalf("node %d has no record pool", n.ID)
			}
			if lp, ok := lpOf[n.pool]; ok && lp != n.eng {
				t.Fatalf("node %d shares a record pool with a node on another LP", n.ID)
			}
			lpOf[n.pool] = n.eng
		}
		for _, a := range sys.Nodes {
			for _, b := range sys.Nodes {
				if (a.eng == b.eng) != (a.pool == b.pool) {
					t.Fatalf("nodes %d and %d: same LP %v, same pool %v",
						a.ID, b.ID, a.eng == b.eng, a.pool == b.pool)
				}
			}
		}
		if len(lpOf) != shards {
			t.Errorf("%d record pools for %d shards", len(lpOf), shards)
		}
	})
}

// TestDiffRecordsRecycleSerial runs writers that flush diffs to one
// remote home for R and then 4R barrier rounds. Diffs flow one way,
// writer to home; in a serial run every diff record still returns to
// the one pool, so the records ever allocated (all on free lists once
// the run quiesces) do not grow with the run.
func TestDiffRecordsRecycleSerial(t *testing.T) {
	const nodes = 4
	pooled := func(kind Kind, rounds int) int {
		tc := newCluster(t, kind, nodes, 1, nodes)
		done := 0
		for nd := 0; nd < nodes; nd++ {
			tc.spawn("w", nd, func(p *sim.Proc, n *Node) {
				for r := 1; r <= rounds; r++ {
					if n.ID != 0 {
						writeByte(p, n, 0, n.ID, byte(r)) // page 0 is homed at node 0
					}
					n.Barrier(p)
				}
				done++
			})
		}
		tc.run(t, &done, nodes)
		total, seen := 0, map[*recordPool]bool{}
		for _, n := range tc.sys.Nodes {
			if !seen[n.pool] {
				seen[n.pool] = true
				total += len(n.pool.diff)
			}
		}
		return total
	}
	for _, kind := range []Kind{Base, GeNIMA} {
		short, long := pooled(kind, 4), pooled(kind, 16)
		if short == 0 || long != short {
			t.Errorf("%v: %d diff records pooled after 4 rounds, %d after 16; want equal and nonzero",
				kind, short, long)
		}
	}
}
