package nic

import (
	"testing"

	"genima/internal/sim"
	"genima/internal/topo"
)

// countingSink counts each node's completed barrier epochs and the
// released vectors that are not the epoch's expected maximum, and each
// time also notes every combine vector the node's NI owns.
type countingSink struct {
	sys  *System
	done []sim.Counter
	bad  int
	seen []map[*uint64]bool
}

func (s *countingSink) ColBarrierDone(node, seq int, vec []uint64) {
	for _, v := range vec {
		if v != uint64(seq+1) {
			s.bad++
			break
		}
	}
	c := s.sys.NIs[node].col
	for i := range c.ops {
		if v := c.ops[i].vec; v != nil {
			s.seen[node][&v[0]] = true
		}
	}
	for _, v := range c.vecFree {
		s.seen[node][&v[0]] = true
	}
	s.done[node].Add(1)
}

// TestCombineVectorsRecycled runs 16 tree-barrier epochs: an epoch's
// combine vector returns to its NI's free list when the epoch retires,
// so every NI reuses one vector rather than one per ring slot, no
// retired slot keeps one, and a reused vector still combines exactly.
func TestCombineVectorsRecycled(t *testing.T) {
	const epochs = 16
	eng := sim.NewEngine()
	cfg := topo.Default()
	cfg.Nodes = 8
	cfg.ProcsPerNode = 1
	cfg.CollectiveArity = 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(eng, &cfg)
	sink := &countingSink{sys: sys, done: make([]sim.Counter, cfg.Nodes), seen: make([]map[*uint64]bool, cfg.Nodes)}
	for i, ni := range sys.NIs {
		sink.seen[i] = map[*uint64]bool{}
		ni.EnableCollectives(cfg.CollectiveArity, sink)
	}
	for i, ni := range sys.NIs {
		i, ni := i, ni
		eng.Go("bar", func(p *sim.Proc) {
			vc := make([]uint64, cfg.Nodes)
			for seq := 0; seq < epochs; seq++ {
				vc[i] = uint64(seq + 1)
				ni.ColBarrierArrive(p, seq, vc)
				sink.done[i].WaitFor(p, uint64(seq+1))
			}
		})
	}
	eng.RunUntilQuiet()
	if sink.bad > 0 {
		t.Errorf("%d released vectors were not the epoch's element-wise max", sink.bad)
	}
	for i, ni := range sys.NIs {
		if got := sink.done[i].Value(); got != epochs {
			t.Fatalf("node %d completed %d of %d epochs", i, got, epochs)
		}
		if got := len(sink.seen[i]); got != 1 {
			t.Errorf("NI %d used %d distinct combine vectors over %d epochs, want 1", i, got, epochs)
		}
		for j := range ni.col.ops {
			if op := &ni.col.ops[j]; op.active || op.vec != nil {
				t.Errorf("NI %d slot %d: active=%v, holds vector=%v after every epoch retired",
					i, j, op.active, op.vec != nil)
			}
		}
	}
}
