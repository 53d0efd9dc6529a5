package hwdsm

import (
	"testing"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/topo"
)

func build(t *testing.T) (*sim.Engine, *System, *topo.Config) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := topo.Default()
	space := memory.NewSpace(cfg.PageSize, cfg.WordSize, cfg.Nodes)
	space.Alloc("a", 16*cfg.PageSize, memory.RoundRobin)
	return eng, New(eng, &cfg, space), &cfg
}

func TestFirstTouchCostsMissSecondIsFree(t *testing.T) {
	eng, s, _ := build(t)
	be := s.Backend(0)
	var first, second sim.Time
	eng.Go("p", func(p *sim.Proc) {
		t0 := p.Now()
		be.EnsureRead(p, 0, LineSize)
		first = p.Now() - t0
		t0 = p.Now()
		be.EnsureRead(p, 0, LineSize)
		second = p.Now() - t0
	})
	eng.RunUntilQuiet()
	if first == 0 {
		t.Error("first touch cost nothing")
	}
	if second != 0 {
		t.Errorf("cache hit cost %d", second)
	}
}

func TestRemoteDirtierThanLocal(t *testing.T) {
	eng, s, cfg := build(t)
	local := s.Backend(0)                   // node 0
	remote := s.Backend(cfg.NumProcs() - 1) // last node
	// Page 0 is homed at node 0.
	var localCost, remoteCost sim.Time
	eng.Go("l", func(p *sim.Proc) {
		t0 := p.Now()
		local.EnsureRead(p, 0, LineSize)
		localCost = p.Now() - t0
	})
	eng.Go("r", func(p *sim.Proc) {
		t0 := p.Now()
		remote.EnsureRead(p, LineSize, LineSize) // different line, same page
		remoteCost = p.Now() - t0
	})
	eng.RunUntilQuiet()
	if remoteCost <= localCost {
		t.Errorf("remote miss (%d) not above local miss (%d)", remoteCost, localCost)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	eng, s, _ := build(t)
	a, b := s.Backend(0), s.Backend(1)
	var rereadCost sim.Time
	eng.Go("seq", func(p *sim.Proc) {
		a.EnsureRead(p, 0, LineSize)
		b.EnsureRead(p, 0, LineSize)
		// b writes: invalidates a.
		b.EnsureWrite(p, 0, LineSize)
		t0 := p.Now()
		a.EnsureRead(p, 0, LineSize) // dirty miss (3-hop)
		rereadCost = p.Now() - t0
	})
	eng.RunUntilQuiet()
	if rereadCost < s.costs.DirtyMiss {
		t.Errorf("re-read after remote write cost %d, want >= dirty miss %d", rereadCost, s.costs.DirtyMiss)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	eng, s, _ := build(t)
	in := 0
	bad := 0
	for i := 0; i < 8; i++ {
		be := s.Backend(i)
		eng.Go("p", func(p *sim.Proc) {
			for k := 0; k < 5; k++ {
				be.Lock(p, 3)
				in++
				if in > 1 {
					bad++
				}
				p.Sleep(sim.Micro(3))
				in--
				be.Unlock(p, 3)
			}
		})
	}
	eng.RunUntilQuiet()
	if bad != 0 {
		t.Errorf("%d mutual exclusion violations", bad)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng, s, cfg := build(t)
	n := cfg.NumProcs()
	arrived := 0
	violations := 0
	for i := 0; i < n; i++ {
		i := i
		be := s.Backend(i)
		eng.Go("p", func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * sim.Micro(5))
			arrived++
			be.Barrier(p)
			if arrived != n {
				violations++
			}
			be.Barrier(p)
		})
	}
	eng.RunUntilQuiet()
	if violations != 0 {
		t.Errorf("%d processors passed the barrier early", violations)
	}
}

func TestBytesIsCoherentMemory(t *testing.T) {
	eng, s, _ := build(t)
	a, b := s.Backend(0), s.Backend(5)
	var got byte
	eng.Go("seq", func(p *sim.Proc) {
		a.EnsureWrite(p, 100, 1)
		a.Bytes(0)[100] = 42
		b.EnsureRead(p, 100, 1)
		got = b.Bytes(0)[100]
	})
	eng.RunUntilQuiet()
	if got != 42 {
		t.Errorf("read %d through the other processor, want 42", got)
	}
}

func TestMissCounterAdvances(t *testing.T) {
	eng, s, _ := build(t)
	be := s.Backend(0)
	eng.Go("p", func(p *sim.Proc) {
		be.EnsureRead(p, 0, 4*LineSize)
	})
	eng.RunUntilQuiet()
	if s.Misses != 4 {
		t.Errorf("misses = %d, want 4", s.Misses)
	}
}
