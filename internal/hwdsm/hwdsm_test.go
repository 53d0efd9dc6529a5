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
		be.Ensure(p, 0, LineSize, false)
		first = p.Now() - t0
		t0 = p.Now()
		be.Ensure(p, 0, LineSize, false)
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
		local.Ensure(p, 0, LineSize, false)
		localCost = p.Now() - t0
	})
	eng.Go("r", func(p *sim.Proc) {
		t0 := p.Now()
		remote.Ensure(p, LineSize, LineSize, false) // different line, same page
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
		a.Ensure(p, 0, LineSize, false)
		b.Ensure(p, 0, LineSize, false)
		// b writes: invalidates a.
		b.Ensure(p, 0, LineSize, true)
		t0 := p.Now()
		a.Ensure(p, 0, LineSize, false) // dirty miss (3-hop)
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
		a.Ensure(p, 100, 1, true)
		a.Bytes(0)[100] = 42
		b.Ensure(p, 100, 1, false)
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
		be.Ensure(p, 0, 4*LineSize, false)
	})
	eng.RunUntilQuiet()
	if s.Misses != 4 {
		t.Errorf("misses = %d, want 4", s.Misses)
	}
}

// TestBarrierEpochsDoNotOverlap runs every processor through 50
// barriers with a different sleep before each arrival: a processor
// that leaves epoch e must find all n arrivals of e counted.
func TestBarrierEpochsDoNotOverlap(t *testing.T) {
	eng, s, cfg := build(t)
	n := cfg.NumProcs()
	const epochs = 50
	var arrived [epochs]int
	early := 0
	for i := 0; i < n; i++ {
		i := i
		be := s.Backend(i)
		eng.Go("p", func(p *sim.Proc) {
			for e := 0; e < epochs; e++ {
				p.Sleep(sim.Time((7*i+3*e)%11+1) * sim.Micro(1))
				arrived[e]++
				be.Barrier(p)
				if arrived[e] != n {
					early++
				}
			}
		})
	}
	eng.RunUntilQuiet()
	if early != 0 {
		t.Errorf("%d barrier exits saw fewer than %d arrivals", early, n)
	}
	for e, got := range arrived {
		if got != n {
			t.Fatalf("epoch %d: %d arrivals, want %d", e, got, n)
		}
	}
}

// TestLockHandsOffInFIFOOrder holds a lock while the other processors
// request it at staggered times, latest ID first: each hand-off must
// go to the longest waiter, so they acquire in request order.
func TestLockHandsOffInFIFOOrder(t *testing.T) {
	eng, s, cfg := build(t)
	n := cfg.NumProcs()
	var order []int
	holder := s.Backend(0)
	eng.Go("holder", func(p *sim.Proc) {
		holder.Lock(p, 7)
		p.Sleep(sim.Micro(100))
		holder.Unlock(p, 7)
	})
	for i := 1; i < n; i++ {
		i := i
		be := s.Backend(i)
		eng.Go("p", func(p *sim.Proc) {
			p.Sleep(sim.Time(n-i) * sim.Micro(1))
			be.Lock(p, 7)
			order = append(order, i)
			p.Sleep(sim.Micro(3))
			be.Unlock(p, 7)
		})
	}
	eng.RunUntilQuiet()
	if len(order) != n-1 {
		t.Fatalf("%d acquires completed, want %d", len(order), n-1)
	}
	for k, id := range order {
		if want := n - 1 - k; id != want {
			t.Fatalf("acquire order %v, want processors %d down to 1", order, n-1)
		}
	}
}

// TestEnsureChargesEachCase pins the cost and the Misses count of each
// case of the directory model, one fresh machine per case, all on line
// 0 (page 0, homed at node 0). Processors 0–2 sit on node 0; the last
// processor sits on the last node.
func TestEnsureChargesEachCase(t *testing.T) {
	type op struct {
		proc  int
		store bool
	}
	c, cfg := DefaultCosts(), topo.Default()
	remote := cfg.NumProcs() - 1
	cases := []struct {
		name   string
		setup  []op
		do     op
		cost   sim.Time
		misses uint64
	}{
		{"load miss, local home", nil, op{0, false}, c.LocalMiss, 1},
		{"load miss, remote home", nil, op{remote, false}, c.RemoteMiss, 1},
		{"load hit", []op{{0, false}}, op{0, false}, 0, 0},
		{"load of a line dirty elsewhere", []op{{1, true}}, op{0, false}, c.DirtyMiss, 1},
		{"store after that load wrote the line back", []op{{1, true}, {0, false}}, op{1, true}, c.InvalBase + c.PerSharer, 1},
		{"store to an owned line", []op{{0, true}}, op{0, true}, 0, 0},
		{"store upgrade with 2 other sharers", []op{{0, false}, {1, false}, {2, false}}, op{0, true}, c.InvalBase + 2*c.PerSharer, 1},
		{"store miss with 2 sharers", []op{{1, false}, {2, false}}, op{0, true}, c.LocalMiss + c.InvalBase + 2*c.PerSharer, 1},
		{"store to a line dirty elsewhere", []op{{1, true}}, op{0, true}, c.DirtyMiss + c.InvalBase + c.PerSharer, 1},
	}
	for _, tc := range cases {
		eng, s, _ := build(t)
		ensure := func(p *sim.Proc, o op) { s.Backend(o.proc).Ensure(p, 0, LineSize, o.store) }
		var cost sim.Time
		var misses uint64
		eng.Go("p", func(p *sim.Proc) {
			for _, o := range tc.setup {
				ensure(p, o)
			}
			t0, m0 := p.Now(), s.Misses
			ensure(p, tc.do)
			cost, misses = p.Now()-t0, s.Misses-m0
		})
		eng.RunUntilQuiet()
		if cost != tc.cost || misses != tc.misses {
			t.Errorf("%s: cost %d, misses %d; want %d, %d", tc.name, cost, misses, tc.cost, tc.misses)
		}
	}
}
