package app

import (
	"testing"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/topo"
)

// countingBackend is the null backend with its ensure calls counted and
// its granule set by the test. With stall set, every ensure yields.
type countingBackend struct {
	Backend
	eng           *sim.Engine
	granule       int
	reads, writes int
	stall         bool
}

func (b *countingBackend) EnsureRead(p *sim.Proc, addr, size int) {
	b.reads++
	b.maybeStall(p)
}

func (b *countingBackend) EnsureWrite(p *sim.Proc, addr, size int) {
	b.writes++
	b.maybeStall(p)
}

func (b *countingBackend) maybeStall(p *sim.Proc) {
	if b.stall {
		queueEvent(b.eng, p.Now()+1)
		p.Sleep(2)
	}
}

func (b *countingBackend) Granule() int { return b.granule }

type nopHandler struct{}

func (nopHandler) Run(_, _ sim.Time) {}

// queueEvent schedules an empty event at t, so that a Sleep past t must
// yield to it rather than advance the clock in place.
func queueEvent(eng *sim.Engine, t sim.Time) { eng.AtHandler(t, t, nopHandler{}) }

// runTLB runs body as the only processor of a null-backed context over
// a 40-page float64 region, with the backend's ensure calls counted.
// The context starts with its TLB allocated, as after its second miss
// within one stamp.
func runTLB(t testing.TB, granule int, body func(c *Ctx, be *countingBackend, r memory.Region)) {
	runCold(t, granule, func(c *Ctx, be *countingBackend, r memory.Region) {
		c.tlb = new([tlbSize]tlbEntry)
		body(c, be, r)
	})
}

// runCold is runTLB with the TLB not yet allocated.
func runCold(t testing.TB, granule int, body func(c *Ctx, be *countingBackend, r memory.Region)) {
	cfg := topo.Default()
	cfg.Nodes, cfg.ProcsPerNode = 1, 1
	ws := NewWorkspace(&cfg)
	r := ws.Alloc("v", 40*cfg.PageSize, memory.Blocked)
	eng := sim.NewEngine()
	defer eng.Release()
	be := &countingBackend{Backend: NewNullBackend(ws), eng: eng, granule: granule}
	c := NewCtx(0, 1, nil, be, ws, &cfg, 0)
	done := false
	eng.Go("tlb", func(p *sim.Proc) {
		c.p = p
		body(c, be, r)
		done = true
	})
	eng.RunUntilQuiet()
	if !done {
		t.Fatal("test process did not finish")
	}
}

func wantEnsures(t *testing.T, be *countingBackend, reads, writes int, when string) {
	t.Helper()
	if be.reads != reads || be.writes != writes {
		t.Errorf("%s: %d reads, %d writes ensured; want %d, %d", when, be.reads, be.writes, reads, writes)
	}
}

func TestTLBHitSkipsBackend(t *testing.T) {
	runTLB(t, 4096, func(c *Ctx, be *countingBackend, r memory.Region) {
		c.SetF64(r, 3, 1.5)
		wantEnsures(t, be, 0, 1, "first store")
		if got := c.F64(r, 3); got != 1.5 {
			t.Errorf("load after store = %v, want 1.5", got)
		}
		c.AddF64(r, 4, 2)
		wantEnsures(t, be, 0, 1, "same page after a store")

		c.F64(r, 600) // another page: a load fill grants loads only
		c.F64(r, 601)
		wantEnsures(t, be, 1, 1, "two loads on a fresh page")
		c.SetF64(r, 601, 3)
		c.SetI64(r, 602, 4)
		wantEnsures(t, be, 1, 2, "stores after a load fill")
		if got := c.I64(r, 602); got != 4 {
			t.Errorf("I64 = %d, want 4", got)
		}
	})
}

func TestTLBSyncCallsInvalidate(t *testing.T) {
	syncs := []struct {
		name string
		call func(c *Ctx)
	}{
		{"Lock", func(c *Ctx) { c.Lock(1) }},
		{"Unlock", func(c *Ctx) { c.Unlock(1) }},
		{"Barrier", func(c *Ctx) { c.Barrier() }},
	}
	for _, s := range syncs {
		t.Run(s.name, func(t *testing.T) {
			runTLB(t, 4096, func(c *Ctx, be *countingBackend, r memory.Region) {
				c.F64(r, 0)
				c.SetF64(r, 700, 1)
				y := c.p.Yields()
				s.call(c)
				if c.p.Yields() != y {
					t.Fatalf("%s yielded; the test needs a sync call that does not", s.name)
				}
				c.F64(r, 0)
				c.SetF64(r, 700, 2)
				wantEnsures(t, be, 2, 2, "accesses after "+s.name)
			})
		})
	}
}

func TestTLBYieldInvalidates(t *testing.T) {
	runTLB(t, 4096, func(c *Ctx, be *countingBackend, r memory.Region) {
		c.F64(r, 0)
		y := c.p.Yields()
		queueEvent(be.eng, c.Now()+1)
		c.Sleep(10) // another event is due first: the process yields
		if c.p.Yields() == y {
			t.Fatal("Sleep past a queued event did not yield")
		}
		c.F64(r, 0)
		wantEnsures(t, be, 2, 0, "load after a yielding Sleep")

		y = c.p.Yields()
		c.Sleep(10) // nothing else queued: the clock advances in place
		if c.p.Yields() != y {
			t.Fatal("Sleep with an empty queue yielded")
		}
		c.F64(r, 0)
		wantEnsures(t, be, 2, 0, "load after an in-place Sleep")
	})
}

// An ensure that yields may have let the granule's state move again, so
// its fill must not serve the next access.
func TestTLBYieldingEnsureNotCached(t *testing.T) {
	runTLB(t, 4096, func(c *Ctx, be *countingBackend, r memory.Region) {
		be.stall = true
		c.F64(r, 0)
		c.F64(r, 0)
		wantEnsures(t, be, 2, 0, "loads after a yielding ensure")
		be.stall = false
		c.F64(r, 0)
		c.F64(r, 0)
		wantEnsures(t, be, 3, 0, "loads after a non-yielding ensure")
	})
}

func TestTLBKeyedByGranule(t *testing.T) {
	runTLB(t, 128, func(c *Ctx, be *countingBackend, r memory.Region) {
		c.F64(r, 0)
		c.F64(r, 15) // same 128-byte line
		c.F64(r, 16) // next line, same page
		wantEnsures(t, be, 2, 0, "two lines of one page")
		c.F64(r, tlbSize*16) // the line tlbSize lines on shares slot 0
		c.F64(r, 0)
		wantEnsures(t, be, 4, 0, "a conflicting line evicts")
	})
}

// A processor that misses once per stamp could never hit, so it gets no
// table; the second miss within one stamp allocates it.
func TestTLBAllocatedAtSecondMissInOneStamp(t *testing.T) {
	runCold(t, 4096, func(c *Ctx, be *countingBackend, r memory.Region) {
		for round := 0; round < 3; round++ {
			c.SetI64(r, 0, int64(round))
			c.Barrier()
		}
		if c.tlb != nil {
			t.Fatal("one access per stamp allocated a TLB")
		}
		c.F64(r, 0)
		if c.tlb != nil {
			t.Fatal("the first miss of a stamp allocated a TLB")
		}
		c.F64(r, 0)
		c.F64(r, 0)
		if c.tlb == nil {
			t.Fatal("the second miss of a stamp did not allocate a TLB")
		}
		wantEnsures(t, be, 2, 3, "accesses before and after the TLB exists")
	})
}

func TestTLBHitAllocatesNothing(t *testing.T) {
	runTLB(t, 4096, func(c *Ctx, be *countingBackend, r memory.Region) {
		c.SetF64(r, 0, 1)
		allocs := testing.AllocsPerRun(100, func() {
			c.SetF64(r, 1, c.F64(r, 0)+c.F64(r, 1))
			c.SetI32(r, 5, c.I32(r, 5)+1)
		})
		if allocs != 0 {
			t.Errorf("TLB hits allocate %v times per run, want 0", allocs)
		}
		wantEnsures(t, be, 0, 1, "hits under AllocsPerRun")
	})
}

var sinkF64 float64

// BenchmarkCtxRead times one F64 load: "hit" on a page already ensured,
// "miss" alternating two pages that share a TLB slot, so every load
// takes the backend path (on the zero-cost null backend).
func BenchmarkCtxRead(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stride int // elements between the two alternated addresses
	}{{"hit", 0}, {"miss", tlbSize * 4096 / 8}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			runTLB(b, 4096, func(c *Ctx, _ *countingBackend, r memory.Region) {
				c.F64(r, 0)
				s := 0.0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s += c.F64(r, (i&1)*bc.stride)
				}
				sinkF64 = s
			})
		})
	}
}

// BenchmarkCtxWrite is BenchmarkCtxRead for SetF64 stores.
func BenchmarkCtxWrite(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stride int
	}{{"hit", 0}, {"miss", tlbSize * 4096 / 8}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			runTLB(b, 4096, func(c *Ctx, _ *countingBackend, r memory.Region) {
				c.SetF64(r, 0, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.SetF64(r, (i&1)*bc.stride, float64(i))
				}
			})
		})
	}
}
