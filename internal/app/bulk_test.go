package app

import (
	"math/rand"
	"testing"
	"testing/quick"

	"genima/internal/core"
	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/stats"
	"genima/internal/topo"
)

// bulkApp round-trips data through the bulk helpers across pages.
type bulkApp struct {
	n    int
	seed int64
	fail string
}

func (a *bulkApp) Name() string { return "bulk" }
func (a *bulkApp) Ops() float64 { return 1 }

func (a *bulkApp) Setup(ws *Workspace) {
	ws.Alloc("f", 8*a.n, memory.RoundRobin)
	ws.Alloc("i", 4*a.n, memory.RoundRobin)
}

func (a *bulkApp) Run(ctx *Ctx) {
	if ctx.ID() != 0 {
		ctx.Barrier()
		return
	}
	ws := ctx.Workspace()
	rng := rand.New(rand.NewSource(a.seed))
	f := make([]float64, a.n)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	// Write at an unaligned element offset spanning pages, read back.
	off := rng.Intn(100)
	ctx.CopyInF64(ws.Region("f"), off, f[:a.n-off])
	back := make([]float64, a.n-off)
	ctx.CopyOutF64(ws.Region("f"), off, back)
	for i := range back {
		if back[i] != f[i] {
			a.fail = "float64 round trip"
			break
		}
	}
	iv := make([]int32, a.n)
	for i := range iv {
		iv[i] = rng.Int31()
	}
	ctx.CopyInI32(ws.Region("i"), 0, iv)
	ib := make([]int32, a.n)
	ctx.CopyOutI32(ws.Region("i"), 0, ib)
	for i := range ib {
		if ib[i] != iv[i] {
			a.fail = "int32 round trip"
			break
		}
	}
	ctx.Barrier()
}

func TestBulkRoundTripAcrossPages(t *testing.T) {
	prop := func(seed int64) bool {
		a := &bulkApp{n: 2000, seed: seed} // 16 KB: spans 4 pages
		cfg := testConfig()
		if _, _, err := RunSVM(cfg, core.GeNIMA, a); err != nil {
			t.Fatal(err)
		}
		return a.fail == ""
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// attributionApp checks that each Ctx operation charges the right
// breakdown category.
type attributionApp struct{}

func (a *attributionApp) Name() string { return "attr" }
func (a *attributionApp) Ops() float64 { return 1 }

func (a *attributionApp) Setup(ws *Workspace) {
	ws.Alloc("x", 4096*4, memory.RoundRobin)
}

func (a *attributionApp) Run(ctx *Ctx) {
	x := ctx.Workspace().Region("x")
	ctx.Compute(1000)
	ctx.SetF64(x, 512*ctx.ID()%1024, 1) // remote fault for most procs
	ctx.Lock(1)
	ctx.Unlock(1)
	ctx.Acquire(2)
	ctx.Release(2)
	ctx.Barrier()
}

func TestBreakdownAttribution(t *testing.T) {
	cfg := testConfig()
	res, _, err := RunSVM(cfg, core.Base, &attributionApp{})
	if err != nil {
		t.Fatal(err)
	}
	var sum stats.Breakdown
	for _, b := range res.Breakdowns {
		sum.Merge(b)
	}
	for _, c := range []stats.Category{stats.Compute, stats.Data, stats.Lock, stats.AcqRel, stats.Barrier} {
		if sum.T[c] == 0 {
			t.Errorf("category %v never charged", c)
		}
	}
}

func TestForEachSpanCoversExactly(t *testing.T) {
	cfg := topo.Default()
	ws := NewWorkspace(&cfg)
	ws.Alloc("r", 4*cfg.PageSize, memory.RoundRobin)
	ctx := NewCtx(0, 1, nil, NewNullBackend(ws), ws, &cfg, 0)
	prop := func(a, s uint16) bool {
		addr := int(a) % (3 * cfg.PageSize)
		size := int(s)%cfg.PageSize + 1
		covered := 0
		prevEnd := addr
		ok := true
		ctx.forEachSpan(addr, size, func(pg []byte, off, n, done int) {
			if done != covered {
				ok = false
			}
			if addr+done != prevEnd {
				ok = false
			}
			if off+n > len(pg) {
				ok = false
			}
			covered += n
			prevEnd = addr + done + n
		})
		return ok && covered == size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSuiteDeterminism(t *testing.T) {
	a := &sumApp{n: 4096}
	run := func() sim.Time {
		res, _, err := RunSVM(testConfig(), core.GeNIMA, a)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("elapsed differs across identical runs: %d vs %d", first, again)
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 0
	if _, _, err := RunSVM(cfg, core.Base, &sumApp{n: 256}); err == nil {
		t.Error("invalid config accepted by RunSVM")
	}
	if _, _, err := RunHW(cfg, &sumApp{n: 256}); err == nil {
		t.Error("invalid config accepted by RunHW")
	}
	if _, _, err := RunSeq(cfg, &sumApp{n: 256}); err == nil {
		t.Error("invalid config accepted by RunSeq")
	}
}

// barrierApp only synchronizes: under a deposit protocol every
// barrier is an all-to-all flag exchange, so the fabric is the busiest
// part of the run.
type barrierApp struct{ rounds int }

func (a *barrierApp) Name() string        { return "barrier" }
func (a *barrierApp) Ops() float64        { return 1 }
func (a *barrierApp) Setup(ws *Workspace) { ws.Alloc("x", 8, memory.RoundRobin) }

func (a *barrierApp) Run(ctx *Ctx) {
	for r := 0; r < a.rounds; r++ {
		ctx.Barrier()
	}
}

// TestUtilizationBounded requires every busy fraction to lie in [0,1].
// The clos2 leg covers multi-stage fabrics, where Switch must be the
// busiest single switch: each of its leaf stages sums to more than the
// run's length.
func TestUtilizationBounded(t *testing.T) {
	clos := testConfig()
	clos.Nodes, clos.ProcsPerNode = 16, 1
	clos.Topo, clos.SwitchRadix = topo.TopoClos2, 8
	for _, leg := range []struct {
		name string
		cfg  topo.Config
		kind core.Kind
		a    App
	}{
		{"xbar8", testConfig(), core.Base, &sumApp{n: 16384}},
		{"clos2", clos, core.DW, &barrierApp{rounds: 4}},
	} {
		res, _, err := RunSVM(leg.cfg, leg.kind, leg.a)
		if err != nil {
			t.Fatal(err)
		}
		u := res.Util
		for name, v := range map[string]float64{
			"firmware": u.Firmware, "pci": u.PCI, "link": u.Link, "switch": u.Switch,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%s: %s utilization = %v, want [0,1]", leg.name, name, v)
			}
		}
		if u.Firmware == 0 || u.PCI == 0 || u.Switch == 0 {
			t.Errorf("%s: no substrate activity recorded", leg.name)
		}
	}
}
