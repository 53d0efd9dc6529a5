package app

import (
	"fmt"
	"strconv"

	"genima/internal/core"
	"genima/internal/hwdsm"
	"genima/internal/memory"
	"genima/internal/nic"
	"genima/internal/sim"
	"genima/internal/stats"
	"genima/internal/topo"
)

// Result is one run's outcome.
type Result struct {
	Label      string
	Procs      int
	Elapsed    sim.Time // max processor finish time (timed parallel section)
	Breakdowns []stats.Breakdown
	Avg        stats.Breakdown

	// SVM-only details (zero values otherwise).
	Acct         stats.SVMAccounting
	BarrierProto sim.Time // protocol share of barrier time, summed over leaders
	Monitor      *nic.Monitor
	Events       uint64
	// PostQueueStalls counts host sends that blocked on a full NI post
	// queue; PostQueueStallTime is the total time lost to those stalls
	// (the Barnes-spatial direct-diff effect of §3.3).
	PostQueueStalls    uint64
	PostQueueStallTime sim.Time
	// Faults aggregates fault-injection and reliable-delivery counters
	// (all zeros when fault injection is disabled).
	Faults stats.FaultReport
	// Util summarizes communication-substrate occupancy.
	Util Utilization
	// Latency merges the per-processor request-latency histograms of
	// serving workloads (empty for batch apps).
	Latency stats.LatencyRecorder
}

// Utilization reports busy fractions of the communication substrate
// over the run (max across nodes for the per-node devices), plus the
// largest backlog ever seen in an NI firmware queue.
type Utilization struct {
	Firmware    float64    // NI processor (the paper's 33 MHz LANai)
	PCI         float64    // host I/O bus
	Link        float64    // busiest link direction
	Switch      float64    // busiest single switch (the crossbar on xbar8)
	SwitchStage []sim.Time // per-stage summed switch busy time (len = fabric stages)
	MaxBacklog  sim.Time   // worst firmware-queue backlog observed
}

// Speedup computes seq.Elapsed / par.Elapsed.
func Speedup(seq, par *Result) float64 {
	if par.Elapsed == 0 {
		return 0
	}
	return float64(seq.Elapsed) / float64(par.Elapsed)
}

func memIntensityOf(a App) float64 {
	if m, ok := a.(MemIntensive); ok {
		return m.MemIntensity()
	}
	return 0
}

// RunSVM executes the app on the SVM protocol `kind` over cfg and
// returns the result plus the final workspace (home copies hold the
// authoritative output after the harness's trailing barrier).
func RunSVM(cfg topo.Config, kind core.Kind, a App) (*Result, *Workspace, error) {
	return RunSVMTraced(cfg, kind, a, nil)
}

// RunSVMTraced is RunSVM with a packet tracer installed on the NI
// firmware monitor: tracer receives every delivered packet. It is a
// thin wrapper over RunSVMControlled (see control.go), which carries
// the full run machinery.
func RunSVMTraced(cfg topo.Config, kind core.Kind, a App, tracer func(nic.TraceEvent)) (*Result, *Workspace, error) {
	var ctl *RunControl
	if tracer != nil {
		ctl = &RunControl{OnTrace: func(_ uint64, ev nic.TraceEvent) { tracer(ev) }}
	}
	return RunSVMControlled(cfg, kind, a, ctl)
}

func maxT(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// RunHW executes the app on the hardware-DSM (Origin-2000-like) model.
func RunHW(cfg topo.Config, a App) (*Result, *Workspace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngine()
	defer eng.Release()
	ws := NewWorkspace(&cfg)
	a.Setup(ws)
	sys := hwdsm.New(eng, &cfg, ws.Space)

	n := cfg.NumProcs()
	ctxs := make([]*Ctx, n)
	finish := make([]sim.Time, n)
	finished := 0
	for i := 0; i < n; i++ {
		i := i
		be := sys.Backend(i)
		ctxs[i] = NewCtx(i, n, nil, be, ws, &cfg, 0)
		eng.Go(a.Name()+"-hw"+strconv.Itoa(i), func(p *sim.Proc) {
			ctxs[i].p = p
			a.Run(ctxs[i])
			ctxs[i].Barrier()
			finish[i] = p.Now()
			finished++
		})
	}
	eng.RunUntilQuiet()
	if finished != n {
		return nil, nil, fmt.Errorf("app %s on hwdsm: %d/%d processors finished", a.Name(), finished, n)
	}
	res := collect("Origin2000", ctxs, finish)
	res.Events = eng.Events()
	return res, ws, nil
}

// RunSeq executes the app on a single zero-overhead processor: the
// sequential reference (for validation) and the uniprocessor time (for
// speedups, per the SPLASH-2 methodology).
func RunSeq(cfg topo.Config, a App) (*Result, *Workspace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngine()
	defer eng.Release()
	ws := NewWorkspace(&cfg)
	a.Setup(ws)

	ctx := NewCtx(0, 1, nil, NewNullBackend(ws), ws, &cfg, 0)
	var finish sim.Time
	finished := 0
	eng.Go(a.Name()+"-seq", func(p *sim.Proc) {
		ctx.p = p
		a.Run(ctx)
		finish = p.Now()
		finished++
	})
	eng.RunUntilQuiet()
	if finished != 1 {
		return nil, nil, fmt.Errorf("app %s sequential run did not finish", a.Name())
	}
	return collect("seq", []*Ctx{ctx}, []sim.Time{finish}), ws, nil
}

func collect(label string, ctxs []*Ctx, finish []sim.Time) *Result {
	res := &Result{Label: label, Procs: len(ctxs)}
	for i, c := range ctxs {
		res.Breakdowns = append(res.Breakdowns, c.Breakdown)
		res.BarrierProto += c.BarrierProto
		res.Latency.Merge(&c.Latency)
		if finish[i] > res.Elapsed {
			res.Elapsed = finish[i]
		}
	}
	res.Avg = stats.Average(res.Breakdowns)
	return res
}

// Validate compares a parallel run's output against the sequential
// reference: exact bytes by default, or the app's Comparer.
func Validate(a App, par, seq *Workspace) error {
	if c, ok := a.(Comparer); ok {
		return c.Compare(par, seq)
	}
	return CompareExact(par, seq)
}

// CompareExact checks every region byte-for-byte.
func CompareExact(par, seq *Workspace) error {
	pr, sr := par.Regions(), seq.Regions()
	if len(pr) != len(sr) {
		return fmt.Errorf("region count mismatch: %d vs %d", len(pr), len(sr))
	}
	for ri, r := range pr {
		if err := compareRegionBytes(par, seq, r, sr[ri]); err != nil {
			return err
		}
	}
	return nil
}

func compareRegionBytes(par, seq *Workspace, r, s memory.Region) error {
	ps := par.Cfg.PageSize
	for off := 0; off < r.Size; off += ps {
		pp := par.Space.HomeCopy((r.Base + off) / ps)
		sp := seq.Space.HomeCopy((s.Base + off) / ps)
		for i := range pp {
			if pp[i] != sp[i] {
				return fmt.Errorf("region %q differs at byte %d: %#x vs %#x", r.Name, off+i, pp[i], sp[i])
			}
		}
	}
	return nil
}

// CompareF64Tolerance compares a float64 region element-wise with a
// relative tolerance — for apps whose parallel reduction order differs.
func CompareF64Tolerance(par, seq *Workspace, name string, n int, tol float64) error {
	r := par.Region(name)
	s := seq.Region(name)
	for i := 0; i < n; i++ {
		a, b := par.F64(r, i), seq.F64(s, i)
		diff := a - b
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if b > 1 || b < -1 {
			if b < 0 {
				scale = -b
			} else {
				scale = b
			}
		}
		if diff > tol*scale {
			return fmt.Errorf("region %q element %d: %g vs %g (tol %g)", name, i, a, b, tol)
		}
	}
	return nil
}
