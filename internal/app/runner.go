package app

import (
	"fmt"
	"strconv"
	"sync/atomic"

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
	Acct    stats.SVMAccounting
	Monitor *nic.Monitor
	Events  uint64
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
	Firmware    float64    `json:"firmware"`                  // NI processor (the paper's 33 MHz LANai)
	PCI         float64    `json:"pci"`                       // host I/O bus
	Link        float64    `json:"link"`                      // busiest link direction
	Switch      float64    `json:"switch"`                    // busiest single switch (the crossbar on xbar8)
	SwitchStage []sim.Time `json:"switch_stage_ns,omitempty"` // per-stage summed switch busy time (len = fabric stages)
	MaxBacklog  sim.Time   `json:"max_backlog_ns"`            // worst firmware-queue backlog observed
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
	return RunSVMControlled(cfg, kind, a, nil)
}

// runProcs is the process loop every machine model shares. It gives
// processor i a context over bes[i] and a process on its node's
// logical process (the engine itself in a serial run) that runs the
// app and then the trailing barrier, which flushes all diffs to the
// homes. It calls drive to run the engine and collects the result
// under label, with the engine's event count (a cluster run overrides
// it with the whole cluster's). The error reports processors that did
// not finish; a run halted on purpose ignores it.
func runProcs(cfg *topo.Config, eng *sim.Engine, ws *Workspace, a App, label string, bes []Backend, drive func()) (*Result, error) {
	n := len(bes)
	ctxs := make([]*Ctx, n)
	finish := make([]sim.Time, n)
	var finished atomic.Int32
	mi := memIntensityOf(a)
	for i, be := range bes {
		ctxs[i] = NewCtx(i, n, nil, be, ws, cfg, mi)
		eng.LPNode(i/cfg.ProcsPerNode).Go(a.Name()+"/"+label+"/"+strconv.Itoa(i), func(p *sim.Proc) {
			ctxs[i].p = p
			a.Run(ctxs[i])
			ctxs[i].Barrier()
			finish[i] = p.Now()
			finished.Add(1)
		})
	}
	drive()
	res := &Result{Label: label, Procs: n}
	for i, c := range ctxs {
		res.Breakdowns = append(res.Breakdowns, c.Breakdown)
		res.Latency.Merge(&c.Latency)
		res.Elapsed = max(res.Elapsed, finish[i])
	}
	res.Avg = stats.Average(res.Breakdowns)
	res.Events = eng.Events()
	if got := int(finished.Load()); got != n {
		return res, fmt.Errorf("app %s on %s: %d/%d processors finished (deadlock)", a.Name(), label, got, n)
	}
	return res, nil
}

// RunHW executes the app on the hardware-DSM (Origin-2000-like) model.
func RunHW(cfg topo.Config, a App) (*Result, *Workspace, error) {
	return runSerial(cfg, a, "Origin2000", func(eng *sim.Engine, ws *Workspace) []Backend {
		sys := hwdsm.New(eng, ws.Cfg, ws.Space)
		bes := make([]Backend, ws.Cfg.NumProcs())
		for i := range bes {
			bes[i] = sys.Backend(i)
		}
		return bes
	})
}

// RunSeq executes the app on a single zero-overhead processor: the
// sequential reference (for validation) and the uniprocessor time (for
// speedups, per the SPLASH-2 methodology).
func RunSeq(cfg topo.Config, a App) (*Result, *Workspace, error) {
	return runSerial(cfg, a, "seq", func(_ *sim.Engine, ws *Workspace) []Backend {
		return []Backend{NewNullBackend(ws)}
	})
}

// runSerial runs the app on one serial engine over the backends that
// backends builds from the set-up workspace.
func runSerial(cfg topo.Config, a App, label string, backends func(*sim.Engine, *Workspace) []Backend) (*Result, *Workspace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngine()
	defer eng.Release()
	ws := NewWorkspace(&cfg)
	a.Setup(ws)
	res, err := runProcs(&cfg, eng, ws, a, label, backends(eng, ws), func() { eng.RunUntilQuiet() })
	if err != nil {
		return nil, nil, err
	}
	return res, ws, nil
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
