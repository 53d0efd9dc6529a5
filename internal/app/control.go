package app

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"genima/internal/core"
	"genima/internal/nic"
	"genima/internal/sim"
	"genima/internal/topo"
)

// ErrInterrupted is returned (wrapped with run context) by
// RunSVMControlled when a control hook halted the run before the
// application finished. The partial Result is still returned alongside
// it: its counters are valid up to the halt point.
var ErrInterrupted = errors.New("run interrupted by controller")

// Boundary is a consistent cut of a running simulation, handed to
// RunControl hooks. It is only valid during the hook call: the hooks
// run in deterministic single-threaded contexts (inline with serial
// event execution, or at a cluster barrier), and the simulation resumes
// as soon as the hook returns.
type Boundary struct {
	TraceEvents uint64   // trace events emitted so far (the cut ordinal)
	SimTime     sim.Time // virtual clock at the cut
	Events      uint64   // engine events executed at the cut

	digest func() uint64
}

// StateDigest computes the live-state fingerprint at this cut: engine/LP
// heaps and clocks, NI pools and reliable-delivery flows, protocol
// tables and process queues, page contents, fault-stream cursors. It walks
// the whole simulator state, so call it only when the digest is
// actually wanted (checkpoint writes, verification cuts). The value is
// comparable only between runs in the same execution mode — a parallel
// run's boundary hooks run at a barrier, after its LPs have run ahead
// to the round horizon, so its live state at a given trace ordinal
// legitimately differs from a serial run's.
func (b *Boundary) StateDigest() uint64 { return b.digest() }

// RunControl hooks a run's trace stream for checkpointing, streaming
// stats, and graceful shutdown. All fields are optional.
type RunControl struct {
	// OnTrace receives every delivered packet with its 0-based ordinal.
	// Restore paths use the ordinal to suppress re-emission of an
	// already-output prefix.
	OnTrace func(idx uint64, ev nic.TraceEvent)

	// OnBoundary runs after every BoundaryEvery-th trace event.
	// Returning false halts the run: the Result comes back partial with
	// ErrInterrupted. Signal handlers and rolling-checkpoint writers
	// live here — the hook runs at a deterministic cut, never from a
	// signal goroutine.
	BoundaryEvery uint64
	OnBoundary    func(b *Boundary) bool

	// OnVerify runs once, when the trace ordinal reaches VerifyAt — the
	// restore path's "did the replay reproduce the checkpointed cut"
	// hook. A non-nil error halts the run and is returned verbatim.
	VerifyAt uint64
	OnVerify func(b *Boundary) error
}

func (ctl *RunControl) active() bool {
	return ctl != nil && (ctl.OnTrace != nil ||
		(ctl.BoundaryEvery > 0 && ctl.OnBoundary != nil) ||
		(ctl.VerifyAt > 0 && ctl.OnVerify != nil))
}

// RunSVMControlled is RunSVMTraced with full run control: a tracer that
// sees ordinals, periodic boundary callbacks at deterministic cuts, a
// one-shot verification cut, and graceful halt. It is the engine under
// checkpoint/restore, soak mode, and signal-safe shutdown.
func RunSVMControlled(cfg topo.Config, kind core.Kind, a App, ctl *RunControl) (*Result, *Workspace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	// Intra-run parallelism: with more than one worker and more than one
	// node, the run is partitioned into shard-granular logical processes
	// under a conservative PDES cluster (one node shard per worker,
	// clamped to Nodes by NewCluster, plus the fabric LP). The serial
	// path builds no cluster at all, so it is exactly the engine the
	// goldens were recorded on. Nodes talk to other nodes only through
	// fabric links and switches (TransferCross/RouteCross in
	// internal/network), and NI-local timers stay on their own LP, so
	// every cross-LP send honours the lookaheads below.
	var cl *sim.Cluster
	var eng *sim.Engine
	if cfg.IntraRunWorkers > 1 && cfg.Nodes > 1 {
		nodeLA, fabLA := cfg.Lookaheads()
		cl = sim.NewCluster(cfg.Nodes, cfg.IntraRunWorkers, cfg.IntraRunWorkers, nodeLA, fabLA)
		eng = cl.Main()
		defer cl.Release()
	} else {
		eng = sim.NewEngine()
		defer eng.Release()
	}
	ws := NewWorkspace(&cfg)
	a.Setup(ws)
	sys := core.New(eng, &cfg, kind, ws.Space)

	// Control plumbing. The tracer below runs only in single-threaded
	// contexts: inline during serial (and lone-mode) event execution,
	// or on the Run goroutine at a cluster barrier while the worker
	// pool is parked — so reading cross-LP state (Events, Now, digests)
	// is safe, and halting is an ordinary flag-and-stop.
	var traceIdx uint64
	var verifyErr error
	var interrupted bool
	if ctl.active() {
		halt := func() {
			interrupted = true
			if cl != nil {
				cl.Stop()
			} else {
				eng.Stop()
			}
		}
		digest := func() uint64 {
			d := sim.NewDigest()
			if cl != nil {
				cl.DigestInto(d)
			} else {
				eng.DigestInto(d)
			}
			sys.DigestInto(d)
			sys.Layer.NIs().DigestInto(d)
			return d.Sum()
		}
		cut := func() *Boundary {
			b := &Boundary{TraceEvents: traceIdx, digest: digest}
			if cl != nil {
				b.SimTime, b.Events = cl.Now(), cl.Events()
			} else {
				b.SimTime, b.Events = eng.Now(), eng.Events()
			}
			return b
		}
		sys.Layer.Monitor().Tracer = func(ev nic.TraceEvent) {
			if interrupted {
				// Barrier defer replay may still commit a few records
				// after the halting hook; they belong past the cut and
				// must not reach the controller.
				return
			}
			idx := traceIdx
			traceIdx++
			if ctl.OnTrace != nil {
				ctl.OnTrace(idx, ev)
			}
			if ctl.OnVerify != nil && ctl.VerifyAt > 0 && traceIdx == ctl.VerifyAt {
				if err := ctl.OnVerify(cut()); err != nil {
					verifyErr = err
					halt()
					return
				}
			}
			if ctl.OnBoundary != nil && ctl.BoundaryEvery > 0 && traceIdx%ctl.BoundaryEvery == 0 {
				if !ctl.OnBoundary(cut()) {
					halt()
				}
			}
		}
	}
	sys.Start()

	n := cfg.NumProcs()
	ctxs := make([]*Ctx, n)
	finish := make([]sim.Time, n)
	var finished int32
	mi := memIntensityOf(a)
	for i := 0; i < n; i++ {
		i := i
		nd, cpu := i/cfg.ProcsPerNode, i%cfg.ProcsPerNode
		be := NewSVMBackend(sys, nd, cpu)
		ctxs[i] = NewCtx(i, n, nil, be, ws, &cfg, mi)
		// Each simulated processor lives on its node's logical process
		// (LPNode is the engine itself in a serial run).
		eng.LPNode(nd).Go(a.Name()+"-p"+strconv.Itoa(i), func(p *sim.Proc) {
			ctxs[i].p = p
			a.Run(ctxs[i])
			ctxs[i].Barrier() // flush all diffs to the homes
			finish[i] = p.Now()
			atomic.AddInt32(&finished, 1)
		})
	}
	if cl != nil {
		cl.Run()
	} else {
		eng.RunUntilQuiet()
	}
	if verifyErr != nil {
		return nil, nil, verifyErr
	}
	if !interrupted && int(finished) != n {
		return nil, nil, fmt.Errorf("app %s on %v: %d/%d processors finished (protocol deadlock)", a.Name(), kind, finished, n)
	}
	res := collect(kind.String(), ctxs, finish)
	res.Acct = sys.Accounting()
	res.Monitor = sys.Layer.Monitor()
	if cl != nil {
		res.Events = cl.Events()
	} else {
		res.Events = eng.Events()
	}
	nis := sys.Layer.NIs()
	frac := func(busy sim.Time) float64 {
		if res.Elapsed == 0 {
			return 0
		}
		return float64(busy) / float64(res.Elapsed)
	}
	for i, ni := range nis.NIs {
		res.PostQueueStalls += ni.PostQueue.Blocked
		res.PostQueueStallTime += ni.PostQueue.BlockedTime
		res.Util.Firmware = max(res.Util.Firmware, frac(ni.Firmware.BusyTime))
		res.Util.PCI = max(res.Util.PCI, frac(ni.PCI.BusyTime))
		res.Util.Link = max(res.Util.Link,
			frac(nis.Fabric.Out[i].Stats().BusyTime), frac(nis.Fabric.In[i].Stats().BusyTime))
		res.Util.MaxBacklog = maxT(res.Util.MaxBacklog, ni.Firmware.MaxQueued)
	}
	for _, sw := range nis.Fabric.Switches {
		res.Util.Switch = max(res.Util.Switch, frac(sw.Stats().BusyTime))
	}
	res.Util.SwitchStage = nis.Fabric.StageBusy()
	res.Faults = nis.FaultReport()
	if interrupted {
		return res, ws, fmt.Errorf("app %s on %v at trace event %d: %w", a.Name(), kind, traceIdx, ErrInterrupted)
	}
	return res, ws, nil
}
