package app

import (
	"errors"
	"fmt"

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

// Boundary is a consistent cut of a running simulation, handed to a
// RunControl hook. It is only valid during the hook call: the hook runs
// in deterministic single-threaded contexts (inline with serial event
// execution, or at a cluster barrier), and the simulation resumes as
// soon as it returns.
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
// run's hooks run at a barrier, after its LPs have run ahead to the
// round horizon, so its live state at a given trace ordinal
// legitimately differs from a serial run's.
func (b *Boundary) StateDigest() uint64 { return b.digest() }

// RunControl is a run's control hook. It receives every delivered
// packet with its 0-based ordinal, in delivery order; cut returns the
// consistent cut just past that packet, for hooks that checkpoint,
// verify or stream stats there. A non-nil error halts the run:
// ErrInterrupted (or an error wrapping it) is a graceful halt, and the
// partial Result comes back with it; any other error is returned as it
// is. Halting from the hook keeps every halt at a deterministic cut,
// never on a signal goroutine.
type RunControl func(idx uint64, ev nic.TraceEvent, cut func() *Boundary) error

// RunSVMControlled is RunSVM with a control hook (see RunControl). It
// is the engine under every SVM run, traced runs, checkpoint/restore
// and signal-safe shutdown included; a nil ctl runs uncontrolled.
func RunSVMControlled(cfg topo.Config, kind core.Kind, a App, ctl RunControl) (*Result, *Workspace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	// Intra-run parallelism: with more than one worker and more than one
	// node, the run is partitioned into shard-granular logical processes
	// under a conservative PDES cluster (one node shard per worker,
	// clamped to Nodes by NewCluster, plus the fabric LP). The serial
	// path builds no cluster at all, so it is exactly the engine the
	// goldens were recorded on. Nodes talk to other nodes only through
	// fabric links and switches (the EnqueueHandlerCross calls of the NI
	// transit pipeline), and NI-local timers stay on their own LP, so
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
	var haltErr error
	if ctl != nil {
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
			if haltErr != nil {
				// Barrier defer replay may still commit a few records
				// after the halting hook; they belong past the cut and
				// must not reach the controller.
				return
			}
			idx := traceIdx
			traceIdx++
			if haltErr = ctl(idx, ev, cut); haltErr != nil {
				if cl != nil {
					cl.Stop()
				} else {
					eng.Stop()
				}
			}
		}
	}
	sys.Start()

	bes := make([]Backend, cfg.NumProcs())
	for i := range bes {
		bes[i] = NewSVMBackend(sys, i/cfg.ProcsPerNode, i%cfg.ProcsPerNode)
	}
	drive := func() { eng.RunUntilQuiet() }
	if cl != nil {
		drive = cl.Run
	}
	res, err := runProcs(&cfg, eng, ws, a, kind.String(), bes, drive)
	switch {
	case haltErr != nil && !errors.Is(haltErr, ErrInterrupted):
		return nil, nil, haltErr
	case err != nil && haltErr == nil:
		return nil, nil, err
	}
	res.Acct = sys.Accounting()
	res.Monitor = sys.Layer.Monitor()
	if cl != nil {
		res.Events = cl.Events()
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
			frac(nis.Fabric.Out[i].BusyTime), frac(nis.Fabric.In[i].BusyTime))
		res.Util.MaxBacklog = max(res.Util.MaxBacklog, ni.Firmware.MaxQueued)
	}
	for _, sw := range nis.Fabric.Switches {
		res.Util.Switch = max(res.Util.Switch, frac(sw.BusyTime))
	}
	res.Util.SwitchStage = nis.Fabric.StageBusy()
	res.Faults = nis.FaultReport()
	if haltErr != nil {
		return res, ws, fmt.Errorf("app %s on %v at trace event %d: %w", a.Name(), kind, traceIdx, haltErr)
	}
	return res, ws, nil
}
