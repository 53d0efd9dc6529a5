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
// inline with serial event execution, and the simulation resumes as
// soon as it returns.
type Boundary struct {
	TraceEvents uint64   // trace events emitted so far (the cut ordinal)
	SimTime     sim.Time // virtual clock at the cut
	Events      uint64   // engine events executed at the cut

	digest func() uint64
}

// StateDigest computes the live-state fingerprint at this cut: engine
// heaps and clock, NI pools and reliable-delivery flows, protocol
// tables and process queues, page contents, fault-stream cursors. It
// walks the whole simulator state, so call it only when the digest is
// actually wanted (checkpoint writes, verification cuts).
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

// RunSVMTraced is RunSVM with a packet tracer: trace, when non-nil,
// receives every delivered packet, in delivery order. A tracer only
// observes the run, so the run may execute in parallel: with more than
// one IntraRunWorkers and more than one node it is partitioned into
// shard-granular logical processes under a conservative PDES cluster
// (one node shard per worker, clamped to Nodes by NewCluster, plus the
// fabric LP), and its trace is byte-identical to the serial engine's.
// The serial path builds no cluster at all, so it is exactly the engine
// the goldens were recorded on. Nodes talk to other nodes only through
// fabric links and switches (the EnqueueHandlerCross calls of the NI
// transit pipeline), and NI-local timers stay on their own LP, so every
// cross-LP send honours the lookaheads below. The tracer runs
// single-threaded either way: inline with serial (and lone-mode) event
// execution, or on the Run goroutine at a cluster barrier while the
// worker pool is parked.
func RunSVMTraced(cfg topo.Config, kind core.Kind, a App, trace func(nic.TraceEvent)) (*Result, *Workspace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	var cl *sim.Cluster
	var eng *sim.Engine
	drive := func() { eng.RunUntilQuiet() }
	if cfg.IntraRunWorkers > 1 && cfg.Nodes > 1 {
		nodeLA, fabLA := cfg.Lookaheads()
		cl = sim.NewCluster(cfg.Nodes, cfg.IntraRunWorkers, cfg.IntraRunWorkers, nodeLA, fabLA)
		eng, drive = cl.Main(), cl.Run
		defer cl.Release()
	} else {
		eng = sim.NewEngine()
		defer eng.Release()
	}
	res, ws, err := runSVM(&cfg, kind, a, eng, func(sys *core.System) { sys.Layer.Monitor().Tracer = trace }, drive)
	if err != nil {
		return nil, nil, err
	}
	if cl != nil {
		res.Events = cl.Events()
	}
	return res, ws, nil
}

// RunSVMControlled is RunSVM with a control hook (see RunControl), the
// engine under checkpoint/restore and signal-safe shutdown. It always
// runs on the serial engine, whatever cfg.IntraRunWorkers says: the
// hook's cuts, digests and halts fall between two events, so a cut's
// clock, event count and live state are the same in every run of cfg.
func RunSVMControlled(cfg topo.Config, kind core.Kind, a App, ctl RunControl) (*Result, *Workspace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	eng := sim.NewEngine()
	defer eng.Release()
	var traceIdx uint64
	var haltErr error
	wire := func(sys *core.System) {
		digest := func() uint64 {
			d := sim.NewDigest()
			eng.DigestInto(d)
			sys.DigestInto(d)
			sys.Layer.NIs().DigestInto(d)
			return d.Sum()
		}
		cut := func() *Boundary {
			return &Boundary{TraceEvents: traceIdx, SimTime: eng.Now(), Events: eng.Events(), digest: digest}
		}
		sys.Layer.Monitor().Tracer = func(ev nic.TraceEvent) {
			if haltErr != nil {
				// The halting event may still commit records after
				// the hook; they belong past the cut.
				return
			}
			idx := traceIdx
			traceIdx++
			if haltErr = ctl(idx, ev, cut); haltErr != nil {
				eng.Stop()
			}
		}
	}
	res, ws, err := runSVM(&cfg, kind, a, eng, wire, func() { eng.RunUntilQuiet() })
	switch {
	case haltErr != nil && !errors.Is(haltErr, ErrInterrupted):
		return nil, nil, haltErr
	case err != nil && haltErr == nil:
		return nil, nil, err
	case haltErr != nil:
		return res, ws, fmt.Errorf("app %s on %v at trace event %d: %w", a.Name(), kind, traceIdx, haltErr)
	}
	return res, ws, nil
}

// runSVM builds the SVM system for kind on eng (a cluster's main LP
// when drive runs a cluster), lets wire attach to it before it starts,
// runs the processors with drive and collects the result. The error
// reports processors that did not finish; the result comes back with it.
func runSVM(cfg *topo.Config, kind core.Kind, a App, eng *sim.Engine, wire func(*core.System), drive func()) (*Result, *Workspace, error) {
	ws := NewWorkspace(cfg)
	a.Setup(ws)
	sys := core.New(eng, cfg, kind, ws.Space)
	wire(sys)
	sys.Start()

	bes := make([]Backend, cfg.NumProcs())
	for i := range bes {
		bes[i] = NewSVMBackend(sys, i/cfg.ProcsPerNode, i%cfg.ProcsPerNode)
	}
	res, err := runProcs(cfg, eng, ws, a, kind.String(), bes, drive)
	res.Acct = sys.Accounting()
	res.Monitor = sys.Layer.Monitor()
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
	return res, ws, err
}
