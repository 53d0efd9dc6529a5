package app

import (
	"fmt"

	"genima/internal/checkpoint"
	"genima/internal/core"
	"genima/internal/nic"
	"genima/internal/sim"
	"genima/internal/topo"
)

// Boundary is a consistent cut of a checkpointed run, handed to
// CheckpointOptions.OnBoundary. It is only valid during that call: the
// call runs inline with serial event execution, and the simulation
// resumes as soon as it returns.
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

// DefaultCheckpointEvery is the default rolling-checkpoint period, in
// trace events.
const DefaultCheckpointEvery = 100_000

// CheckpointOptions configures RunCheckpointed.
type CheckpointOptions struct {
	// Path is the rolling-checkpoint file; "" disables checkpoint
	// writes (the run still hashes its trace). Each write replaces the
	// previous checkpoint atomically.
	Path string
	// Every is the checkpoint/boundary period in trace events
	// (default DefaultCheckpointEvery).
	Every uint64
	// Restore resumes from a previously saved cut: the run re-executes
	// deterministically from event zero with OnTrace suppressed up to
	// the cut, verifies the replayed prefix against the checkpoint
	// (trace prefix sum, virtual clock, engine event count and
	// live-state digest), and continues normally.
	Restore *checkpoint.State
	// Scale names the workload's problem scale for checkpoint identity
	// checks (the app and protocol come from the run itself).
	Scale string
	// OnTrace receives delivered packets past the restore cut (all
	// packets on a fresh run), with their global 0-based ordinals.
	OnTrace func(idx uint64, ev nic.TraceEvent)
	// OnBoundary observes each checkpoint boundary past the restore
	// cut (streaming stats).
	OnBoundary func(b *Boundary)
	// ShouldStop is polled at each boundary past the restore cut;
	// returning true writes a final checkpoint at that cut and halts
	// the run gracefully (CheckpointedResult.Interrupted). This is the
	// signal-safe shutdown hook: the poll runs at a deterministic cut,
	// never on the signal goroutine.
	ShouldStop func() bool
}

// CheckpointedResult is RunCheckpointed's outcome.
type CheckpointedResult struct {
	Res *Result
	WS  *Workspace
	// TraceHash is the canonical whole-run trace hash (the golden-hash
	// rendering); empty when the run was interrupted.
	TraceHash string
	// TraceEvents counts trace events emitted (including any replayed
	// prefix after a restore).
	TraceEvents uint64
	// Interrupted reports a graceful halt via ShouldStop; the final
	// checkpoint is on disk at opts.Path.
	Interrupted bool
}

// RunCheckpointed executes the app on the SVM protocol kind with
// rolling checkpoints, restore, and graceful shutdown, and produces the
// run's canonical trace hash. The NI firmware monitor's tracer carries
// the whole policy: it hashes every delivered packet, verifies the
// replay at the restore cut, and every opts.Every trace events past
// the cut hands the Boundary to OnBoundary, polls ShouldStop and writes
// the checkpoint. Boundaries at or before the restore cut are silent,
// so a restored run observes, polls and saves only the cuts it has not
// reached before. A halt stops the engine between two events. A run
// restored at cut k and carried to completion produces a TraceHash
// byte-identical to an uninterrupted run. The run always executes on
// the serial engine, whatever cfg.IntraRunWorkers says, so each cut of
// cfg has one clock, one event count and one live state, and a restore
// checks all three.
func RunCheckpointed(cfg topo.Config, kind core.Kind, a App, opts CheckpointOptions) (*CheckpointedResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	every := opts.Every
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	id := checkpoint.Identity(&cfg, a.Name(), kind.String(), opts.Scale)
	st := opts.Restore
	var skip uint64
	if st != nil {
		if err := st.CompatibleWith(id); err != nil {
			return nil, err
		}
		skip = st.TraceEvents
	}
	eng := sim.NewEngine()
	defer eng.Release()
	hasher := checkpoint.NewTraceHasher()
	var halted bool
	var failed error
	wire := func(sys *core.System) {
		digest := func() uint64 {
			d := sim.NewDigest()
			eng.DigestInto(d)
			sys.DigestInto(d)
			sys.Layer.NIs().DigestInto(d)
			return d.Sum()
		}
		cut := func(n uint64) *Boundary {
			return &Boundary{TraceEvents: n, SimTime: eng.Now(), Events: eng.Events(), digest: digest}
		}
		sys.Layer.Monitor().Tracer = func(ev nic.TraceEvent) {
			if halted || failed != nil {
				// The halting event may still commit records after
				// the cut; they belong past it.
				return
			}
			idx := hasher.Count()
			hasher.Add(ev)
			if opts.OnTrace != nil && idx >= skip {
				opts.OnTrace(idx, ev)
			}
			switch n := idx + 1; {
			case n == skip:
				if hasher.PrefixSum() != st.PrefixSum {
					failed = fmt.Errorf("checkpoint: replay diverged from checkpointed trace prefix at event %d", n)
				} else if b := cut(n); int64(b.SimTime) != st.SimTime || b.Events != st.Events || b.StateDigest() != st.StateDigest {
					failed = fmt.Errorf("checkpoint: replay diverged from the checkpointed cut at event %d (trace prefix matches; clock, event count or live state differs)", n)
				}
			case n > skip && n%every == 0:
				b := cut(n)
				if opts.OnBoundary != nil {
					opts.OnBoundary(b)
				}
				halted = opts.ShouldStop != nil && opts.ShouldStop()
				if opts.Path != "" {
					ck := *id
					ck.TraceEvents, ck.SimTime, ck.Events = n, int64(b.SimTime), b.Events
					ck.StateDigest, ck.PrefixSum, ck.Note = b.StateDigest(), hasher.PrefixSum(), "rolling"
					if err := checkpoint.Save(opts.Path, &ck); err != nil {
						failed = fmt.Errorf("writing checkpoint at trace event %d: %w", n, err)
					}
				}
			}
			if halted || failed != nil {
				eng.Stop()
			}
		}
	}
	res, ws, err := runSVM(&cfg, kind, a, eng, wire, func() { eng.RunUntilQuiet() })
	cr := &CheckpointedResult{Res: res, WS: ws, TraceEvents: hasher.Count(), Interrupted: halted}
	switch {
	case failed != nil:
		return nil, failed
	case halted:
		return cr, nil
	case err != nil:
		return nil, err
	case cr.TraceEvents < skip:
		return nil, fmt.Errorf("checkpoint: replay diverged: the run ended at trace event %d, before the checkpointed cut %d", cr.TraceEvents, skip)
	}
	cr.TraceHash = hasher.Final(res.Elapsed, res.Events)
	return cr, nil
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
	// The tracer may close over the engine and the whole system; a
	// Result kept after the run must not pin them.
	sys.Layer.Monitor().Tracer = nil
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
