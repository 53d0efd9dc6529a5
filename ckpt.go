package genima

import (
	"errors"
	"fmt"

	"genima/internal/app"
	"genima/internal/checkpoint"
)

// Checkpoint is a saved cut of a deterministic run (or a soak
// campaign's iteration cursor); see internal/checkpoint for the format.
type Checkpoint = checkpoint.State

// Checkpoint-file sentinel errors, matchable with errors.Is.
var (
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	ErrCheckpointVersion = checkpoint.ErrVersion
)

// LoadCheckpoint reads and verifies a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) { return checkpoint.Load(path) }

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
	Restore *Checkpoint
	// Scale names the workload's problem scale for checkpoint identity
	// checks (the app and protocol come from the run itself).
	Scale string
	// OnTrace receives delivered packets past the restore cut (all
	// packets on a fresh run), with their global 0-based ordinals.
	OnTrace func(idx uint64, ev TraceEvent)
	// OnBoundary observes each checkpoint boundary (streaming stats).
	OnBoundary func(b *Boundary)
	// ShouldStop is polled at each boundary; returning true writes a
	// final checkpoint at that cut and halts the run gracefully
	// (CheckpointedResult.Interrupted). This is the signal-safe
	// shutdown hook: the poll runs at a deterministic cut, never on the
	// signal goroutine.
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

// RunCheckpointed executes a workload under an SVM protocol with
// rolling checkpoints, restore, and graceful shutdown. It holds the
// whole policy over the engine's one control hook: cut every
// opts.Every trace events, verify the replay at the restore cut, and
// poll ShouldStop at each cut. A run restored at cut k and carried to
// completion produces a TraceHash byte-identical to an uninterrupted
// run. The run always executes on the serial engine, whatever
// IntraRunWorkers says, so each cut of cfg has one clock, one event
// count and one live state, and a restore checks all three.
func RunCheckpointed(cfg Config, p Protocol, a App, opts CheckpointOptions) (*CheckpointedResult, error) {
	every := opts.Every
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	id := checkpoint.Identity(&cfg, a.Name(), p.String(), opts.Scale)
	st := opts.Restore
	var skip uint64
	if st != nil {
		if err := st.CompatibleWith(id); err != nil {
			return nil, err
		}
		skip = st.TraceEvents
	}
	hasher := checkpoint.NewTraceHasher()
	ctl := func(idx uint64, ev TraceEvent, cut func() *Boundary) error {
		hasher.Add(ev)
		if opts.OnTrace != nil && idx >= skip {
			opts.OnTrace(idx, ev)
		}
		n := idx + 1
		if n == skip {
			if hasher.PrefixSum() != st.PrefixSum {
				return fmt.Errorf("checkpoint: replay diverged from checkpointed trace prefix at event %d", n)
			}
			if b := cut(); int64(b.SimTime) != st.SimTime || b.Events != st.Events || b.StateDigest() != st.StateDigest {
				return fmt.Errorf("checkpoint: replay diverged from the checkpointed cut at event %d (trace prefix matches; clock, event count or live state differs)", n)
			}
		}
		if n%every != 0 {
			return nil
		}
		b := cut()
		if opts.OnBoundary != nil {
			opts.OnBoundary(b)
		}
		halt := opts.ShouldStop != nil && opts.ShouldStop()
		if opts.Path != "" && (halt || n > skip) {
			ck := *id
			ck.TraceEvents, ck.SimTime, ck.Events = n, int64(b.SimTime), b.Events
			ck.StateDigest, ck.PrefixSum, ck.Note = b.StateDigest(), hasher.PrefixSum(), "rolling"
			if err := checkpoint.Save(opts.Path, &ck); err != nil {
				return fmt.Errorf("writing checkpoint at trace event %d: %w", n, err)
			}
		}
		if halt {
			return app.ErrInterrupted
		}
		return nil
	}
	res, ws, err := app.RunSVMControlled(cfg, p, a, ctl)
	interrupted := errors.Is(err, app.ErrInterrupted)
	if err != nil && !interrupted {
		return nil, err
	}
	if !interrupted && hasher.Count() < skip {
		return nil, fmt.Errorf("checkpoint: replay diverged: the run ended at trace event %d, before the checkpointed cut %d", hasher.Count(), skip)
	}
	cr := &CheckpointedResult{Res: res, WS: ws, TraceEvents: hasher.Count(), Interrupted: interrupted}
	if !interrupted {
		cr.TraceHash = hasher.Final(res.Elapsed, res.Events)
	}
	return cr, nil
}
