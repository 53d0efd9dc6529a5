package genima

import (
	"bytes"
	"errors"
	"fmt"

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
	// (trace-hash midstate always; live-state digest when the execution
	// mode matches), and continues normally.
	Restore *Checkpoint
	// App and Scale name the workload for checkpoint identity checks
	// (the protocol comes from the run itself).
	App   string
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
// rolling checkpoints, restore, and graceful shutdown. A run restored
// at cut k and carried to completion produces a TraceHash byte-
// identical to an uninterrupted run — under any IntraRunWorkers, since
// the trace stream is mode-independent.
func RunCheckpointed(cfg Config, p Protocol, a App, opts CheckpointOptions) (*CheckpointedResult, error) {
	every := opts.Every
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	hasher := checkpoint.NewTraceHasher()
	var skip uint64
	if st := opts.Restore; st != nil {
		if err := st.CompatibleWith(&cfg, opts.App, p.String(), opts.Scale); err != nil {
			return nil, err
		}
		skip = st.TraceEvents
	}
	cr := &CheckpointedResult{}
	var ckptErr error
	workers, shards := runMode(&cfg)
	write := func(b *Boundary, note string) bool {
		snap, err := hasher.Snapshot()
		if err == nil {
			err = checkpoint.Save(opts.Path, &Checkpoint{
				ConfigSum:   checkpoint.ConfigSum(&cfg),
				App:         opts.App,
				Proto:       p.String(),
				Scale:       opts.Scale,
				ModeWorkers: workers,
				ModeShards:  shards,
				TraceEvents: b.TraceEvents,
				SimTime:     int64(b.SimTime),
				Events:      b.Events,
				StateDigest: b.StateDigest(),
				HashState:   snap,
				Note:        note,
			})
		}
		if err != nil {
			ckptErr = fmt.Errorf("writing checkpoint at trace event %d: %w", b.TraceEvents, err)
			return false
		}
		return true
	}
	ctl := &RunControl{
		OnTrace: func(idx uint64, ev TraceEvent) {
			hasher.Add(ev)
			if opts.OnTrace != nil && idx >= skip {
				opts.OnTrace(idx, ev)
			}
		},
		BoundaryEvery: every,
		OnBoundary: func(b *Boundary) bool {
			if opts.OnBoundary != nil {
				opts.OnBoundary(b)
			}
			halt := opts.ShouldStop != nil && opts.ShouldStop()
			if opts.Path != "" && (halt || b.TraceEvents > skip) {
				if !write(b, "rolling") {
					return false
				}
			}
			if halt {
				cr.Interrupted = true
			}
			return !halt
		},
	}
	if st := opts.Restore; st != nil {
		ctl.VerifyAt = st.TraceEvents
		ctl.OnVerify = func(b *Boundary) error {
			want := checkpoint.NewTraceHasher()
			if err := want.Restore(st.HashState, st.TraceEvents); err != nil {
				return err
			}
			if !bytes.Equal(hasher.PrefixSum(), want.PrefixSum()) {
				return fmt.Errorf("checkpoint: replay diverged from checkpointed trace prefix at event %d", st.TraceEvents)
			}
			if st.SameMode(workers, shards) && b.StateDigest() != st.StateDigest {
				return fmt.Errorf("checkpoint: live-state digest mismatch at event %d (trace prefix matches; state walk diverged)", st.TraceEvents)
			}
			return nil
		}
	}
	res, ws, err := RunControlled(cfg, p, a, ctl)
	if ckptErr != nil {
		return nil, ckptErr
	}
	if err != nil && !(cr.Interrupted && errors.Is(err, ErrInterrupted)) {
		return nil, err
	}
	cr.Res, cr.WS = res, ws
	cr.TraceEvents = hasher.Count()
	if !cr.Interrupted {
		cr.TraceHash = hasher.Final(res.Elapsed, res.Events)
	}
	return cr, nil
}

// runMode resolves the execution mode a config selects: the worker
// count and the shard count, one per worker clamped to Nodes as
// NewCluster does (0 shards on the serial path, which builds no
// cluster at all). StateDigest values are only comparable between
// identical modes.
func runMode(cfg *Config) (workers, shards int) {
	if cfg.IntraRunWorkers > 1 && cfg.Nodes > 1 {
		return cfg.IntraRunWorkers, min(cfg.IntraRunWorkers, cfg.Nodes)
	}
	return 1, 0
}
