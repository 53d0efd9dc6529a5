package genima

import (
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
const DefaultCheckpointEvery = app.DefaultCheckpointEvery

// CheckpointOptions configures RunCheckpointed.
type CheckpointOptions = app.CheckpointOptions

// CheckpointedResult is RunCheckpointed's outcome.
type CheckpointedResult = app.CheckpointedResult

// Boundary is a consistent cut of a checkpointed run, handed to
// CheckpointOptions.OnBoundary.
type Boundary = app.Boundary

// RunCheckpointed executes a workload under an SVM protocol with
// rolling checkpoints, restore, and graceful shutdown, and returns the
// run's canonical trace hash; see app.RunCheckpointed.
func RunCheckpointed(cfg Config, p Protocol, a App, opts CheckpointOptions) (*CheckpointedResult, error) {
	return app.RunCheckpointed(cfg, p, a, opts)
}
