// Package barrierbench is a synthetic barrier microbenchmark: R rounds
// of (processor 0 publishes one value, a token of compute, everyone
// barriers twice). Almost all of its time is barrier protocol + wait,
// which makes it the probe workload for the scalesweep experiment
// comparing flat fan-out barriers against the NI-firmware collective
// tree. Deliberately no read-back of the published value: a fetch
// storm at the home node would serialize identically under both
// barrier schemes and dilute the difference being measured. It is not
// part of the paper's suite — apps.ByName resolves it, but
// Suite/Names do not list it.
package barrierbench

import (
	"genima/internal/app"
	"genima/internal/memory"
)

// App is one barrierbench instance.
type App struct {
	rounds int
}

// New creates a benchmark of r rounds (two barriers per round).
func New(r int) *App {
	if r < 1 {
		panic("barrierbench: rounds must be >= 1")
	}
	return &App{rounds: r}
}

// Name implements app.App.
func (a *App) Name() string { return "barrierbench" }

// Rounds returns the configured round count.
func (a *App) Rounds() int { return a.rounds }

// Setup allocates the published-value array, one word per round.
func (a *App) Setup(ws *app.Workspace) {
	ws.Alloc("count", 8*a.rounds, memory.Blocked)
}

// Run publishes, synchronizes, and reads back, once per round. The
// writes are identical in sequential and parallel runs, so exact byte
// validation holds.
func (a *App) Run(ctx *app.Ctx) {
	c := ctx.Workspace().Region("count")
	for r := 0; r < a.rounds; r++ {
		if ctx.ID() == 0 {
			ctx.SetI64(c, r, int64(r)*2654435761+1)
		}
		ctx.Compute(64)
		ctx.Barrier()
		ctx.Barrier()
	}
}
