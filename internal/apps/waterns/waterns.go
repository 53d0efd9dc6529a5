// Package waterns reproduces Water-Nsquared: an O(N²) molecular dynamics
// step in which every pair of molecules interacts. Each processor
// computes partial forces privately, then merges them into the shared
// force array under per-molecule locks — the fine-grained locking the
// paper identifies as this application's bottleneck (frequent locks push
// invalidation propagation traffic into the NI queues, where control
// messages get stuck behind data in the Base and DW protocols).
package waterns

import (
	"fmt"

	"genima/internal/app"
	"genima/internal/memory"
)

// App is one Water-Nsquared instance.
type App struct {
	n     int // molecules
	steps int
}

// New creates an n-molecule, steps-step run.
func New(n, steps int) *App {
	if n < 8 || steps < 1 {
		panic("waterns: need n >= 8 and steps >= 1")
	}
	return &App{n: n, steps: steps}
}

// Name implements app.App.
func (a *App) Name() string { return "water-nsq" }

const dt = 1e-4

// pairOps models the real Water force kernel: each molecule pair
// involves nine atom-atom distances, square roots and exponentials —
// on the order of a hundred operations.
const pairOps = 120

// Setup allocates positions and forces (3 doubles per molecule each).
func (a *App) Setup(ws *app.Workspace) {
	pos := ws.Alloc("pos", 8*3*a.n, memory.RoundRobin)
	ws.Alloc("force", 8*3*a.n, memory.RoundRobin)
	seed := uint64(777)
	for i := 0; i < 3*a.n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		ws.SetF64(pos, i, float64(seed>>40)/float64(1<<24)*10)
	}
}

// Run advances the system: pairwise forces (private), merge under
// per-molecule locks, barrier, position integration by owner, barrier.
func (a *App) Run(ctx *app.Ctx) {
	ws := ctx.Workspace()
	pos := ws.Region("pos")
	force := ws.Region("force")
	id, np := ctx.ID(), ctx.NProc()
	lo, hi := id*a.n/np, (id+1)*a.n/np

	p := make([]float64, 3*a.n)
	partial := make([]float64, 3*a.n)

	for step := 0; step < a.steps; step++ {
		// Read all positions (coarse read phase).
		ctx.CopyOutF64(pos, 0, p)
		for i := range partial {
			partial[i] = 0
		}
		// Pairwise interactions for my molecule block.
		for i := lo; i < hi; i++ {
			for j := i + 1; j < a.n; j++ {
				fx, fy, fz := pairForce(p, i, j)
				partial[3*i] += fx
				partial[3*i+1] += fy
				partial[3*i+2] += fz
				partial[3*j] -= fx
				partial[3*j+1] -= fy
				partial[3*j+2] -= fz
			}
		}
		ctx.Compute(float64(hi-lo) * float64(a.n) / 2 * pairOps)

		// Merge partial forces under per-molecule locks. As in the
		// SPLASH-2 code, each processor starts at its own block and
		// wraps around, so processors do not convoy on the same lock.
		for jj := 0; jj < a.n; jj++ {
			j := (lo + jj) % a.n
			if partial[3*j] == 0 && partial[3*j+1] == 0 && partial[3*j+2] == 0 {
				continue
			}
			ctx.Lock(lockBase + j)
			ctx.AddF64(force, 3*j, partial[3*j])
			ctx.AddF64(force, 3*j+1, partial[3*j+1])
			ctx.AddF64(force, 3*j+2, partial[3*j+2])
			ctx.Unlock(lockBase + j)
			ctx.Compute(6)
		}
		ctx.Barrier()

		// Integrate my molecules and clear their forces.
		for i := lo; i < hi; i++ {
			for d := 0; d < 3; d++ {
				f := ctx.F64(force, 3*i+d)
				ctx.SetF64(pos, 3*i+d, p[3*i+d]+dt*f)
				ctx.SetF64(force, 3*i+d, 0)
			}
		}
		ctx.Compute(float64(hi-lo) * 9)
		ctx.Barrier()
	}
}

// lockBase keeps per-molecule lock ids clear of small shared lock ids
// used elsewhere.
const lockBase = 1000

// pairForce computes a softened inverse-square attraction between
// molecules i and j.
func pairForce(p []float64, i, j int) (fx, fy, fz float64) {
	dx := p[3*j] - p[3*i]
	dy := p[3*j+1] - p[3*i+1]
	dz := p[3*j+2] - p[3*i+2]
	r2 := dx*dx + dy*dy + dz*dz + 0.1
	inv := 1 / (r2 * r2)
	return dx * inv, dy * inv, dz * inv
}

// Compare validates with tolerance: the parallel force merge order
// differs from the sequential order, so sums differ in rounding.
func (a *App) Compare(par, seq *app.Workspace) error {
	if err := app.CompareF64Tolerance(par, seq, "pos", 3*a.n, 1e-9); err != nil {
		return fmt.Errorf("waterns positions: %w", err)
	}
	if err := app.CompareF64Tolerance(par, seq, "force", 3*a.n, 1e-6); err != nil {
		return fmt.Errorf("waterns forces: %w", err)
	}
	return nil
}
