// Package watersp reproduces Water-Spatial: the cell-decomposed version
// of the Water molecular dynamics code. Molecules are binned into a 2-D
// grid of cells (done at setup; molecules move far less than a cell per
// step at this scale) and only neighbor-cell pairs interact, so both
// computation and locking are far coarser than Water-Nsquared: partial
// forces are merged under per-cell (not per-molecule) locks, which is
// why the paper sees much lower lock time for the spatial version.
package watersp

import (
	"fmt"

	"genima/internal/app"
	"genima/internal/memory"
)

// App is one Water-Spatial instance.
type App struct {
	n     int // molecules
	g     int // cell grid side
	steps int

	cellOf []int // molecule -> cell (fixed binning)
	perm   []int // sorted-by-cell molecule order
	start  []int // cell -> first molecule index in perm order
}

// New creates an n-molecule run on a g×g cell grid for steps steps.
func New(n, g, steps int) *App {
	if n < 8 || g < 2 || steps < 1 {
		panic("watersp: need n >= 8, g >= 2, steps >= 1")
	}
	return &App{n: n, g: g, steps: steps}
}

// Name implements app.App.
func (a *App) Name() string { return "water-sp" }

const (
	boxSize  = 10.0
	dt       = 1e-4
	lockBase = 5000
	// pairOps models the real Water force kernel (~100 ops per pair).
	pairOps = 120
)

// Setup bins molecules into cells and lays them out cell-contiguously
// (the "spatial" data restructuring).
func (a *App) Setup(ws *app.Workspace) {
	raw := make([]float64, 3*a.n)
	seed := uint64(4242)
	for i := range raw {
		seed = seed*6364136223846793005 + 1442695040888963407
		raw[i] = float64(seed>>40) / float64(1<<24) * boxSize
	}
	// Bin by (x, y).
	a.cellOf = make([]int, a.n)
	counts := make([]int, a.g*a.g)
	for m := 0; m < a.n; m++ {
		cx := int(raw[3*m] / boxSize * float64(a.g))
		cy := int(raw[3*m+1] / boxSize * float64(a.g))
		if cx >= a.g {
			cx = a.g - 1
		}
		if cy >= a.g {
			cy = a.g - 1
		}
		a.cellOf[m] = cy*a.g + cx
		counts[a.cellOf[m]]++
	}
	a.start = make([]int, a.g*a.g+1)
	for c := 0; c < a.g*a.g; c++ {
		a.start[c+1] = a.start[c] + counts[c]
	}
	fill := append([]int(nil), a.start...)
	a.perm = make([]int, a.n)
	for m := 0; m < a.n; m++ {
		a.perm[fill[a.cellOf[m]]] = m
		fill[a.cellOf[m]]++
	}

	pos := ws.Alloc("pos", 8*3*a.n, memory.Blocked)
	ws.Alloc("force", 8*3*a.n, memory.Blocked)
	for slot, m := range a.perm {
		for d := 0; d < 3; d++ {
			ws.SetF64(pos, 3*slot+d, raw[3*m+d])
		}
	}
}

// cellRange gives this processor's block of cell rows.
func (a *App) cellRows(ctx *app.Ctx) (int, int) {
	id, np := ctx.ID(), ctx.NProc()
	return id * a.g / np, (id + 1) * a.g / np
}

// Run advances the system with neighbor-cell interactions.
func (a *App) Run(ctx *app.Ctx) {
	ws := ctx.Workspace()
	pos := ws.Region("pos")
	force := ws.Region("force")
	r0, r1 := a.cellRows(ctx)

	p := make([]float64, 3*a.n)
	partial := make([]float64, 3*a.n)
	touched := make([]bool, a.g*a.g)

	for step := 0; step < a.steps; step++ {
		ctx.CopyOutF64(pos, 0, p)
		for i := range partial {
			partial[i] = 0
		}
		for i := range touched {
			touched[i] = false
		}

		pairs := 0
		for cy := r0; cy < r1; cy++ {
			for cx := 0; cx < a.g; cx++ {
				c := cy*a.g + cx
				pairs += a.cellPairs(c, p, partial, touched)
			}
		}
		ctx.Compute(float64(pairs) * pairOps)

		// Merge partial forces per touched cell under the cell lock.
		for c := 0; c < a.g*a.g; c++ {
			if !touched[c] {
				continue
			}
			ctx.Lock(lockBase + c)
			for s := a.start[c]; s < a.start[c+1]; s++ {
				ctx.AddF64(force, 3*s, partial[3*s])
				ctx.AddF64(force, 3*s+1, partial[3*s+1])
				ctx.AddF64(force, 3*s+2, partial[3*s+2])
			}
			ctx.Unlock(lockBase + c)
			ctx.Compute(float64(a.start[c+1]-a.start[c]) * 6)
		}
		ctx.Barrier()

		// Integrate my cells' molecules; clear their forces.
		for cy := r0; cy < r1; cy++ {
			for cx := 0; cx < a.g; cx++ {
				c := cy*a.g + cx
				for s := a.start[c]; s < a.start[c+1]; s++ {
					for d := 0; d < 3; d++ {
						f := ctx.F64(force, 3*s+d)
						ctx.SetF64(pos, 3*s+d, p[3*s+d]+dt*f)
						ctx.SetF64(force, 3*s+d, 0)
					}
				}
			}
		}
		ctx.Barrier()
	}
}

// cellPairs accumulates interactions of cell c with itself and its
// east/south neighbor cells (each pair of cells visited once), marking
// the cells whose molecules received force contributions.
func (a *App) cellPairs(c int, p, partial []float64, touched []bool) int {
	cy, cx := c/a.g, c%a.g
	pairs := 0
	// Within the cell: j > i.
	for si := a.start[c]; si < a.start[c+1]; si++ {
		for sj := si + 1; sj < a.start[c+1]; sj++ {
			addPair(p, partial, si, sj)
			pairs++
		}
	}
	if a.start[c+1] > a.start[c] {
		touched[c] = true
	}
	// Neighbor cells (east, south-west, south, south-east): each
	// unordered cell pair handled exactly once.
	for _, d := range [][2]int{{1, 0}, {-1, 1}, {0, 1}, {1, 1}} {
		nx, ny := cx+d[0], cy+d[1]
		if nx < 0 || nx >= a.g || ny >= a.g {
			continue
		}
		nc := ny*a.g + nx
		for si := a.start[c]; si < a.start[c+1]; si++ {
			for sj := a.start[nc]; sj < a.start[nc+1]; sj++ {
				addPair(p, partial, si, sj)
				pairs++
			}
		}
		if a.start[nc+1] > a.start[nc] && a.start[c+1] > a.start[c] {
			touched[c] = true
			touched[nc] = true
		}
	}
	return pairs
}

func addPair(p, partial []float64, i, j int) {
	dx := p[3*j] - p[3*i]
	dy := p[3*j+1] - p[3*i+1]
	dz := p[3*j+2] - p[3*i+2]
	r2 := dx*dx + dy*dy + dz*dz + 0.1
	inv := 1 / (r2 * r2)
	partial[3*i] += dx * inv
	partial[3*i+1] += dy * inv
	partial[3*i+2] += dz * inv
	partial[3*j] -= dx * inv
	partial[3*j+1] -= dy * inv
	partial[3*j+2] -= dz * inv
}

// Compare validates positions and forces with tolerance (merge order).
func (a *App) Compare(par, seq *app.Workspace) error {
	if err := app.CompareF64Tolerance(par, seq, "pos", 3*a.n, 1e-9); err != nil {
		return fmt.Errorf("watersp positions: %w", err)
	}
	if err := app.CompareF64Tolerance(par, seq, "force", 3*a.n, 1e-6); err != nil {
		return fmt.Errorf("watersp forces: %w", err)
	}
	return nil
}
