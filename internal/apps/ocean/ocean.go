// Package ocean reproduces the Ocean-rowwise application: an iterative
// 5-point Jacobi stencil over a 2-D grid partitioned in contiguous row
// blocks (the "rowwise" restructuring, which on 4-way SMP nodes is
// practically equivalent to Ocean-contiguous per the paper's footnote).
// Two grids alternate as source and destination, as in the real
// multigrid smoother, so writes are dense rows and diffs are contiguous.
// Communication is near-neighbor: page sharing happens at partition
// boundary rows; synchronization is barrier-only.
package ocean

import (
	"genima/internal/app"
	"genima/internal/memory"
)

// App is one Ocean problem instance.
type App struct {
	n     int // interior grid dimension (grid is (n+2)²)
	iters int
}

// New creates an n×n-interior ocean relaxation running iters sweeps.
func New(n, iters int) *App {
	if n < 4 || iters < 1 {
		panic("ocean: need n >= 4 and iters >= 1")
	}
	return &App{n: n, iters: iters}
}

// Name implements app.App.
func (a *App) Name() string { return "ocean" }

// MemIntensity marks Ocean as memory-bus bound within an SMP (§3.4).
func (a *App) MemIntensity() float64 { return 0.8 }

func (a *App) side() int { return a.n + 2 }

// Setup allocates both grids with fixed boundary values and a
// deterministic interior.
func (a *App) Setup(ws *app.Workspace) {
	side := a.side()
	grid := ws.Alloc("grid", 8*side*side, memory.Blocked)
	next := ws.Alloc("grid2", 8*side*side, memory.Blocked)
	seed := uint64(20260704)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			var v float64
			switch {
			case i == 0:
				v = 100
			case i == side-1:
				v = -40
			case j == 0 || j == side-1:
				v = 25
			default:
				seed = seed*6364136223846793005 + 1442695040888963407
				v = float64(seed>>40)/float64(1<<24)*40 - 20
			}
			ws.SetF64(grid, i*side+j, v)
			ws.SetF64(next, i*side+j, v)
		}
	}
}

// rowRange gives this processor's interior rows [lo, hi).
func (a *App) rowRange(ctx *app.Ctx) (int, int) {
	id, np := ctx.ID(), ctx.NProc()
	return 1 + id*a.n/np, 1 + (id+1)*a.n/np
}

// Run performs iters Jacobi sweeps, alternating grids, with a barrier
// after each sweep. The final smoothed field always ends in "grid"
// (iters is effectively rounded up to even by a copy-back sweep).
func (a *App) Run(ctx *app.Ctx) {
	ws := ctx.Workspace()
	src := ws.Region("grid")
	dst := ws.Region("grid2")
	lo, hi := a.rowRange(ctx)
	side := a.side()
	up := make([]float64, side)
	cur := make([]float64, side)
	down := make([]float64, side)
	out := make([]float64, side)

	iters := a.iters
	if iters%2 != 0 {
		iters++ // keep the result in "grid"
	}
	for it := 0; it < iters; it++ {
		for r := lo; r < hi; r++ {
			ctx.CopyOutF64(src, (r-1)*side, up)
			ctx.CopyOutF64(src, r*side, cur)
			ctx.CopyOutF64(src, (r+1)*side, down)
			out[0], out[side-1] = cur[0], cur[side-1]
			for j := 1; j < side-1; j++ {
				out[j] = 0.25 * (up[j] + down[j] + cur[j-1] + cur[j+1])
			}
			ctx.CopyInF64(dst, r*side, out)
		}
		ctx.Compute(float64((hi - lo) * a.n * 6))
		ctx.Barrier()
		src, dst = dst, src
	}
}
