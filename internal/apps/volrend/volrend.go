// Package volrend reproduces the restructured Volrend application: a
// ray-casting volume renderer with task stealing. Image tiles are the
// task unit; each processor owns a queue of tiles (the restructured
// initial assignment that improves load balance), and an idle processor
// steals from the busiest victim under the victim's queue lock. The
// paper notes GeNIMA makes stealing effective for the first time, since
// it slashes the cost of the queue locks.
package volrend

import (
	"fmt"

	"genima/internal/app"
	"genima/internal/memory"
)

// App is one Volrend instance.
type App struct {
	vol  int // volume side (vol³ voxels)
	img  int // image side in pixels
	tile int // tile side in pixels
}

// New creates a renderer for a vol³ volume onto an img×img image with
// tile×tile tiles.
func New(vol, img, tile int) *App {
	if vol < 8 || img < tile || img%tile != 0 {
		panic("volrend: need vol >= 8 and tile | img")
	}
	return &App{vol: vol, img: img, tile: tile}
}

// Name implements app.App.
func (a *App) Name() string { return "volrend" }

func (a *App) tiles() int { return (a.img / a.tile) * (a.img / a.tile) }

const queueLockBase = 9000

// Setup allocates the read-only volume, the output image, and the
// per-processor task queues (head/tail index pairs). Density is a
// deterministic blobby field, denser toward one corner so tile costs
// are imbalanced and stealing matters.
func (a *App) Setup(ws *app.Workspace) {
	volR := ws.Alloc("volume", 4*a.vol*a.vol*a.vol, memory.RoundRobin)
	ws.Alloc("image", 8*a.img*a.img, memory.Blocked)
	// queues: up to 64 processors × (head, tail).
	ws.Alloc("queues", 4*2*64, memory.RoundRobin)
	for z := 0; z < a.vol; z++ {
		for y := 0; y < a.vol; y++ {
			for x := 0; x < a.vol; x++ {
				// Blob density: high near the (0,0,0) corner.
				d := (x*x + y*y + z*z) * 255 / (3 * a.vol * a.vol)
				v := 255 - d
				if v < 0 {
					v = 0
				}
				// Sparse empty shells create cost imbalance.
				if (x+y+z)%7 == 0 {
					v = 0
				}
				ws.SetI32(volR, (z*a.vol+y)*a.vol+x, int32(v))
			}
		}
	}
}

// Run renders: drain my queue, then steal.
func (a *App) Run(ctx *app.Ctx) {
	ws := ctx.Workspace()
	queues := ws.Region("queues")
	id, np := ctx.ID(), ctx.NProc()
	nt := a.tiles()

	// Initialize my queue bounds: a contiguous tile range.
	ctx.Lock(queueLockBase + id)
	ctx.SetI32(queues, 2*id, int32(id*nt/np))       // head
	ctx.SetI32(queues, 2*id+1, int32((id+1)*nt/np)) // tail
	ctx.Unlock(queueLockBase + id)
	ctx.Barrier()

	// Drain own queue from the head.
	for {
		ctx.Lock(queueLockBase + id)
		h := ctx.I32(queues, 2*id)
		t := ctx.I32(queues, 2*id+1)
		if h < t {
			ctx.SetI32(queues, 2*id, h+1)
		}
		ctx.Unlock(queueLockBase + id)
		if h >= t {
			break
		}
		a.renderTile(ctx, int(h))
	}

	// Steal from the tail of other queues, round robin.
	for victim := (id + 1) % np; victim != id; victim = (victim + 1) % np {
		for {
			ctx.Lock(queueLockBase + victim)
			h := ctx.I32(queues, 2*victim)
			t := ctx.I32(queues, 2*victim+1)
			if h < t {
				ctx.SetI32(queues, 2*victim+1, t-1)
			}
			ctx.Unlock(queueLockBase + victim)
			if h >= t {
				break
			}
			a.renderTile(ctx, int(t-1))
		}
	}
	ctx.Barrier()
}

// renderTile casts one ray per pixel of the tile through the volume.
func (a *App) renderTile(ctx *app.Ctx, tileIdx int) {
	ws := ctx.Workspace()
	volR := ws.Region("volume")
	img := ws.Region("image")
	tilesPerRow := a.img / a.tile
	ty, tx := tileIdx/tilesPerRow, tileIdx%tilesPerRow

	ops := 0
	for py := ty * a.tile; py < (ty+1)*a.tile; py++ {
		for px := tx * a.tile; px < (tx+1)*a.tile; px++ {
			// Map pixel to a volume column.
			vx := px * a.vol / a.img
			vy := py * a.vol / a.img
			ctx.ReadRange(volR, 4*((0*a.vol+vy)*a.vol+vx), 4)
			var intensity, transparency float64 = 0, 1
			for vz := 0; vz < a.vol && transparency > 0.02; vz++ {
				d := float64(ctx.I32(volR, (vz*a.vol+vy)*a.vol+vx)) / 255
				if d == 0 {
					ops += 2
					continue // empty space leap
				}
				alpha := d * 0.25
				intensity += transparency * alpha * d
				transparency *= 1 - alpha
				// Real Volrend does trilinear interpolation, gradient
				// shading and compositing per sample (~25 ops).
				ops += 25
			}
			ctx.SetF64(img, py*a.img+px, intensity)
		}
	}
	ctx.Compute(float64(ops))
}

// Compare checks the image exactly (pixel values are independent of
// which processor rendered them); queue indices are scratch.
func (a *App) Compare(par, seq *app.Workspace) error {
	rp, rs := par.Region("image"), seq.Region("image")
	for i := 0; i < a.img*a.img; i++ {
		if p, s := par.F64(rp, i), seq.F64(rs, i); p != s {
			return fmt.Errorf("volrend: pixel %d = %g, want %g", i, p, s)
		}
	}
	return nil
}
