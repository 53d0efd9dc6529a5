// Package raytrace reproduces the Raytrace application (the version the
// paper uses eliminates the global ray-ID lock, leaving a single shared
// tile queue as the only lock): a recursive sphere-scene ray tracer
// where processors pull image tiles from one shared counter and write
// disjoint image regions. Scene data is read-only and replicates across
// nodes on first touch.
package raytrace

import (
	"fmt"
	"math"

	"genima/internal/app"
	"genima/internal/memory"
)

// App is one Raytrace instance.
type App struct {
	img     int // image side in pixels
	tile    int // tile side
	spheres int
}

// New creates an img×img render of a generated scene.
func New(img, tile, spheres int) *App {
	if img < tile || img%tile != 0 || spheres < 1 {
		panic("raytrace: need tile | img and spheres >= 1")
	}
	return &App{img: img, tile: tile, spheres: spheres}
}

// Name implements app.App.
func (a *App) Name() string { return "raytrace" }

const (
	sphereStride  = 8 // cx, cy, cz, r, colR, colG, colB, reflect
	tileQueueLock = 9500
)

// Setup allocates the scene (read-only), image, and the shared tile
// counter.
func (a *App) Setup(ws *app.Workspace) {
	scene := ws.Alloc("scene", 8*sphereStride*a.spheres, memory.RoundRobin)
	ws.Alloc("image", 8*3*a.img*a.img, memory.Blocked)
	ws.Alloc("tilectr", 8, memory.RoundRobin)
	seed := uint64(9001)
	rnd := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>40) / float64(1<<24)
	}
	for s := 0; s < a.spheres; s++ {
		base := s * sphereStride
		ws.SetF64(scene, base+0, rnd()*8-4) // cx
		ws.SetF64(scene, base+1, rnd()*8-4) // cy
		ws.SetF64(scene, base+2, rnd()*6+3) // cz
		ws.SetF64(scene, base+3, rnd()*0.8+0.3)
		ws.SetF64(scene, base+4, rnd())
		ws.SetF64(scene, base+5, rnd())
		ws.SetF64(scene, base+6, rnd())
		ws.SetF64(scene, base+7, rnd()*0.5)
	}
}

type sphere struct {
	cx, cy, cz, r, cr, cg, cb, refl float64
}

// Run pulls tiles from the shared queue and renders them.
func (a *App) Run(ctx *app.Ctx) {
	ws := ctx.Workspace()
	sceneR := ws.Region("scene")
	ctr := ws.Region("tilectr")

	// Load the scene once (read-only; replicates locally).
	buf := make([]float64, sphereStride*a.spheres)
	ctx.CopyOutF64(sceneR, 0, buf)
	scene := make([]sphere, a.spheres)
	for s := range scene {
		b := buf[s*sphereStride:]
		scene[s] = sphere{b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]}
	}

	if ctx.ID() == 0 {
		ctx.Lock(tileQueueLock)
		ctx.SetI64(ctr, 0, 0)
		ctx.Unlock(tileQueueLock)
	}
	ctx.Barrier()

	nt := (a.img / a.tile) * (a.img / a.tile)
	for {
		ctx.Lock(tileQueueLock)
		t := ctx.I64(ctr, 0)
		if t < int64(nt) {
			ctx.SetI64(ctr, 0, t+1)
		}
		ctx.Unlock(tileQueueLock)
		if t >= int64(nt) {
			break
		}
		a.renderTile(ctx, scene, int(t))
	}
	ctx.Barrier()
}

func (a *App) renderTile(ctx *app.Ctx, scene []sphere, tileIdx int) {
	img := ctx.Workspace().Region("image")
	tilesPerRow := a.img / a.tile
	ty, tx := tileIdx/tilesPerRow, tileIdx%tilesPerRow
	ops := 0
	for py := ty * a.tile; py < (ty+1)*a.tile; py++ {
		for px := tx * a.tile; px < (tx+1)*a.tile; px++ {
			ox := (float64(px)/float64(a.img))*8 - 4
			oy := (float64(py)/float64(a.img))*8 - 4
			r, g, b := trace(scene, 0, 0, 0, ox/8, oy/8, 1, 2)
			base := 3 * (py*a.img + px)
			ctx.SetF64(img, base, r)
			ctx.SetF64(img, base+1, g)
			ctx.SetF64(img, base+2, b)
			ops += a.spheres * 12
		}
	}
	ctx.Compute(float64(ops))
}

// trace follows a ray through the scene with one reflection bounce.
func trace(scene []sphere, x, y, z, dx, dy, dz float64, depth int) (r, g, b float64) {
	norm := math.Sqrt(dx*dx + dy*dy + dz*dz)
	dx, dy, dz = dx/norm, dy/norm, dz/norm
	best := math.Inf(1)
	hit := -1
	for i, s := range scene {
		ocx, ocy, ocz := x-s.cx, y-s.cy, z-s.cz
		bq := ocx*dx + ocy*dy + ocz*dz
		cq := ocx*ocx + ocy*ocy + ocz*ocz - s.r*s.r
		disc := bq*bq - cq
		if disc < 0 {
			continue
		}
		t := -bq - math.Sqrt(disc)
		if t > 1e-6 && t < best {
			best = t
			hit = i
		}
	}
	if hit < 0 {
		// Sky gradient.
		return 0.1, 0.1, 0.2 + 0.1*dy
	}
	s := scene[hit]
	hx, hy, hz := x+best*dx, y+best*dy, z+best*dz
	nx, ny, nz := (hx-s.cx)/s.r, (hy-s.cy)/s.r, (hz-s.cz)/s.r
	// Fixed directional light.
	lambert := nx*0.5 + ny*0.7 - nz*0.3
	if lambert < 0.05 {
		lambert = 0.05
	}
	r, g, b = s.cr*lambert, s.cg*lambert, s.cb*lambert
	if depth > 0 && s.refl > 0 {
		dot := dx*nx + dy*ny + dz*nz
		rr, rg, rb := trace(scene, hx, hy, hz, dx-2*dot*nx, dy-2*dot*ny, dz-2*dot*nz, depth-1)
		r += s.refl * rr
		g += s.refl * rg
		b += s.refl * rb
	}
	return r, g, b
}

// Compare checks the image exactly; the tile counter is scratch.
func (a *App) Compare(par, seq *app.Workspace) error {
	rp, rs := par.Region("image"), seq.Region("image")
	for i := 0; i < 3*a.img*a.img; i++ {
		if p, s := par.F64(rp, i), seq.F64(rs, i); p != s {
			return fmt.Errorf("raytrace: component %d = %g, want %g", i, p, s)
		}
	}
	return nil
}
