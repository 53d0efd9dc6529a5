// Package barnes reproduces the two Barnes-Hut N-body variants the
// paper evaluates, built on a complete quadtree over the unit square
// (depth-fixed, so the tree shape is insertion-order independent and
// parallel runs are comparable to sequential ones):
//
//   - Original: bodies are stored SoA in input order with interleaved
//     ownership, and leaf centers-of-mass are accumulated into the
//     shared tree under per-leaf locks — the fine-grained locking and
//     scattered remote access the paper blames for Barnes-original's
//     high lock and data-wait time.
//   - Spatial: the restructured version. Bodies are Morton-sorted and
//     spatially partitioned so tree accumulation is lock-free, but the
//     AoS body layout leaves unmodified words (mass) between updated
//     ones, so diffs within a page are highly scattered — which is
//     exactly why direct diffs explode the message count for
//     Barnes-spatial in §3.3 (a >30x message increase).
package barnes

import (
	"fmt"
	"math"

	"genima/internal/app"
	"genima/internal/memory"
)

// Variant selects the application flavor.
type Variant int

// The two Barnes-Hut flavors.
const (
	Original Variant = iota
	Spatial
)

// App is one Barnes-Hut instance.
type App struct {
	variant Variant
	n       int // bodies
	depth   int // quadtree depth (leaves at this level)
	steps   int

	levelOff []int // cell index offset per level
	ncells   int

	// Spatial variant: body -> leaf binning computed at Setup.
	leafOf     []int
	bodyOrder  []int // Morton-sorted body permutation
	leafStart  []int // leaf -> first body slot
	slotBounds []int // leaf-aligned slot boundaries (Morton order)
	slotLeaf   []int // slot -> (static) leaf

	// Per-processor scratch, indexed by ctx.ID(). Safe to keep on the
	// receiver: within a run the engine interleaves processors without
	// true concurrency, and concurrent runs never share an App instance
	// (see runAll).
	sc []procScratch
}

// frame is one level/cell pair on the force traversal stack.
type frame struct{ level, cell int }

// procScratch holds one processor's reusable buffers.
type procScratch struct {
	stack  []frame
	bodies []int
	zero   []float64
}

// scratch returns the calling processor's scratch slot. The table is
// sized in Setup, before the processors start: sizing it lazily here
// would race when processors on different simulation workers hit their
// first phase concurrently.
func (a *App) scratch(ctx *app.Ctx) *procScratch {
	return &a.sc[ctx.ID()]
}

// NewOriginal creates the unrestructured variant.
func NewOriginal(n, depth, steps int) *App { return newApp(Original, n, depth, steps) }

// NewSpatial creates the restructured variant.
func NewSpatial(n, depth, steps int) *App { return newApp(Spatial, n, depth, steps) }

func newApp(v Variant, n, depth, steps int) *App {
	if n < 16 || depth < 2 || depth > 7 || steps < 1 {
		panic("barnes: need n >= 16, 2 <= depth <= 7, steps >= 1")
	}
	a := &App{variant: v, n: n, depth: depth, steps: steps}
	a.levelOff = make([]int, depth+1)
	off := 0
	for l := 0; l <= depth; l++ {
		a.levelOff[l] = off
		off += 1 << (2 * l)
	}
	a.ncells = off
	return a
}

// Name implements app.App.
func (a *App) Name() string {
	if a.variant == Original {
		return "barnes"
	}
	return "barnes-sp"
}

const (
	theta        = 0.7
	dt           = 1e-3
	cellLockBase = 20000
	bodyStride   = 8 // spatial AoS: x, y, m, fx, fy, vx, vy, pad
	// cellOps models the per-cell force evaluation (distance, sqrt,
	// acceptance test, accumulation).
	cellOps = 40
)

func (a *App) leafIndex(x, y float64) int {
	side := 1 << a.depth
	cx := int(x * float64(side))
	cy := int(y * float64(side))
	if cx >= side {
		cx = side - 1
	}
	if cy >= side {
		cy = side - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return cy*side + cx
}

// morton interleaves the bits of a leaf's (x, y) for spatial sorting.
func morton(cx, cy, bits int) int {
	m := 0
	for b := 0; b < bits; b++ {
		m |= ((cx >> b) & 1) << (2 * b)
		m |= ((cy >> b) & 1) << (2*b + 1)
	}
	return m
}

// Setup generates a clustered body distribution and allocates the body
// and tree-cell regions in the variant's layout.
func (a *App) Setup(ws *app.Workspace) {
	if np := ws.Cfg.NumProcs(); len(a.sc) != np {
		a.sc = make([]procScratch, np)
	}
	xs := make([]float64, a.n)
	ys := make([]float64, a.n)
	ms := make([]float64, a.n)
	seed := uint64(271828)
	rnd := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>40) / float64(1<<24)
	}
	for i := 0; i < a.n; i++ {
		// Two gaussian-ish clusters for load imbalance.
		if i%3 == 0 {
			xs[i] = 0.25 + 0.15*(rnd()+rnd()-1)
			ys[i] = 0.25 + 0.15*(rnd()+rnd()-1)
		} else {
			xs[i] = 0.7 + 0.2*(rnd()+rnd()-1)
			ys[i] = 0.65 + 0.2*(rnd()+rnd()-1)
		}
		xs[i] = clamp01(xs[i])
		ys[i] = clamp01(ys[i])
		ms[i] = 0.5 + rnd()
	}

	// Tree cells (SoA): mass, center-of-mass x, y.
	ws.Alloc("cmass", 8*a.ncells, memory.RoundRobin)
	ws.Alloc("ccx", 8*a.ncells, memory.RoundRobin)
	ws.Alloc("ccy", 8*a.ncells, memory.RoundRobin)

	if a.variant == Original {
		// SoA bodies in input order.
		px := ws.Alloc("px", 8*a.n, memory.Blocked)
		py := ws.Alloc("py", 8*a.n, memory.Blocked)
		mass := ws.Alloc("mass", 8*a.n, memory.Blocked)
		ws.Alloc("fx", 8*a.n, memory.Blocked)
		ws.Alloc("fy", 8*a.n, memory.Blocked)
		ws.Alloc("vx", 8*a.n, memory.Blocked)
		ws.Alloc("vy", 8*a.n, memory.Blocked)
		for i := 0; i < a.n; i++ {
			ws.SetF64(px, i, xs[i])
			ws.SetF64(py, i, ys[i])
			ws.SetF64(mass, i, ms[i])
		}
		return
	}

	// Spatial: Morton-sort bodies by leaf, AoS layout.
	side := 1 << a.depth
	a.leafOf = make([]int, a.n)
	keys := make([]int, a.n)
	for i := 0; i < a.n; i++ {
		leaf := a.leafIndex(xs[i], ys[i])
		a.leafOf[i] = leaf
		keys[i] = morton(leaf%side, leaf/side, a.depth)
	}
	a.bodyOrder = make([]int, a.n)
	for i := range a.bodyOrder {
		a.bodyOrder[i] = i
	}
	// Stable counting-style sort by Morton key.
	sortByKey(a.bodyOrder, keys)

	a.leafStart = make([]int, side*side+1)
	counts := make([]int, side*side)
	for _, leaf := range a.leafOf {
		counts[leaf]++
	}
	// leafStart in Morton order of leaves.
	mortonLeaves := make([]int, side*side)
	for leaf := 0; leaf < side*side; leaf++ {
		mortonLeaves[morton(leaf%side, leaf/side, a.depth)] = leaf
	}
	pos := 0
	starts := make([]int, side*side)
	a.slotBounds = a.slotBounds[:0]
	for _, leaf := range mortonLeaves {
		a.slotBounds = append(a.slotBounds, pos)
		starts[leaf] = pos
		pos += counts[leaf]
	}
	a.slotBounds = append(a.slotBounds, a.n)
	a.leafStart = starts

	// Round-robin page homes: in the real application the body array
	// is allocated once while costzones ownership shifts every step,
	// so body pages are generally remote to their writers — which is
	// what makes the spatial variant's scattered within-page diffs
	// travel the network (the §3.3 direct-diff explosion).
	bodies := ws.Alloc("bodies", 8*bodyStride*a.n, memory.RoundRobin)
	// Static leaf binning: bodies keep their setup-time leaf for COM
	// accumulation even as they drift (they move a small fraction of a
	// cell per step at this scale). This keeps the spatial variant's
	// accumulation strictly owner-local and lock-free — the essence of
	// the restructuring — without a rebinning phase.
	a.slotLeaf = make([]int, a.n)
	for slot, i := range a.bodyOrder {
		a.slotLeaf[slot] = a.leafOf[i]
	}
	for slot, i := range a.bodyOrder {
		base := slot * bodyStride
		ws.SetF64(bodies, base+0, xs[i])
		ws.SetF64(bodies, base+1, ys[i])
		ws.SetF64(bodies, base+2, ms[i])
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return 0.999999
	}
	return v
}

func sortByKey(order, keys []int) {
	// Insertion sort is fine at setup scale and is stable.
	for i := 1; i < len(order); i++ {
		j := i
		for j > 0 && keys[order[j-1]] > keys[order[j]] {
			order[j-1], order[j] = order[j], order[j-1]
			j--
		}
	}
}

// Run advances the system: tree build (locks in Original, lock-free in
// Spatial), upward aggregation, force traversal, integration.
func (a *App) Run(ctx *app.Ctx) {
	for step := 0; step < a.steps; step++ {
		a.clearCells(ctx)
		ctx.Barrier()
		a.accumulateLeaves(ctx)
		ctx.Barrier()
		a.upwardPass(ctx)
		a.forcesAndIntegrate(ctx)
		ctx.Barrier()
	}
}

// clearCells zeroes this processor's share of the cell arrays.
func (a *App) clearCells(ctx *app.Ctx) {
	ws := ctx.Workspace()
	id, np := ctx.ID(), ctx.NProc()
	lo, hi := id*a.ncells/np, (id+1)*a.ncells/np
	if hi <= lo {
		return
	}
	sc := a.scratch(ctx)
	if cap(sc.zero) < hi-lo {
		sc.zero = make([]float64, hi-lo)
	}
	zero := sc.zero[:hi-lo] // never written: stays all-zero
	ctx.CopyInF64(ws.Region("cmass"), lo, zero)
	ctx.CopyInF64(ws.Region("ccx"), lo, zero)
	ctx.CopyInF64(ws.Region("ccy"), lo, zero)
	ctx.Compute(float64(hi-lo) * 0.5)
}

// body loads body i's position and mass (variant-specific layout).
func (a *App) body(ctx *app.Ctx, i int) (x, y, m float64) {
	ws := ctx.Workspace()
	if a.variant == Original {
		return ctx.F64(ws.Region("px"), i), ctx.F64(ws.Region("py"), i), ctx.F64(ws.Region("mass"), i)
	}
	b := ws.Region("bodies")
	base := i * bodyStride
	return ctx.F64(b, base), ctx.F64(b, base+1), ctx.F64(b, base+2)
}

// myBodies returns this processor's body slots (valid until the
// processor's next myBodies call).
func (a *App) myBodies(ctx *app.Ctx) []int {
	id, np := ctx.ID(), ctx.NProc()
	sc := a.scratch(ctx)
	out := sc.bodies[:0]
	defer func() { sc.bodies = out }()
	if a.variant == Original {
		// Interleaved ownership: scattered writes.
		for i := id; i < a.n; i += np {
			out = append(out, i)
		}
		return out
	}
	// Spatial: contiguous Morton-ordered slots, aligned to leaf
	// boundaries so no leaf's lock-free accumulation is split between
	// two processors.
	lo := a.alignToLeaf(id * a.n / np)
	hi := a.alignToLeaf((id + 1) * a.n / np)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// alignToLeaf rounds a slot position up to the nearest leaf boundary.
func (a *App) alignToLeaf(slot int) int {
	lo, hi := 0, len(a.slotBounds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if a.slotBounds[mid] < slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return a.slotBounds[lo]
}

// accumulateLeaves adds each body's mass moment into its leaf cell.
func (a *App) accumulateLeaves(ctx *app.Ctx) {
	ws := ctx.Workspace()
	cmass, ccx, ccy := ws.Region("cmass"), ws.Region("ccx"), ws.Region("ccy")
	leafBase := a.levelOff[a.depth]

	for _, i := range a.myBodies(ctx) {
		x, y, m := a.body(ctx, i)
		var leaf int
		if a.variant == Spatial {
			leaf = leafBase + a.slotLeaf[i]
		} else {
			leaf = leafBase + a.leafIndex(x, y)
		}
		if a.variant == Original {
			// Fine-grained per-leaf locks on the shared tree.
			ctx.Lock(cellLockBase + leaf)
			ctx.AddF64(cmass, leaf, m)
			ctx.AddF64(ccx, leaf, m*x)
			ctx.AddF64(ccy, leaf, m*y)
			ctx.Unlock(cellLockBase + leaf)
		} else {
			// Spatial partitioning makes leaf updates owner-local.
			ctx.AddF64(cmass, leaf, m)
			ctx.AddF64(ccx, leaf, m*x)
			ctx.AddF64(ccy, leaf, m*y)
		}
		ctx.Compute(8)
	}
}

// upwardPass aggregates children into parents, level by level.
func (a *App) upwardPass(ctx *app.Ctx) {
	ws := ctx.Workspace()
	cmass, ccx, ccy := ws.Region("cmass"), ws.Region("ccx"), ws.Region("ccy")
	id, np := ctx.ID(), ctx.NProc()
	for l := a.depth - 1; l >= 0; l-- {
		cells := 1 << (2 * l)
		lo, hi := id*cells/np, (id+1)*cells/np
		side := 1 << l
		for c := lo; c < hi; c++ {
			cy, cx := c/side, c%side
			var m, mx, my float64
			for q := 0; q < 4; q++ {
				childSide := side * 2
				ccol := cx*2 + q%2
				crow := cy*2 + q/2
				child := a.levelOff[l+1] + crow*childSide + ccol
				cm := ctx.F64(cmass, child)
				if cm == 0 {
					continue
				}
				m += cm
				mx += ctx.F64(ccx, child)
				my += ctx.F64(ccy, child)
			}
			idx := a.levelOff[l] + c
			ctx.SetF64(cmass, idx, m)
			ctx.SetF64(ccx, idx, mx)
			ctx.SetF64(ccy, idx, my)
			ctx.Compute(12)
		}
		ctx.Barrier()
	}
}

// forcesAndIntegrate traverses the tree for each owned body and
// integrates it.
func (a *App) forcesAndIntegrate(ctx *app.Ctx) {
	ws := ctx.Workspace()
	for _, i := range a.myBodies(ctx) {
		x, y, m := a.body(ctx, i)
		fx, fy, visited := a.force(ctx, x, y)
		ctx.Compute(float64(visited) * cellOps)
		_ = m
		if a.variant == Original {
			vxR, vyR := ws.Region("vx"), ws.Region("vy")
			pxR, pyR := ws.Region("px"), ws.Region("py")
			fxR, fyR := ws.Region("fx"), ws.Region("fy")
			ctx.SetF64(fxR, i, fx)
			ctx.SetF64(fyR, i, fy)
			nvx := ctx.F64(vxR, i) + dt*fx
			nvy := ctx.F64(vyR, i) + dt*fy
			ctx.SetF64(vxR, i, nvx)
			ctx.SetF64(vyR, i, nvy)
			ctx.SetF64(pxR, i, clamp01(x+dt*nvx))
			ctx.SetF64(pyR, i, clamp01(y+dt*nvy))
		} else {
			b := ws.Region("bodies")
			base := i * bodyStride
			ctx.SetF64(b, base+3, fx)
			ctx.SetF64(b, base+4, fy)
			nvx := ctx.F64(b, base+5) + dt*fx
			nvy := ctx.F64(b, base+6) + dt*fy
			ctx.SetF64(b, base+5, nvx)
			ctx.SetF64(b, base+6, nvy)
			ctx.SetF64(b, base+0, clamp01(x+dt*nvx))
			ctx.SetF64(b, base+1, clamp01(y+dt*nvy))
		}
		ctx.Compute(10)
	}
}

// force runs the Barnes-Hut traversal (iterative, explicit stack) and
// returns the force plus the number of cells visited.
func (a *App) force(ctx *app.Ctx, x, y float64) (fx, fy float64, visited int) {
	ws := ctx.Workspace()
	cmass, ccx, ccy := ws.Region("cmass"), ws.Region("ccx"), ws.Region("ccy")

	sc := a.scratch(ctx)
	stack := append(sc.stack[:0], frame{0, 0})
	defer func() { sc.stack = stack }()
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx := a.levelOff[f.level] + f.cell
		m := ctx.F64(cmass, idx)
		visited++
		if m == 0 {
			continue
		}
		cx := ctx.F64(ccx, idx) / m
		cy := ctx.F64(ccy, idx) / m
		dx, dy := cx-x, cy-y
		dist2 := dx*dx + dy*dy + 1e-4
		size := 1.0 / float64(int(1)<<f.level)
		if f.level == a.depth || size*size < theta*theta*dist2 {
			inv := m / (dist2 * math.Sqrt(dist2))
			fx += dx * inv
			fy += dy * inv
			continue
		}
		side := 1 << f.level
		ccol, crow := f.cell%side, f.cell/side
		for q := 0; q < 4; q++ {
			child := (crow*2+q/2)*(side*2) + ccol*2 + q%2
			stack = append(stack, frame{f.level + 1, child})
		}
	}
	return fx, fy, visited
}

// Compare validates with tolerance (Original's lock-merge order differs
// from sequential; Spatial matches bit-exactly but shares the check).
func (a *App) Compare(par, seq *app.Workspace) error {
	check := func(name string, count int) error {
		return app.CompareF64Tolerance(par, seq, name, count, 1e-7)
	}
	if a.variant == Original {
		for _, r := range []string{"px", "py", "vx", "vy", "fx", "fy"} {
			if err := check(r, a.n); err != nil {
				return fmt.Errorf("barnes: %w", err)
			}
		}
		return nil
	}
	if err := check("bodies", bodyStride*a.n); err != nil {
		return fmt.Errorf("barnes-sp: %w", err)
	}
	return nil
}
