// Package app defines the programming interface the workloads use — a
// shared-address-space API with locks and barriers — and the harness
// that runs a workload over any execution backend: the SVM protocol
// family (internal/core), the hardware-DSM model (internal/hwdsm), or a
// zero-cost sequential backend used for reference results and
// uniprocessor timings.
//
// Applications compute on real bytes in the shared space; the harness
// validates parallel results against a sequential run of the same code.
package app

import (
	"fmt"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/topo"
)

// App is one workload (an analogue of a SPLASH-2 application).
type App interface {
	// Name is a short identifier ("fft", "barnes", ...).
	Name() string
	// Setup allocates shared regions and initializes them. It runs
	// sequentially, outside the timed section (SPLASH-2 rules).
	Setup(ws *Workspace)
	// Run is the parallel computation, executed once per processor.
	Run(ctx *Ctx)
}

// Comparer lets an app replace exact byte comparison of results with a
// tolerance-aware check (needed when floating-point reduction order
// differs between sequential and parallel runs).
type Comparer interface {
	Compare(par, seq *Workspace) error
}

// MemIntensive marks apps whose compute time suffers SMP memory-bus
// contention (the paper calls out FFT and Ocean); the value in [0,1]
// scales the configured bus penalty.
type MemIntensive interface {
	MemIntensity() float64
}

// Backend is one processor's view of an execution model.
type Backend interface {
	// Ensure makes [addr, addr+size) readable, and with store also
	// writable, blocking for any remote traffic.
	Ensure(p *sim.Proc, addr, size int, store bool)
	// Bytes returns the processor's working copy of the page holding
	// addr (after an Ensure call).
	Bytes(page int) []byte
	// Granule is the coherence unit in bytes: a power of two, at least
	// 8 and at most the page size. An Ensure call that returns without
	// yielding leaves every granule it covered such that a repeat of
	// the call costs nothing and changes nothing until the processor
	// next yields or makes a sync call (Lock, Unlock, Barrier).
	Granule() int
	// Lock/Unlock provide system-wide mutual exclusion.
	Lock(p *sim.Proc, id int)
	Unlock(p *sim.Proc, id int)
	// Barrier blocks until all processors arrive.
	Barrier(p *sim.Proc)
	// ComputeScale multiplies compute time (SMP bus contention); a
	// context calls it once, when it is built.
	ComputeScale(memIntensity float64) float64
	// TakeSteal returns pending stolen time (interrupt scheduling
	// perturbation) to fold into the next compute period.
	TakeSteal() sim.Time
}

// Workspace is the allocation view of the shared space, used by Setup
// (sequential, zero-cost direct access) and by result comparison.
type Workspace struct {
	Cfg     *topo.Config
	Space   *memory.Space
	regions map[string]memory.Region
}

// NewWorkspace wraps a fresh space.
func NewWorkspace(cfg *topo.Config) *Workspace {
	return &Workspace{
		Cfg:     cfg,
		Space:   memory.NewSpace(cfg.PageSize, cfg.WordSize, cfg.Nodes),
		regions: map[string]memory.Region{},
	}
}

// Alloc reserves a named shared region.
func (ws *Workspace) Alloc(name string, bytes int, pol memory.HomePolicy) memory.Region {
	if _, dup := ws.regions[name]; dup {
		panic(fmt.Sprintf("app: duplicate region %q", name))
	}
	r := ws.Space.Alloc(name, bytes, pol)
	ws.regions[name] = r
	return r
}

// Region returns a previously allocated region by name.
func (ws *Workspace) Region(name string) memory.Region {
	r, ok := ws.regions[name]
	if !ok {
		panic(fmt.Sprintf("app: unknown region %q", name))
	}
	return r
}

// Regions lists allocated regions in allocation order.
func (ws *Workspace) Regions() []memory.Region { return ws.Space.Regions() }

// --- Direct (setup-time / verification-time) accessors. ---

func (ws *Workspace) page(addr int) []byte {
	return ws.Space.HomeCopy(addr / ws.Cfg.PageSize)
}

// SetF64 stores a float64 at element index i of region r.
func (ws *Workspace) SetF64(r memory.Region, i int, v float64) {
	addr := r.Base + 8*i
	putF64(ws.page(addr), addr%ws.Cfg.PageSize, v)
}

// F64 loads a float64 from element index i of region r.
func (ws *Workspace) F64(r memory.Region, i int) float64 {
	addr := r.Base + 8*i
	return getF64(ws.page(addr), addr%ws.Cfg.PageSize)
}

// SetI32 stores an int32 at element index i of region r.
func (ws *Workspace) SetI32(r memory.Region, i int, v int32) {
	addr := r.Base + 4*i
	putI32(ws.page(addr), addr%ws.Cfg.PageSize, v)
}

// I32 loads an int32 from element index i of region r.
func (ws *Workspace) I32(r memory.Region, i int) int32 {
	addr := r.Base + 4*i
	return getI32(ws.page(addr), addr%ws.Cfg.PageSize)
}

// SetI64 stores an int64 at element index i of region r.
func (ws *Workspace) SetI64(r memory.Region, i int, v int64) {
	addr := r.Base + 8*i
	putI64(ws.page(addr), addr%ws.Cfg.PageSize, v)
}

// I64 loads an int64 from element index i of region r.
func (ws *Workspace) I64(r memory.Region, i int) int64 {
	addr := r.Base + 8*i
	return getI64(ws.page(addr), addr%ws.Cfg.PageSize)
}
