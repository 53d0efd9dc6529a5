package app

import (
	"genima/internal/core"
	"genima/internal/sim"
	"genima/internal/topo"
)

// svmBackend binds one processor slot to its SVM node.
type svmBackend struct {
	sys  *core.System
	node *core.Node
	cpu  int // processor slot within the node
}

// NewSVMBackend creates the Backend for processor slot cpu of node nd.
func NewSVMBackend(sys *core.System, nd, cpu int) Backend {
	return &svmBackend{sys: sys, node: sys.Node(nd), cpu: cpu}
}

func (b *svmBackend) Ensure(p *sim.Proc, addr, size int, store bool) {
	first, last := b.sys.Space.PageRange(addr, size)
	b.node.Ensure(p, first, last, store)
}

func (b *svmBackend) Bytes(page int) []byte { return b.node.PageBytes(page) }

func (b *svmBackend) Granule() int { return b.sys.Cfg.PageSize }

func (b *svmBackend) Lock(p *sim.Proc, id int)   { b.node.LockAcquire(p, id) }
func (b *svmBackend) Unlock(p *sim.Proc, id int) { b.node.LockRelease(p, id) }

func (b *svmBackend) Barrier(p *sim.Proc) { b.node.Barrier(p) }

func (b *svmBackend) ComputeScale(mi float64) float64 {
	return 1 + mi*b.sys.Cfg.Costs.SMPBusPenalty*float64(b.sys.Cfg.ProcsPerNode-1)
}

func (b *svmBackend) TakeSteal() sim.Time { return b.node.TakeSteal(b.cpu) }

// nullBackend executes with zero protocol cost against the home copies:
// the sequential reference and uniprocessor-timing backend.
type nullBackend struct {
	ws *Workspace
}

// NewNullBackend creates the zero-cost backend (single processor only).
func NewNullBackend(ws *Workspace) Backend { return &nullBackend{ws: ws} }

func (b *nullBackend) Ensure(*sim.Proc, int, int, bool) {}
func (b *nullBackend) Bytes(page int) []byte            { return b.ws.Space.HomeCopy(page) }
func (b *nullBackend) Granule() int                     { return b.ws.Cfg.PageSize }
func (b *nullBackend) Lock(*sim.Proc, int)              {}
func (b *nullBackend) Unlock(*sim.Proc, int)            {}
func (b *nullBackend) Barrier(*sim.Proc)                {}
func (b *nullBackend) ComputeScale(float64) float64     { return 1 }
func (b *nullBackend) TakeSteal() sim.Time              { return 0 }

// NewCtx wires a processor context; the harness uses this, and tests may
// construct contexts directly.
func NewCtx(id, n int, p *sim.Proc, be Backend, ws *Workspace, cfg *topo.Config, memIntensity float64) *Ctx {
	return &Ctx{
		id: id, n: n, p: p, be: be, ws: ws, cfg: cfg, scale: be.ComputeScale(memIntensity),
		pageShift: shiftOf(cfg.PageSize), pageMask: cfg.PageSize - 1,
		granShift: shiftOf(be.Granule()),
	}
}
