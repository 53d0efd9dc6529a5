// Package hwdsm models a hardware cache-coherent distributed shared
// memory machine (an SGI Origin 2000 analogue) for the paper's Figure 1,
// Figure 4 and Table 5 comparisons. Coherence is tracked at cache-line
// (128 B) granularity with an infinite-cache directory model: the first
// access to a line by a processor pays a miss whose cost depends on
// where the line's memory home is and whether another processor holds
// it dirty. Data lives directly in the shared space's home copies (one
// coherent memory), so results are exact.
package hwdsm

import (
	"math/bits"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/topo"
)

// LineSize is the coherence granularity in bytes.
const LineSize = 128

// Costs are the hardware model's latency constants.
type Costs struct {
	LocalMiss  sim.Time // line whose memory home is this processor's node
	RemoteMiss sim.Time // clean line homed elsewhere
	DirtyMiss  sim.Time // line held dirty by another processor (3-hop)
	InvalBase  sim.Time // write upgrade with sharers to invalidate
	PerSharer  sim.Time // additional invalidation cost per sharer
	LockBase   sim.Time // uncontended lock acquire/release
	BarBase    sim.Time // barrier base cost
	BarPerProc sim.Time // barrier cost per processor
}

// DefaultCosts reflect published Origin 2000 latencies (≈0.3–1.3 µs
// memory-to-memory at 1999 clock speeds).
func DefaultCosts() Costs {
	return Costs{
		LocalMiss:  sim.Micro(0.35),
		RemoteMiss: sim.Micro(0.9),
		DirtyMiss:  sim.Micro(1.3),
		InvalBase:  sim.Micro(0.7),
		PerSharer:  sim.Micro(0.15),
		LockBase:   sim.Micro(2.0),
		BarBase:    sim.Micro(6.0),
		BarPerProc: sim.Micro(0.4),
	}
}

// System is the hardware DSM machine.
type System struct {
	eng   *sim.Engine
	cfg   *topo.Config
	space *memory.Space
	costs Costs

	nprocs int
	owner  []int16  // dirty owner per line, -1 if clean
	shared []uint64 // sharer bitmask per line (≤ 64 processors)

	locks map[int]*sim.Gate
	bar   barState

	// Misses counts directory misses served (diagnostics).
	Misses uint64
}

// barState is the barrier's arrival count for the open epoch; the
// open epoch is released.Value(), and its last arriver releases it.
type barState struct {
	arrived  int
	released sim.Counter
}

// New builds the machine over an allocated space.
func New(eng *sim.Engine, cfg *topo.Config, space *memory.Space) *System {
	nlines := space.NPages() * cfg.PageSize / LineSize
	s := &System{
		eng:    eng,
		cfg:    cfg,
		space:  space,
		costs:  DefaultCosts(),
		nprocs: cfg.NumProcs(),
		owner:  make([]int16, nlines),
		shared: make([]uint64, nlines),
		locks:  map[int]*sim.Gate{},
	}
	if s.nprocs > 64 {
		panic("hwdsm: more than 64 processors not supported")
	}
	for i := range s.owner {
		s.owner[i] = -1
	}
	return s
}

// Backend returns processor proc's execution backend.
func (s *System) Backend(proc int) *Proc {
	return &Proc{sys: s, id: proc, node: proc / s.cfg.ProcsPerNode}
}

// Proc is one hardware processor's backend (implements app.Backend).
type Proc struct {
	sys  *System
	id   int
	node int
}

func (b *Proc) lineRange(addr, size int) (int, int) {
	if size <= 0 {
		size = 1
	}
	return addr / LineSize, (addr + size - 1) / LineSize
}

// EnsureRead charges read-miss costs for uncached lines.
func (b *Proc) EnsureRead(p *sim.Proc, addr, size int) {
	s := b.sys
	bit := uint64(1) << uint(b.id)
	l0, l1 := b.lineRange(addr, size)
	var cost sim.Time
	for l := l0; l <= l1; l++ {
		if s.shared[l]&bit != 0 {
			continue // cache hit
		}
		s.Misses++
		switch {
		case s.owner[l] >= 0 && int(s.owner[l]) != b.id:
			cost += s.costs.DirtyMiss
			s.owner[l] = -1 // dirty data written back, line now shared
		case s.space.Home(l*LineSize/s.cfg.PageSize) == b.node:
			cost += s.costs.LocalMiss
		default:
			cost += s.costs.RemoteMiss
		}
		s.shared[l] |= bit
	}
	if cost > 0 {
		p.Sleep(cost)
	}
}

// EnsureWrite charges write-miss/upgrade costs and takes exclusive
// ownership of the lines.
func (b *Proc) EnsureWrite(p *sim.Proc, addr, size int) {
	s := b.sys
	bit := uint64(1) << uint(b.id)
	l0, l1 := b.lineRange(addr, size)
	var cost sim.Time
	for l := l0; l <= l1; l++ {
		if s.owner[l] == int16(b.id) {
			continue // already exclusive
		}
		s.Misses++
		others := bits.OnesCount64(s.shared[l] &^ bit)
		if s.owner[l] >= 0 {
			cost += s.costs.DirtyMiss
		} else if s.shared[l]&bit == 0 {
			if s.space.Home(l*LineSize/s.cfg.PageSize) == b.node {
				cost += s.costs.LocalMiss
			} else {
				cost += s.costs.RemoteMiss
			}
		}
		if others > 0 {
			cost += s.costs.InvalBase + s.costs.PerSharer*sim.Time(others)
		}
		s.shared[l] = bit
		s.owner[l] = int16(b.id)
	}
	if cost > 0 {
		p.Sleep(cost)
	}
}

// Bytes returns the coherent memory for a page (the home copy).
func (b *Proc) Bytes(page int) []byte { return b.sys.space.HomeCopy(page) }

// Granule is the coherence unit: one cache line.
func (b *Proc) Granule() int { return LineSize }

// Lock acquires a hardware lock (queued, fair).
func (b *Proc) Lock(p *sim.Proc, id int) {
	s := b.sys
	lk := s.locks[id]
	if lk == nil {
		lk = sim.NewGate(1)
		s.locks[id] = lk
	}
	p.Sleep(s.costs.LockBase)
	lk.Acquire(p)
}

// Unlock releases a hardware lock.
func (b *Proc) Unlock(p *sim.Proc, id int) {
	s := b.sys
	p.Sleep(s.costs.LockBase / 2)
	s.locks[id].Release()
}

// Barrier is a hardware tree barrier. No processor can arrive at the
// next epoch while the last arriver sleeps: all of them are inside
// this one.
func (b *Proc) Barrier(p *sim.Proc) {
	s := b.sys
	epoch := s.bar.released.Value()
	s.bar.arrived++
	cost := s.costs.BarBase + s.costs.BarPerProc*sim.Time(s.nprocs)
	if s.bar.arrived == s.nprocs {
		s.bar.arrived = 0
		p.Sleep(cost)
		s.bar.released.Add(1)
		return
	}
	s.bar.released.WaitFor(p, epoch+1)
	p.Sleep(cost)
}

// ComputeScale: no SMP bus penalty in the hardware machine model.
func (b *Proc) ComputeScale(float64) float64 { return 1 }

// TakeSteal: no interrupts in the hardware machine.
func (b *Proc) TakeSteal() sim.Time { return 0 }
