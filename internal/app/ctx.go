package app

import (
	"encoding/binary"
	"math"
	"math/bits"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/stats"
	"genima/internal/topo"
)

// Ctx is one simulated processor's handle to the shared address space:
// typed accessors with fault handling, compute-time charging, locks and
// barriers. All elapsed virtual time is attributed to the four
// execution-time categories of internal/stats.
type Ctx struct {
	id, n int
	p     *sim.Proc
	be    Backend
	ws    *Workspace
	cfg   *topo.Config

	// scale multiplies compute time: the backend's ComputeScale of the
	// app's memory intensity, fixed for the run.
	scale float64

	// Page and granule addressing: pages are PageSize bytes, granules
	// (the backend's coherence unit) 1<<granShift bytes, both powers
	// of two.
	pageShift, granShift uint
	pageMask             int

	// tlb caches the page bytes of recently ensured granules; see
	// tlbEntry. syncs counts this processor's sync calls; with its
	// process's yields it forms the stamp that dates every entry. The
	// table is allocated at the second miss within one stamp (coldStamp
	// holds the stamp of the last miss before that): a processor that
	// never touches shared memory, or touches one granule between sync
	// calls (barrierbench), would never hit and carries none.
	tlb       *[tlbSize]tlbEntry
	syncs     uint64
	coldStamp uint64

	Breakdown stats.Breakdown
	// Latency collects per-request virtual-time latencies for serving
	// workloads (svmkv); batch apps leave it empty. Per-processor
	// recorders are merged into Result.Latency after the run.
	Latency stats.LatencyRecorder
}

// ID returns this processor's global index in [0, NProc).
func (c *Ctx) ID() int { return c.id }

// NProc returns the total processor count.
func (c *Ctx) NProc() int { return c.n }

// Workspace returns the shared workspace, for region lookups.
func (c *Ctx) Workspace() *Workspace { return c.ws }

// Compute charges ops abstract operations of useful work, folding in any
// pending interrupt-scheduling perturbation.
func (c *Ctx) Compute(ops float64) {
	d := sim.Time(ops*c.cfg.Costs.NsPerOp*c.scale) + c.be.TakeSteal()
	c.p.Sleep(d)
	c.Breakdown.Add(stats.Compute, d)
}

// Lock acquires global lock id.
func (c *Ctx) Lock(id int) {
	c.syncs++
	t0 := c.p.Now()
	c.be.Lock(c.p, id)
	c.Breakdown.Add(stats.Lock, c.p.Now()-t0)
}

// Unlock releases global lock id.
func (c *Ctx) Unlock(id int) {
	c.syncs++
	t0 := c.p.Now()
	c.be.Unlock(c.p, id)
	c.Breakdown.Add(stats.Lock, c.p.Now()-t0)
}

// Barrier waits for all processors.
func (c *Ctx) Barrier() {
	c.syncs++
	t0 := c.p.Now()
	c.be.Barrier(c.p)
	c.Breakdown.Add(stats.Barrier, c.p.Now()-t0)
}

// ReadRange pre-faults [off, off+size) bytes of region r for reading —
// batching fault handling for a loop that follows.
func (c *Ctx) ReadRange(r memory.Region, off, size int) {
	c.ensure(r.Base+off, size, false)
}

// ensure makes [addr, addr+n) accessible through the backend, as a
// store or a load, and charges the wait to Data.
func (c *Ctx) ensure(addr, n int, store bool) {
	t0 := c.p.Now()
	c.be.Ensure(c.p, addr, n, store)
	c.Breakdown.Add(stats.Data, c.p.Now()-t0)
}

// tlbSize is the number of direct-mapped TLB entries per processor.
const tlbSize = 32

// tlbEntry is one granule the backend has ensured. rd (wr) is the stamp
// at which a load (store) ensure of the granule began; the entry grants
// that access while the processor's stamp still equals it. A store
// ensure also grants loads, so it sets both.
type tlbEntry struct {
	granule int
	rd, wr  uint64
	page    []byte
}

// stamp dates TLB entries. It rises whenever the process yields or
// makes a sync call, the only points at which another processor, a
// protocol handler or this processor's own sync actions can change what
// an ensure would do. It starts at 1, so zeroed entries never match.
func (c *Ctx) stamp() uint64 { return c.p.Yields() + c.syncs + 1 }

// read resolves addr for an n-byte load, handling faults. Typed
// accesses are naturally aligned and region bases page-aligned, so an
// access never spans two granules and a hit needs to check one.
func (c *Ctx) read(addr, n int) ([]byte, int) {
	if t := c.tlb; t != nil {
		g := addr >> c.granShift
		if e := &t[g&(tlbSize-1)]; e.granule == g && e.rd == c.stamp() {
			return e.page, addr & c.pageMask
		}
	}
	return c.miss(addr, n, false)
}

// write resolves addr for an n-byte store, handling faults.
func (c *Ctx) write(addr, n int) ([]byte, int) {
	if t := c.tlb; t != nil {
		g := addr >> c.granShift
		if e := &t[g&(tlbSize-1)]; e.granule == g && e.wr == c.stamp() {
			return e.page, addr & c.pageMask
		}
	}
	return c.miss(addr, n, true)
}

// miss ensures addr through the backend, as a store or a load, and
// caches the granule: a store ensure grants loads too. The entry
// carries the stamp from before the ensure, so an ensure that yielded
// (a fetch, a wait) leaves it already stale: only an ensure that ran
// without a break is known to be a no-op on repeat.
func (c *Ctx) miss(addr, n int, store bool) ([]byte, int) {
	s := c.stamp()
	c.ensure(addr, n, store)
	var wr uint64
	if store {
		wr = s
	}
	pg := c.be.Bytes(addr >> c.pageShift)
	if c.tlb == nil {
		if c.coldStamp != s {
			c.coldStamp = s
			return pg, addr & c.pageMask
		}
		c.tlb = new([tlbSize]tlbEntry)
	}
	g := addr >> c.granShift
	c.tlb[g&(tlbSize-1)] = tlbEntry{granule: g, rd: s, wr: wr, page: pg}
	return pg, addr & c.pageMask
}

// F64 loads element i of a float64 region.
func (c *Ctx) F64(r memory.Region, i int) float64 {
	pg, off := c.read(r.Base+8*i, 8)
	return getF64(pg, off)
}

// SetF64 stores element i of a float64 region.
func (c *Ctx) SetF64(r memory.Region, i int, v float64) {
	pg, off := c.write(r.Base+8*i, 8)
	putF64(pg, off, v)
}

// AddF64 adds v to element i of a float64 region (read-modify-write).
func (c *Ctx) AddF64(r memory.Region, i int, v float64) {
	pg, off := c.write(r.Base+8*i, 8)
	putF64(pg, off, getF64(pg, off)+v)
}

// I32 loads element i of an int32 region.
func (c *Ctx) I32(r memory.Region, i int) int32 {
	pg, off := c.read(r.Base+4*i, 4)
	return getI32(pg, off)
}

// SetI32 stores element i of an int32 region.
func (c *Ctx) SetI32(r memory.Region, i int, v int32) {
	pg, off := c.write(r.Base+4*i, 4)
	putI32(pg, off, v)
}

// I64 loads element i of an int64 region.
func (c *Ctx) I64(r memory.Region, i int) int64 {
	pg, off := c.read(r.Base+8*i, 8)
	return getI64(pg, off)
}

// SetI64 stores element i of an int64 region.
func (c *Ctx) SetI64(r memory.Region, i int, v int64) {
	pg, off := c.write(r.Base+8*i, 8)
	putI64(pg, off, v)
}

// Sleep advances this processor's clock without attributing the time to
// any work category (open-loop idle waits and test scaffolding).
func (c *Ctx) Sleep(d sim.Time) { c.p.Sleep(d) }

// Now returns this processor's virtual clock.
func (c *Ctx) Now() sim.Time { return c.p.Now() }

// RecordLatency adds one request's enqueue→completion virtual time to
// this processor's latency histogram.
func (c *Ctx) RecordLatency(d sim.Time) { c.Latency.Record(d) }

// --- little-endian scalar encoding over page bytes ---

func putF64(b []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
}

func getF64(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

func putI32(b []byte, off int, v int32) {
	binary.LittleEndian.PutUint32(b[off:], uint32(v))
}

func getI32(b []byte, off int) int32 {
	return int32(binary.LittleEndian.Uint32(b[off:]))
}

func putI64(b []byte, off int, v int64) {
	binary.LittleEndian.PutUint64(b[off:], uint64(v))
}

func getI64(b []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(b[off:]))
}

// shiftOf returns log2 of x, a power of two.
func shiftOf(x int) uint {
	if x <= 0 || x&(x-1) != 0 {
		panic("app: page and granule sizes must be powers of two")
	}
	return uint(bits.TrailingZeros(uint(x)))
}
