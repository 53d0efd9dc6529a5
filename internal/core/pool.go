package core

import (
	"genima/internal/memory"
	"genima/internal/nic"
	"genima/internal/sim"
)

// Deterministic free lists for protocol records, one set per logical
// process (see DESIGN.md §7). New builds one recordPool for each
// distinct LP engine and every node mapped to that LP points to it, so
// a serial run has exactly one. A record is taken from the executing
// LP's pool, travels through the protocol as a typed packet payload,
// and is released by the single party the protocol designates as its
// final consumer — into that party's LP pool, which is the only pool
// the executing event may touch. In a serial run every record returns
// to the pool it came from, so the one-way protocol flows (diffs from
// writer to home, page copies from home to faulter) recycle instead of
// draining one node's lists into another's.
//
// Pooled records are fungible: every user writes a field before it
// reads it, so which pool holds a record never affects the simulation.
// Embedded sim.Counter done flags are Reset (not reallocated) when a
// record is recycled, which is safe only after their waiters resumed —
// the protocol guarantees a record's waiter has consumed the result
// before the record is released. Records that need no reset on release
// are pushed straight onto their list.

// recordPool is one LP's set of free lists.
type recordPool struct {
	nodes, pageSize int

	pageReq sim.FreeList[*pageReqMsg]
	fp      sim.FreeList[*fetchPayload]
	diff    sim.FreeList[*diffMsg]
	lockReq sim.FreeList[*lockReqMsg]
	grant   sim.FreeList[*lockGrant]
	vcMsg   sim.FreeList[*vcMsg]
	runDep  sim.FreeList[*runDep]
	verMark sim.FreeList[*verMark]
	sgDep   sim.FreeList[*sgDep]
	inv     sim.FreeList[[]int]
	vec     sim.FreeList[[]uint64] // DW barrier epoch arrival vectors
}

// row returns the i-th width-w row of a chunk's backing array. The full
// slice cap keeps an append on one record's row from clobbering the
// next record's.
func row[E any](back []E, i, w int) []E { return back[i*w : (i+1)*w : (i+1)*w] }

// getPageReq returns a Base page request record. It owns the page
// buffer the home fills with its reply.
func (rp *recordPool) getPageReq() *pageReqMsg {
	return sim.Take(&rp.pageReq, 1, func(c []pageReqMsg) {
		c[0].need = make([]uint64, rp.nodes)
		c[0].ver = make([]uint64, rp.nodes)
		c[0].data = make([]byte, rp.pageSize)
	})
}

func (rp *recordPool) putPageReq(r *pageReqMsg) {
	r.done.Reset()
	rp.pageReq.Push(r)
}

// getFetchPayload returns a remote-fetch reply record with its own
// page buffer and version row, for the home NI to fill. A miss builds
// eight records over one backing array per field, so a growing
// in-flight window costs three allocations per eight records.
func (rp *recordPool) getFetchPayload() *fetchPayload {
	return sim.Take(&rp.fp, 8, func(c []fetchPayload) {
		nn, ps := rp.nodes, rp.pageSize
		vers := make([]uint64, len(c)*nn)
		pages := make([]byte, len(c)*ps)
		for i := range c {
			c[i].ver = row(vers, i, nn)
			c[i].data = row(pages, i, ps)
		}
	})
}

// getDiff returns a diff record. Fresh records are presized so DiffCopy
// does not regrow runs/buf word by word on first use (buf holds at most
// one page of changed bytes), and chunked: diff records go in flight in
// bursts at interval close, so misses cluster.
func (rp *recordPool) getDiff() *diffMsg {
	return sim.Take(&rp.diff, 4, func(c []diffMsg) {
		ps := rp.pageSize
		runsBack := make([]memory.Run, len(c)*64)
		bufBack := make([]byte, len(c)*ps)
		for i := range c {
			c[i].runs = row(runsBack, i, 64)[:0]
			c[i].buf = row(bufBack, i, ps)[:0]
		}
	})
}

func (rp *recordPool) putDiff(d *diffMsg) {
	d.runs = d.runs[:0]
	rp.diff.Push(d)
}

func (rp *recordPool) getLockReq() *lockReqMsg {
	return sim.Take(&rp.lockReq, 8, func(c []lockReqMsg) {
		vcs := make([]uint64, len(c)*rp.nodes)
		for i := range c {
			c[i].reqVC = row(vcs, i, rp.nodes)
		}
	})
}

func (rp *recordPool) getGrant() *lockGrant {
	return sim.Take(&rp.grant, 8, func(c []lockGrant) {
		vcs := make([]uint64, len(c)*rp.nodes)
		for i := range c {
			c[i].vc = row(vcs, i, rp.nodes)
		}
	})
}

func (rp *recordPool) putGrant(g *lockGrant) {
	g.intervals = g.intervals[:0]
	rp.grant.Push(g)
}

func (rp *recordPool) getVCMsg() *vcMsg {
	return sim.Take(&rp.vcMsg, 8, func(c []vcMsg) {
		vcs := make([]uint64, len(c)*rp.nodes)
		for i := range c {
			c[i].vc = row(vcs, i, rp.nodes)
		}
	})
}

// getRunDep returns a direct-diff run record. Direct diffs put one
// runDep in flight per run of a page diff, so misses come in bursts;
// they are chunked.
func (rp *recordPool) getRunDep() *runDep { return sim.Take(&rp.runDep, 16, nil) }

func (rp *recordPool) putRunDep(r *runDep) {
	r.run = memory.Run{}
	rp.runDep.Push(r)
}

func (rp *recordPool) getVerMark() *verMark { return sim.Take(&rp.verMark, 8, nil) }

func (rp *recordPool) putVerMark(v *verMark) {
	v.d = nil
	rp.verMark.Push(v)
}

func (rp *recordPool) getSGDep() *sgDep { return sim.Take(&rp.sgDep, 1, nil) }

func (rp *recordPool) putSGDep(m *sgDep) {
	m.d = nil
	rp.sgDep.Push(m)
}

// getInv returns a zero-length invalidation scratch slice. applyUpTo can
// nest (closePageEarly yields and another processor may enter applyUpTo),
// so the scratch comes from a free list rather than a single field.
func (rp *recordPool) getInv() []int {
	if s, ok := rp.inv.Pop(); ok {
		return s[:0]
	}
	return make([]int, 0, 16)
}

// getVec returns a zeroed per-node vector for a live barrier epoch.
func (rp *recordPool) getVec() []uint64 {
	if v, ok := rp.vec.Pop(); ok {
		clear(v)
		return v
	}
	return make([]uint64, rp.nodes)
}

// Shared packet deliverers: singletons invoked by the NI when the final
// packet of a protocol message lands, so no send builds a closure.
// Stateless ones are package-level; the ones that must map pkt.Dst to a
// *Node live on System.

// pageReplyDeliver completes a Base page fetch: the reply data was
// written into the pooled request record at reply time, so delivery
// only wakes the requester.
type pageReplyDeliver struct{}

var pageReplyDel pageReplyDeliver

func (pageReplyDeliver) Deliver(pkt *nic.Packet) { pkt.Payload.(*pageReqMsg).done.Add(1) }

// runDepDeliver applies one direct-diff run into the home copy (DD: the
// destination NI deposits the run, no host involvement). The record is
// freed into the destination's pool: delivery runs on the destination's
// logical process.
type runDepDeliver struct{}

var runDepDel runDepDeliver

func (runDepDeliver) Deliver(pkt *nic.Packet) {
	rd := pkt.Payload.(*runDep)
	memory.ApplyRun(rd.owner.sys.Space.HomeCopy(rd.pg), rd.run)
	rd.owner.sys.Nodes[pkt.Dst].pool.putRunDep(rd)
}

// verMarkDeliver lands a direct-diff version marker. Per-pair FIFO
// delivery guarantees the run deposits (sent first) have already been
// applied, so the diff record whose buffer they aliased can be freed —
// into the home's LP pool: delivery runs on the home's logical process.
type verMarkDeliver struct{}

var verMarkDel verMarkDeliver

func (verMarkDeliver) Deliver(pkt *nic.Packet) {
	vm := pkt.Payload.(*verMark)
	vm.home.bumpVersion(vm.pg, vm.origin.ID, vm.seq)
	if vm.d != nil {
		vm.home.pool.putDiff(vm.d)
	}
	vm.home.pool.putVerMark(vm)
}

// noticeDeliver records an eagerly deposited write notice at pkt.Dst
// (DW). Intervals are arena-allocated and live for the whole run, so no
// refcounting is needed.
type noticeDeliver struct{ s *System }

func (d *noticeDeliver) Deliver(pkt *nic.Packet) {
	d.s.Nodes[pkt.Dst].depositNotice(pkt.Payload.(*interval))
}

// grantDeliver hands a lock grant to the waiting requester at pkt.Dst.
type grantDeliver struct{ s *System }

func (d *grantDeliver) Deliver(pkt *nic.Packet) {
	d.s.Nodes[pkt.Dst].receiveGrant(pkt.Payload.(*lockGrant))
}

// barFlagDeliver lands a DW barrier arrival flag at pkt.Dst. The
// record belongs to its sender, which reuses it two epochs later (see
// barMsg), so delivery only reads it.
type barFlagDeliver struct{ s *System }

func (d *barFlagDeliver) Deliver(pkt *nic.Packet) {
	d.s.Nodes[pkt.Dst].depositBarFlag(pkt.Payload.(*barMsg))
}
