package core

import (
	"genima/internal/memory"
	"genima/internal/nic"
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
// Embedded sim.Flag values are Reset (not reallocated) when a record is
// recycled, which is safe only after the flag's waiters have resumed —
// the protocol guarantees a record's waiter has consumed the result
// before the record is released.

// recordPool is one LP's set of free lists.
type recordPool struct {
	nodes, pageSize int

	pageReq freeList[*pageReqMsg]
	fp      freeList[*fetchPayload]
	diff    freeList[*diffMsg]
	lockReq freeList[*lockReqMsg]
	grant   freeList[*lockGrant]
	vcMsg   freeList[*vcMsg]
	runDep  freeList[*runDep]
	verMark freeList[*verMark]
	sgDep   freeList[*sgDep]
	inv     freeList[[]int]
	vec     freeList[[]uint64] // DW barrier epoch arrival vectors
}

// freeList is a LIFO stack of pooled records.
type freeList[T any] []T

func (f *freeList[T]) pop() (T, bool) {
	var zero T
	k := len(*f)
	if k == 0 {
		return zero, false
	}
	r := (*f)[k-1]
	(*f)[k-1] = zero
	*f = (*f)[:k-1]
	return r, true
}

func (f *freeList[T]) push(r T) { *f = append(*f, r) }

// getPageReq returns a Base page request record. It owns the page
// buffer the home fills with its reply.
func (rp *recordPool) getPageReq() *pageReqMsg {
	if r, ok := rp.pageReq.pop(); ok {
		return r
	}
	nn := rp.nodes
	return &pageReqMsg{
		need: make([]uint64, nn),
		ver:  make([]uint64, nn),
		data: make([]byte, rp.pageSize),
	}
}

func (rp *recordPool) putPageReq(r *pageReqMsg) {
	r.done.Reset()
	rp.pageReq.push(r)
}

// getFetchPayload returns a remote-fetch reply record with its own
// page buffer and version row, for the home NI to fill.
func (rp *recordPool) getFetchPayload() *fetchPayload {
	if r, ok := rp.fp.pop(); ok {
		return r
	}
	// Pool miss: build a chunk of records over one backing array per
	// field, so a growing in-flight window costs three allocations per
	// eight records.
	nn, ps := rp.nodes, rp.pageSize
	chunk := make([]fetchPayload, 8)
	vers := make([]uint64, len(chunk)*nn)
	pages := make([]byte, len(chunk)*ps)
	for i := len(chunk) - 1; i >= 0; i-- {
		chunk[i].ver = vers[i*nn : (i+1)*nn : (i+1)*nn]
		chunk[i].data = pages[i*ps : (i+1)*ps : (i+1)*ps]
		if i > 0 {
			rp.fp.push(&chunk[i])
		}
	}
	return &chunk[0]
}

func (rp *recordPool) putFetchPayload(r *fetchPayload) { rp.fp.push(r) }

func (rp *recordPool) getDiff() *diffMsg {
	if r, ok := rp.diff.pop(); ok {
		return r
	}
	// Presize fresh records so DiffCopy does not regrow runs/buf word
	// by word on first use (buf holds at most one page of changed
	// bytes), and chunk them: diff records go in flight in bursts at
	// interval close, so misses cluster.
	ps := rp.pageSize
	chunk := make([]diffMsg, 4)
	runsBack := make([]memory.Run, len(chunk)*64)
	bufBack := make([]byte, len(chunk)*ps)
	for i := len(chunk) - 1; i >= 0; i-- {
		chunk[i].runs = runsBack[i*64 : i*64 : (i+1)*64]
		chunk[i].buf = bufBack[i*ps : i*ps : (i+1)*ps]
		if i > 0 {
			rp.diff.push(&chunk[i])
		}
	}
	return &chunk[0]
}

func (rp *recordPool) putDiff(d *diffMsg) {
	d.runs = d.runs[:0]
	rp.diff.push(d)
}

func (rp *recordPool) getLockReq() *lockReqMsg {
	if r, ok := rp.lockReq.pop(); ok {
		return r
	}
	nn := rp.nodes
	chunk := make([]lockReqMsg, 8)
	vcs := make([]uint64, len(chunk)*nn)
	for i := len(chunk) - 1; i >= 0; i-- {
		chunk[i].reqVC = vcs[i*nn : (i+1)*nn : (i+1)*nn]
		if i > 0 {
			rp.lockReq.push(&chunk[i])
		}
	}
	return &chunk[0]
}

func (rp *recordPool) putLockReq(r *lockReqMsg) { rp.lockReq.push(r) }

func (rp *recordPool) getGrant() *lockGrant {
	if r, ok := rp.grant.pop(); ok {
		return r
	}
	nn := rp.nodes
	chunk := make([]lockGrant, 8)
	vcs := make([]uint64, len(chunk)*nn)
	for i := len(chunk) - 1; i >= 0; i-- {
		chunk[i].vc = vcs[i*nn : (i+1)*nn : (i+1)*nn]
		if i > 0 {
			rp.grant.push(&chunk[i])
		}
	}
	return &chunk[0]
}

func (rp *recordPool) putGrant(g *lockGrant) {
	g.intervals = g.intervals[:0]
	rp.grant.push(g)
}

func (rp *recordPool) getVCMsg() *vcMsg {
	if r, ok := rp.vcMsg.pop(); ok {
		return r
	}
	nn := rp.nodes
	chunk := make([]vcMsg, 8)
	vcs := make([]uint64, len(chunk)*nn)
	for i := len(chunk) - 1; i >= 0; i-- {
		chunk[i].vc = vcs[i*nn : (i+1)*nn : (i+1)*nn]
		if i > 0 {
			rp.vcMsg.push(&chunk[i])
		}
	}
	return &chunk[0]
}

func (rp *recordPool) putVCMsg(m *vcMsg) { rp.vcMsg.push(m) }

func (rp *recordPool) getRunDep() *runDep {
	if r, ok := rp.runDep.pop(); ok {
		return r
	}
	// Direct diffs put one runDep in flight per run of a page diff, so
	// misses come in bursts; chunk them.
	chunk := make([]runDep, 16)
	for i := len(chunk) - 1; i > 0; i-- {
		rp.runDep.push(&chunk[i])
	}
	return &chunk[0]
}

func (rp *recordPool) putRunDep(r *runDep) {
	r.run = memory.Run{}
	rp.runDep.push(r)
}

func (rp *recordPool) getVerMark() *verMark {
	if r, ok := rp.verMark.pop(); ok {
		return r
	}
	chunk := make([]verMark, 8)
	for i := len(chunk) - 1; i > 0; i-- {
		rp.verMark.push(&chunk[i])
	}
	return &chunk[0]
}

func (rp *recordPool) putVerMark(v *verMark) {
	v.d = nil
	rp.verMark.push(v)
}

func (rp *recordPool) getSGDep() *sgDep {
	if r, ok := rp.sgDep.pop(); ok {
		return r
	}
	return &sgDep{}
}

func (rp *recordPool) putSGDep(m *sgDep) {
	m.d = nil
	rp.sgDep.push(m)
}

// getInv returns a zero-length invalidation scratch slice. applyUpTo can
// nest (closePageEarly yields and another processor may enter applyUpTo),
// so the scratch comes from a free list rather than a single field.
func (rp *recordPool) getInv() []int {
	if s, ok := rp.inv.pop(); ok {
		return s[:0]
	}
	return make([]int, 0, 16)
}

func (rp *recordPool) putInv(s []int) { rp.inv.push(s) }

// getVec returns a zeroed per-node vector for a live barrier epoch.
func (rp *recordPool) getVec() []uint64 {
	if v, ok := rp.vec.pop(); ok {
		clear(v)
		return v
	}
	return make([]uint64, rp.nodes)
}

func (rp *recordPool) putVec(v []uint64) { rp.vec.push(v) }

// Shared packet deliverers: singletons invoked by the NI when the final
// packet of a protocol message lands, so no send builds a closure.
// Stateless ones are package-level; the ones that must map pkt.Dst to a
// *Node live on System.

// pageReplyDeliver completes a Base page fetch: the reply data was
// written into the pooled request record at reply time, so delivery
// only wakes the requester.
type pageReplyDeliver struct{}

var pageReplyDel pageReplyDeliver

func (pageReplyDeliver) Deliver(pkt *nic.Packet) { pkt.Payload.(*pageReqMsg).done.Set() }

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
// barArriveMsg), so delivery only reads it.
type barFlagDeliver struct{ s *System }

func (d *barFlagDeliver) Deliver(pkt *nic.Packet) {
	d.s.Nodes[pkt.Dst].depositBarFlag(pkt.Payload.(*barArriveMsg))
}
