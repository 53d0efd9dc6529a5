package core

import (
	"genima/internal/memory"
	"genima/internal/nic"
)

// Deterministic free lists for protocol records, one set per node.
//
// Ownership rules (see DESIGN.md §7): a record is taken from some
// node's free list, travels through the protocol as a typed packet
// payload, and is released — possibly at a different node — by the
// single party the protocol designates as its final consumer. Records
// therefore migrate between per-node pools; the engine is
// single-threaded, so the migration order (and hence every Get) is
// deterministic. Embedded sim.Flag values are Reset (not reallocated)
// when a record is recycled, which is safe only after the flag's
// waiters have resumed — the protocol guarantees a record's waiter has
// consumed the result before the record is released.

func (n *Node) getPageReq() *pageReqMsg {
	if k := len(n.pageReqFree); k > 0 {
		r := n.pageReqFree[k-1]
		n.pageReqFree[k-1] = nil
		n.pageReqFree = n.pageReqFree[:k-1]
		return r
	}
	nn := n.sys.Cfg.Nodes
	return &pageReqMsg{need: make([]uint64, nn), ver: make([]uint64, nn)}
}

func (n *Node) putPageReq(r *pageReqMsg) {
	r.data = nil
	r.done.Reset()
	n.pageReqFree = append(n.pageReqFree, r)
}

func (n *Node) getFetchPayload() *fetchPayload {
	if k := len(n.fpFree); k > 0 {
		r := n.fpFree[k-1]
		n.fpFree[k-1] = nil
		n.fpFree = n.fpFree[:k-1]
		return r
	}
	// Pool miss: build a chunk of records over one backing version
	// array, so a growing in-flight window costs two allocations per
	// eight records.
	nn := n.sys.Cfg.Nodes
	chunk := make([]fetchPayload, 8)
	vers := make([]uint64, len(chunk)*nn)
	for i := len(chunk) - 1; i >= 0; i-- {
		chunk[i].ver = vers[i*nn : (i+1)*nn : (i+1)*nn]
		if i > 0 {
			n.fpFree = append(n.fpFree, &chunk[i])
		}
	}
	return &chunk[0]
}

func (n *Node) putFetchPayload(r *fetchPayload) {
	r.data = nil
	n.fpFree = append(n.fpFree, r)
}

func (n *Node) getDiff() *diffMsg {
	if k := len(n.diffFree); k > 0 {
		r := n.diffFree[k-1]
		n.diffFree[k-1] = nil
		n.diffFree = n.diffFree[:k-1]
		return r
	}
	// Presize fresh records so DiffCopy does not regrow runs/buf word
	// by word on first use (buf holds at most one page of changed
	// bytes), and chunk them: diff records go in flight in bursts at
	// interval close, so misses cluster.
	ps := n.sys.Cfg.PageSize
	chunk := make([]diffMsg, 4)
	runsBack := make([]memory.Run, len(chunk)*64)
	bufBack := make([]byte, len(chunk)*ps)
	for i := len(chunk) - 1; i >= 0; i-- {
		chunk[i].runs = runsBack[i*64 : i*64 : (i+1)*64]
		chunk[i].buf = bufBack[i*ps : i*ps : (i+1)*ps]
		if i > 0 {
			n.diffFree = append(n.diffFree, &chunk[i])
		}
	}
	return &chunk[0]
}

func (n *Node) putDiff(d *diffMsg) {
	d.runs = d.runs[:0]
	n.diffFree = append(n.diffFree, d)
}

func (n *Node) getLockReq() *lockReqMsg {
	if k := len(n.lockReqFree); k > 0 {
		r := n.lockReqFree[k-1]
		n.lockReqFree[k-1] = nil
		n.lockReqFree = n.lockReqFree[:k-1]
		return r
	}
	nn := n.sys.Cfg.Nodes
	chunk := make([]lockReqMsg, 8)
	vcs := make([]uint64, len(chunk)*nn)
	for i := len(chunk) - 1; i >= 0; i-- {
		chunk[i].reqVC = vcs[i*nn : (i+1)*nn : (i+1)*nn]
		if i > 0 {
			n.lockReqFree = append(n.lockReqFree, &chunk[i])
		}
	}
	return &chunk[0]
}

func (n *Node) putLockReq(r *lockReqMsg) {
	n.lockReqFree = append(n.lockReqFree, r)
}

func (n *Node) getGrant() *lockGrant {
	if k := len(n.grantFree); k > 0 {
		r := n.grantFree[k-1]
		n.grantFree[k-1] = nil
		n.grantFree = n.grantFree[:k-1]
		return r
	}
	nn := n.sys.Cfg.Nodes
	chunk := make([]lockGrant, 8)
	vcs := make([]uint64, len(chunk)*nn)
	for i := len(chunk) - 1; i >= 0; i-- {
		chunk[i].vc = vcs[i*nn : (i+1)*nn : (i+1)*nn]
		if i > 0 {
			n.grantFree = append(n.grantFree, &chunk[i])
		}
	}
	return &chunk[0]
}

func (n *Node) putGrant(g *lockGrant) {
	g.intervals = g.intervals[:0]
	n.grantFree = append(n.grantFree, g)
}

func (n *Node) getVCMsg() *vcMsg {
	if k := len(n.vcMsgFree); k > 0 {
		r := n.vcMsgFree[k-1]
		n.vcMsgFree[k-1] = nil
		n.vcMsgFree = n.vcMsgFree[:k-1]
		return r
	}
	nn := n.sys.Cfg.Nodes
	chunk := make([]vcMsg, 8)
	vcs := make([]uint64, len(chunk)*nn)
	for i := len(chunk) - 1; i >= 0; i-- {
		chunk[i].vc = vcs[i*nn : (i+1)*nn : (i+1)*nn]
		if i > 0 {
			n.vcMsgFree = append(n.vcMsgFree, &chunk[i])
		}
	}
	return &chunk[0]
}

func (n *Node) putVCMsg(m *vcMsg) {
	n.vcMsgFree = append(n.vcMsgFree, m)
}

func (n *Node) getRunDep() *runDep {
	if k := len(n.runDepFree); k > 0 {
		r := n.runDepFree[k-1]
		n.runDepFree[k-1] = nil
		n.runDepFree = n.runDepFree[:k-1]
		return r
	}
	// Direct diffs put one runDep in flight per run of a page diff, so
	// misses come in bursts; chunk them.
	chunk := make([]runDep, 16)
	for i := len(chunk) - 1; i > 0; i-- {
		n.runDepFree = append(n.runDepFree, &chunk[i])
	}
	return &chunk[0]
}

func (n *Node) putRunDep(r *runDep) {
	r.run = memory.Run{}
	n.runDepFree = append(n.runDepFree, r)
}

func (n *Node) getVerMark() *verMark {
	if k := len(n.verMarkFree); k > 0 {
		r := n.verMarkFree[k-1]
		n.verMarkFree[k-1] = nil
		n.verMarkFree = n.verMarkFree[:k-1]
		return r
	}
	chunk := make([]verMark, 8)
	for i := len(chunk) - 1; i > 0; i-- {
		n.verMarkFree = append(n.verMarkFree, &chunk[i])
	}
	return &chunk[0]
}

func (n *Node) putVerMark(v *verMark) {
	v.d = nil
	n.verMarkFree = append(n.verMarkFree, v)
}

func (n *Node) getSGDep() *sgDep {
	if k := len(n.sgDepFree); k > 0 {
		r := n.sgDepFree[k-1]
		n.sgDepFree[k-1] = nil
		n.sgDepFree = n.sgDepFree[:k-1]
		return r
	}
	return &sgDep{}
}

func (n *Node) putSGDep(m *sgDep) {
	m.d = nil
	n.sgDepFree = append(n.sgDepFree, m)
}

// getInv returns a zero-length invalidation scratch slice. applyUpTo can
// nest (closePageEarly yields and another processor may enter applyUpTo),
// so the scratch comes from a free list rather than a single field.
func (n *Node) getInv() []int {
	if k := len(n.invFree); k > 0 {
		s := n.invFree[k-1]
		n.invFree[k-1] = nil
		n.invFree = n.invFree[:k-1]
		return s[:0]
	}
	return make([]int, 0, 16)
}

func (n *Node) putInv(s []int) {
	n.invFree = append(n.invFree, s)
}

// Shared packet deliverers: singletons invoked by the NI when the final
// packet of a protocol message lands, replacing per-send OnDeliver
// closures. Stateless ones are package-level; the ones that must map
// pkt.Dst to a *Node live on System.

// pageReplyDeliver completes a Base page fetch: the reply data was
// written into the pooled request record at reply time, so delivery
// only wakes the requester.
type pageReplyDeliver struct{}

var pageReplyDel pageReplyDeliver

func (pageReplyDeliver) Deliver(pkt *nic.Packet) { pkt.Payload.(*pageReqMsg).done.Set() }

// runDepDeliver applies one direct-diff run into the home copy (DD: the
// destination NI deposits the run, no host involvement). The record is
// freed into the destination node's pool — delivery runs on the
// destination's logical process, and the origin node may be executing
// concurrently, so its free list must not be touched here.
type runDepDeliver struct{}

var runDepDel runDepDeliver

func (runDepDeliver) Deliver(pkt *nic.Packet) {
	rd := pkt.Payload.(*runDep)
	memory.ApplyRun(rd.owner.sys.Space.HomeCopy(rd.pg), rd.run)
	rd.owner.sys.Nodes[pkt.Dst].putRunDep(rd)
}

// verMarkDeliver lands a direct-diff version marker. Per-pair FIFO
// delivery guarantees the run deposits (sent first) have already been
// applied, so the diff record whose buffer they aliased can be freed —
// into the home's pool: delivery runs on the home's logical process.
type verMarkDeliver struct{}

var verMarkDel verMarkDeliver

func (verMarkDeliver) Deliver(pkt *nic.Packet) {
	vm := pkt.Payload.(*verMark)
	vm.home.bumpVersion(vm.pg, vm.origin.ID, vm.seq)
	if vm.d != nil {
		vm.home.putDiff(vm.d)
	}
	vm.home.putVerMark(vm)
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
