package core

import (
	"sort"

	"genima/internal/sim"
)

// DigestInto folds the whole protocol system's live state — per-node
// page tables, vector clocks, flat version-vector tables, lock caches,
// barrier epoch rings, the resumable protocol machine — into d, for
// checkpoint verification. Maps are folded in sorted key order. Pooled
// protocol records are not folded: they are fungible host caches whose
// placement does not affect the simulation.
func (s *System) DigestInto(d *sim.Digest) {
	d.U64(uint64(s.Kind))
	d.U64(uint64(len(s.Nodes)))
	for _, n := range s.Nodes {
		n.digestInto(d)
	}
}

func (n *Node) digestInto(d *sim.Digest) {
	if n.Mem != nil {
		n.Mem.DigestInto(d)
	}
	for _, st := range n.state {
		d.U64(uint64(st))
	}
	for i := range n.fetching {
		d.Bool(n.fetching[i])
		d.U64(uint64(n.fetchQ[i].Len()))
	}
	for i := range n.homeWaitQ {
		d.U64(uint64(n.homeWaitQ[i].Len()))
	}
	for _, v := range n.vc {
		d.U64(v)
	}
	for i := range n.log {
		var arrived uint64
		if c := n.log[i].arrived; c != nil {
			arrived = c.Value()
		}
		d.U64(arrived)
		d.U64(uint64(len(n.log[i].ivs)))
	}
	n.need.digestInto(d)
	n.copyVer.digestInto(d)
	n.homeVer.digestInto(d)
	for _, set := range n.copyVerSet {
		d.Bool(set)
	}
	for _, dirty := range n.dirtySet {
		d.Bool(dirty)
	}
	d.U64(uint64(len(n.dirtyList)))
	n.ivGate.DigestInto(d)

	pages := make([]int, 0, len(n.pendingReqs))
	for pg := range n.pendingReqs {
		pages = append(pages, pg)
	}
	sort.Ints(pages)
	for _, pg := range pages {
		d.U64(uint64(pg))
		d.U64(uint64(len(n.pendingReqs[pg])))
	}

	ids := make([]int, 0, len(n.locks))
	for id := range n.locks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		lk := n.locks[id]
		d.U64(uint64(id))
		d.Bool(lk.cached)
		d.Bool(lk.held)
		d.Bool(lk.requesting)
		d.Bool(lk.releasing)
		d.U64(uint64(lk.localQ.Len()))
		d.Bool(lk.wantGrant)
		d.Bool(lk.pendingReq)
		d.U64(uint64(lk.pendingRequester))
	}
	ids = ids[:0]
	for id := range n.lockDir {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d.U64(uint64(id))
		d.U64(uint64(n.lockDir[id].lastOwner))
	}

	n.pm.digestInto(d)

	d.U64(uint64(n.barSeq))
	d.U64(n.lastBarSelfSeq)
	for i := range n.barEpochs {
		e := &n.barEpochs[i]
		d.U64(uint64(e.seq))
		d.U64(e.count.Value())
		digestVec(d, e.vc, len(n.vc))
		d.Bool(e.flag.IsSet())
		d.Bool(e.rel != nil)
		d.U64(uint64(e.localArrived))
		d.Bool(e.localDone.IsSet())
		d.U64(uint64(e.mArrived))
		digestVec(d, e.mVC, len(n.vc))
		d.U64(uint64(len(e.mIvs)))
	}

	for _, t := range n.steal {
		d.I64(t)
	}
	d.U64(uint64(n.victim))

	// Pooled records are fungible host caches, not simulated state: the
	// ten slots the per-node free lists once held fold as zeros, so the
	// pinned digests stay stable. The interval arena is live state (its
	// entries are logged intervals): lengths only.
	for i := 0; i < 10; i++ {
		d.U64(0)
	}
	d.U64(uint64(len(n.ivChunk)))
	d.U64(uint64(len(n.ivPages)))

	n.Acct.DigestInto(d)
}

// digestVec folds a per-node vector of length nodes; an unallocated
// one digests as the zero vector it stands for.
func digestVec(d *sim.Digest, v []uint64, nodes int) {
	if v == nil {
		for i := 0; i < nodes; i++ {
			d.U64(0)
		}
		return
	}
	for _, x := range v {
		d.U64(x)
	}
}

func (t *vecTable) digestInto(d *sim.Digest) {
	for _, v := range t.a {
		d.U64(v)
	}
}

func (pm *protoMachine) digestInto(d *sim.Digest) {
	d.U64(uint64(pm.st))
	d.U64(uint64(len(pm.q) - pm.head))
	for i := pm.head; i < len(pm.q); i++ {
		m := &pm.q[i]
		d.U64(uint64(m.Src))
		d.U64(uint64(m.Kind))
	}
	d.Bool(pm.gateBlocked)
	d.U64(uint64(pm.sendDst))
	d.U64(uint64(pm.sendRem))
	d.Str(pm.sendLabel)
	d.U64(uint64(pm.sendMeta))
	d.Bool(pm.sendSG)
	d.U64(uint64(pm.sendRet))
	d.Bool(pm.d != nil)
	d.U64(uint64(pm.retryPage))
	d.Bool(pm.lkReq != nil)
	d.Bool(pm.ivCur != nil)
	d.U64(pm.ivSeq)
	d.U64(uint64(pm.pageIdx))
	d.U64(uint64(pm.fpPg))
	d.U64(uint64(pm.fpHome))
	d.U64(uint64(pm.runIdx))
	d.U64(uint64(pm.noticeDst))
}
