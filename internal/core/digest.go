package core

import "genima/internal/sim"

// DigestInto folds the whole protocol system's live state — per-node
// page tables, vector clocks, flat version-vector tables, lock caches,
// barrier epoch rings, the protocol process's queue — into d, for
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
	for _, l := range n.log {
		var arrived, ivs uint64
		if l != nil {
			if l.arrived != nil {
				arrived = l.arrived.Value()
			}
			ivs = uint64(len(l.ivs))
		}
		d.U64(arrived)
		d.U64(ivs)
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

	for _, pg := range sim.SortedKeys(n.pendingReqs) {
		d.U64(uint64(pg))
		d.U64(uint64(len(n.pendingReqs[pg])))
	}

	for _, id := range sim.SortedKeys(n.locks) {
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
	for _, id := range sim.SortedKeys(n.lockDir) {
		d.U64(uint64(id))
		d.U64(uint64(n.lockDir[id].lastOwner))
	}

	n.proto.digestInto(d)

	d.U64(uint64(n.barSeq))
	d.U64(n.lastBarSelfSeq)
	for i := range n.barEpochs {
		e := &n.barEpochs[i]
		d.U64(uint64(e.seq))
		d.U64(e.count.Value())
		digestVec(d, e.vc, len(n.vc)) // nil once the epoch retired
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

// digestInto folds every row, an absent one as the zero row it reads
// as, so a lazy table digests exactly like the dense one it stands for.
func (t *vecTable) digestInto(d *sim.Digest) {
	for pg := range t.rows {
		for _, v := range t.row(pg) {
			d.U64(v)
		}
	}
}

// digestInto folds whether the protocol process is busy (servicing
// messages rather than parked on an empty queue) and the messages still
// queued for it. Its resume point inside a message body is not folded:
// that is control state, not protocol state.
func (pp *protoProc) digestInto(d *sim.Digest) {
	d.Bool(pp.busy)
	d.U64(uint64(len(pp.q) - pp.head))
	for i := pp.head; i < len(pp.q); i++ {
		m := &pp.q[i]
		d.U64(uint64(m.Src))
		d.U64(uint64(m.Kind))
	}
}
