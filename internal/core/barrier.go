package core

import (
	"fmt"

	"genima/internal/sim"
	"genima/internal/vmmc"
)

// Barrier synchronization.
//
// Base: a centralized barrier. Each node's last-arriving processor (the
// node leader) closes the write interval, flushes diffs, and sends an
// arrival message — carrying the intervals the node created this epoch —
// to the barrier master (node 0), interrupting it. When all nodes have
// arrived, the master broadcasts a release message with the union of
// intervals; every node's leader applies the invalidations.
//
// DW and later: barrier control information is deposited directly into
// every node's protocol data structures. Each leader closes its
// interval (notices travel by eager deposit), deposits an arrival flag
// carrying its vector clock to all nodes, and then spins locally until
// all flags arrive — no interrupts anywhere. Invalidations (and their
// mprotect) are applied locally before leaving.

// barArriveMsg is an arrival record: a DW flag deposit (one record
// fanned out to all peers) or a Base arrival sent to the master. Each
// node owns two, picked by epoch parity (barArrAt); readers never
// release or copy them.
//
// Parity reuse is safe because a node reuses the epoch-k record only
// when it starts barrier k+2, after it has passed barrier k+1. DW: it
// passed k+1 only once every peer's k+1 flag arrived, and a peer sends
// that flag only after it has left barrier k, which needed this node's
// k flag — so every delivery of the k record has run. Base: the master
// released k+1 only after aggregating every k+1 arrival, which it
// processed after its own k aggregation had read the record. A
// retransmitted copy of an old deposit may still point at the record,
// but the reliability gate discards duplicates before delivery
// dereferences the payload.
type barArriveMsg struct {
	src       int
	seq       int
	vc        []uint64
	intervals []*interval
}

func (m *barArriveMsg) wireSize() int {
	n := 16 + 8*len(m.vc)
	for _, iv := range m.intervals {
		n += iv.wireSize()
	}
	return n
}

// barReleaseMsg is the master's release (Base): one record shared by
// all Nodes deliveries. The master owns two, picked by epoch parity
// (barRelAt); the epoch-k record is rebuilt for k+2 only after every
// node arrived at k+2, and each node's leader finished applying
// release k before its node arrived at k+1. The interval union is
// swapped out of the master's epoch state, not copied.
type barReleaseMsg struct {
	seq       int
	vc        []uint64
	intervals []*interval
}

func (m *barReleaseMsg) wireSize() int {
	n := 16 + 8*len(m.vc)
	for _, iv := range m.intervals {
		n += iv.wireSize()
	}
	return n
}

// barEpoch is one slot of the per-node barrier epoch ring, replacing
// seven per-seq maps. A slot is recycled when a new epoch claims it;
// the embedded Flag/Counter Reset guards panic if the old epoch still
// had parked waiters (i.e. the 4-slot window was violated).
type barEpoch struct {
	seq   int         // epoch using this slot; -1 = never used
	count sim.Counter // DW: arrival flags deposited
	vc    []uint64    // DW: element-wise max vc of arrivals while the epoch is live (nil otherwise)
	flag  sim.Flag    // Base: release arrived
	rel   *barReleaseMsg

	// Intra-node arrival bookkeeping.
	localArrived int
	localDone    sim.Flag

	// Base master aggregation (node 0 only; mVC is nil elsewhere).
	mArrived int
	mVC      []uint64
	mIvs     []*interval
}

// reset recycles the slot for epoch seq. The previous epoch returned
// its arrival vector when it retired; only the Base master's mVC stays.
func (e *barEpoch) reset(seq int) {
	e.seq = seq
	e.count.Reset()
	e.flag.Reset()
	e.rel = nil
	e.localArrived = 0
	e.localDone.Reset()
	e.mArrived = 0
	clear(e.mVC)
	e.mIvs = e.mIvs[:0]
}

// barArrAt returns this node's arrival record for epoch seq, emptied
// and stamped. The two records alternate by parity; see barArriveMsg
// for why the epoch-(seq-2) record is free by now.
func (n *Node) barArrAt(seq int) *barArriveMsg {
	m := n.barArr[seq&1]
	if m == nil {
		m = &barArriveMsg{vc: make([]uint64, n.sys.Cfg.Nodes)}
		n.barArr[seq&1] = m
	}
	m.src, m.seq = n.ID, seq
	m.intervals = m.intervals[:0]
	return m
}

// barRelAt returns the master's release record for epoch seq (Base),
// stamped, with the previous use's intervals for the caller to reuse.
func (n *Node) barRelAt(seq int) *barReleaseMsg {
	m := n.barRel[seq&1]
	if m == nil {
		m = &barReleaseMsg{vc: make([]uint64, n.sys.Cfg.Nodes)}
		n.barRel[seq&1] = m
	}
	m.seq = seq
	return m
}

// barEpochAt returns the epoch record for barrier seq, claiming (and
// recycling) its ring slot on first use; under DW the claim takes an
// arrival vector from the LP's record pool. At most two epochs are
// live at once — a slow node still inside epoch k while fast peers
// deposit k+1 flags — so by the time epoch k+4 claims k's slot, k has
// fully drained (every local waiter of k resumed before arriving at
// k+1).
func (n *Node) barEpochAt(seq int) *barEpoch {
	e := &n.barEpochs[seq&3]
	if e.seq != seq {
		if e.seq > seq {
			panic(fmt.Sprintf("core: barrier epoch %d claims slot still held by %d at node %d", seq, e.seq, n.ID))
		}
		e.reset(seq)
		if n.sys.Feat.DW {
			e.vc = n.pool.getVec()
		}
	}
	return e
}

// Barrier blocks the calling processor until all processors in the
// system arrive. The node leader adds the protocol-processing share of
// its elapsed time, as opposed to wait, to Acct.BarrierProto (Table 2).
func (n *Node) Barrier(p *sim.Proc) {
	seq := n.barSeq
	e := n.barEpochAt(seq)
	e.localArrived++
	if e.localArrived < n.sys.Cfg.ProcsPerNode {
		// Not the node leader: wait for the leader to finish the epoch.
		e.localDone.Wait(p)
		return
	}
	// Node leader (last local arriver): advance the node's epoch and
	// run the node's barrier protocol.
	n.barSeq++
	var proto sim.Time
	switch {
	case n.sys.Feat.DW && n.sys.Cfg.Collectives && n.sys.Cfg.Nodes > 1:
		proto = n.barrierColl(p, seq)
	case n.sys.Feat.DW:
		proto = n.barrierDW(p, seq)
	default:
		proto = n.barrierBase(p, seq)
	}
	n.Acct.BarrierProto += proto
	e.localDone.Set()
	if e.vc != nil {
		// Every arrival was merged and read: the epoch retires and its
		// vector returns to the pool.
		n.pool.vec.Push(e.vc)
		e.vc = nil
	}
}

// barrierDW is the interrupt-free flag barrier (DW and later).
func (n *Node) barrierDW(p *sim.Proc, seq int) sim.Time {
	t0 := p.Now()
	n.closeInterval(p) // diffs + eager notices
	// Record own arrival locally, then deposit the flag everywhere: one
	// parity-owned record fanned out to every peer.
	e := n.barEpochAt(seq)
	vecMergeMax(e.vc, n.vc)
	e.count.Add(1)
	if n.sys.Cfg.Nodes > 1 {
		m := n.barArrAt(seq)
		copy(m.vc, n.vc)
		for dst := 0; dst < n.sys.Cfg.Nodes; dst++ {
			if dst == n.ID {
				continue
			}
			n.ep.DepositTo(p, dst, m.wireSize(), "bar-flag", m, &n.sys.barFlagDel)
		}
	}
	protoSoFar := p.Now() - t0

	// Wait for every node's flag (pure wait time).
	e.count.WaitFor(p, uint64(n.sys.Cfg.Nodes))

	// Apply invalidations for everything the barrier saw (e.vc is
	// stable once the counter reaches Nodes: no further deposits for
	// this epoch can arrive, and the slot outlives the leader). Waiting
	// for in-flight notices counts as protocol time too: it is
	// communication the protocol deferred to the barrier.
	t1 := p.Now()
	n.waitNotices(p, e.vc)
	n.applyUpTo(p, e.vc)
	return protoSoFar + (p.Now() - t1)
}

// barrierColl is the NI-firmware tree barrier (DW and later, with
// Config.Collectives): the leader contributes its vector clock to the
// k-ary reduction tree rooted at node 0 and blocks until the combined
// vector is DMA'd back by the broadcast phase — one post instead of
// Nodes-1, and every combine/fan-out step runs in NI memory with no
// host interrupts anywhere.
func (n *Node) barrierColl(p *sim.Proc, seq int) sim.Time {
	t0 := p.Now()
	n.closeInterval(p) // diffs + eager (tree-broadcast) notices
	e := n.barEpochAt(seq)
	n.ep.NI().ColBarrierArrive(p, seq, n.vc)
	protoSoFar := p.Now() - t0

	// Wait for the released epoch (pure wait time); the sink stored the
	// combined vector in e.vc before setting the flag.
	e.flag.Wait(p)

	t1 := p.Now()
	n.waitNotices(p, e.vc)
	n.applyUpTo(p, e.vc)
	return protoSoFar + (p.Now() - t1)
}

// colBarSink receives completed tree-barrier epochs from the NI layer
// (engine context on the landing node's LP).
type colBarSink struct{ s *System }

// ColBarrierDone implements nic.ColBarrierSink.
func (k *colBarSink) ColBarrierDone(node, seq int, vec []uint64) {
	n := k.s.Nodes[node]
	e := n.barEpochAt(seq)
	copy(e.vc, vec) // vec is the collective layer's buffer: copy, don't keep
	e.flag.Set()
}

// depositBarFlag records a remote node's barrier arrival (engine
// context; deposited by the NI).
func (n *Node) depositBarFlag(m *barArriveMsg) {
	e := n.barEpochAt(m.seq)
	vecMergeMax(e.vc, m.vc)
	e.count.Add(1)
}

// barrierBase is the centralized interrupt-driven barrier.
func (n *Node) barrierBase(p *sim.Proc, seq int) sim.Time {
	t0 := p.Now()
	prevSelf := n.lastBarSelfSeq
	n.closeInterval(p)
	n.lastBarSelfSeq = n.vc[n.ID]
	arrive := n.barArrAt(seq)
	copy(arrive.vc, n.vc)
	arrive.intervals = n.appendIntervalsAfter(arrive.intervals, n.ID, prevSelf, n.vc[n.ID])
	if n.ID == 0 {
		n.proto.HandleMsg(localMsg(vmmc.MsgBarArrive, arrive))
	} else {
		n.ep.SendInterrupt(p, 0, arrive.wireSize(), vmmc.MsgBarArrive, arrive)
	}
	protoSoFar := p.Now() - t0

	// Wait for the master's release (wait time).
	e := n.barEpochAt(seq)
	e.flag.Wait(p)
	rel := e.rel

	// Apply the released coherence information (protocol time).
	t2 := p.Now()
	for _, iv := range rel.intervals {
		if iv.Src != n.ID {
			n.recordInterval(iv)
		}
	}
	n.applyUpTo(p, rel.vc)
	return protoSoFar + (p.Now() - t2)
}

// handleBarArrive aggregates a barrier arrival at the master (protocol
// process); the last arrival builds the release and sends it to every
// node.
func (n *Node) handleBarArrive(p *sim.Proc, m *barArriveMsg) {
	e := n.barEpochAt(m.seq)
	e.mArrived++
	vecMergeMax(e.mVC, m.vc)
	e.mIvs = append(e.mIvs, m.intervals...) // intervals are arena-backed
	if e.mArrived < n.sys.Cfg.Nodes {
		return
	}
	rel := n.barRelAt(m.seq)
	copy(rel.vc, e.mVC)
	// Hand the interval union to the release record by swapping slices:
	// the epoch keeps the (empty) old backing for its next reuse.
	rel.intervals, e.mIvs = e.mIvs, rel.intervals[:0]
	for dst := 0; dst < n.sys.Cfg.Nodes; dst++ {
		if dst == n.ID {
			n.handleBarRelease(rel)
			continue
		}
		n.ep.SendInterrupt(p, dst, rel.wireSize(), vmmc.MsgBarRelease, rel)
	}
}

// handleBarRelease delivers the release to the waiting node leader.
func (n *Node) handleBarRelease(m *barReleaseMsg) {
	e := n.barEpochAt(m.seq)
	e.rel = m
	e.flag.Set()
}
