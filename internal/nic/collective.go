package nic

// NI-firmware collective trees (the scaling extension of the paper's
// "let the NI do it synchronously" thesis, cf. the NI-based collective
// results on Quadrics/Myrinet in PAPERS.md): barrier reduction and
// write-notice broadcast run over a k-ary tree whose combine and
// fan-out steps execute in NI memory. No host interrupt is ever taken:
// every tree hop is a firmware-handled packet (FwHandler), the only
// host involvement is the source's post/DMA and each destination's
// final deposit DMA. Hops are ordinary pipeline packets, so they ride
// under go-back-N reliable delivery for free — the receive gate at the
// destination-firmware stage retransmits/suppresses before the
// collective handler ever runs, giving exactly-once, in-order handler
// invocation per (parent, child) edge even at 1% drop.
//
// Trees are virtual: for root r over N nodes, node id maps to
// v = (id-r+N) mod N, with parent (v-1)/k and children kv+1..kv+k.
// Barriers use the fixed root 0; broadcasts are rooted at the source,
// so every source's notices follow one fixed tree — which preserves
// the per-source FIFO delivery order the interval arrival counters
// rely on (see core.depositNotice): each tree edge is a FIFO resource
// chain, forwarding happens in arrival order on the FIFO firmware
// processor, and reliable delivery restores seq order under faults.
//
// Pool ownership (DESIGN §7/§10): colMsg combine buffers and the
// deliver/host-op records are drawn from the LP-local free lists of
// the NI that allocates them and freed by their final consumer into
// *that consumer's* NI free list — records migrate between pools,
// mutation stays LP-local. A retransmitted packet may still hold a
// pointer to a freed (and even reused) colMsg, but the reliability
// gate discards duplicates before the handler dereferences anything,
// the same argument that covers diff/interval payloads.

import (
	"fmt"

	"genima/internal/sim"
)

// ColBarrierSink receives completed tree-barrier epochs: the combined
// version vector for epoch seq has been DMA'd into node's host memory.
// The vec slice is owned by the collective layer and valid only during
// the call; implementations must copy what they keep.
type ColBarrierSink interface {
	ColBarrierDone(node, seq int, vec []uint64)
}

// colMsg is a pooled NI-memory combine buffer: one version vector
// traveling (or being accumulated) through the tree.
type colMsg struct {
	vec []uint64
}

// colOp is one in-flight barrier epoch's combine state at this NI.
// Epochs use a 4-slot ring keyed by seq&3, mirroring the host-side
// barrier epoch ring: contributions for epoch k+1 may arrive while the
// local host is still in epoch k, but global barrier semantics bound
// the spread well below 4 (a release of k+1 needs every node past k).
type colOp struct {
	seq    int
	got    int
	active bool
	vec    []uint64 // the combined vector while active, nil otherwise
}

// colState is one NI's collective engine, nil unless
// Config.Collectives enabled it for this run's protocol tier.
type colState struct {
	arity int
	nodes int
	sink  ColBarrierSink

	// Barrier tree (root 0) shape for this node, precomputed.
	parent     int
	childCount int

	ops [4]colOp

	vecFree  sim.FreeList[[]uint64] // combine vectors of retired epochs
	msgFree  sim.FreeList[*colMsg]
	delFree  sim.FreeList[*colDeliver]
	hostFree sim.FreeList[*colHostOp]
}

// EnableCollectives switches this NI's barrier/broadcast support onto
// the firmware tree protocol with fan-out k = arity; sink receives
// completed barrier epochs. Call once per NI before the run starts.
func (ni *NI) EnableCollectives(arity int, sink ColBarrierSink) {
	n := ni.cfg.Nodes
	c := &colState{arity: arity, nodes: n, sink: sink}
	c.parent = colParent(ni.ID, 0, n, arity)
	for j := 1; j <= arity; j++ {
		if colChild(ni.ID, 0, n, arity, j) < 0 {
			break
		}
		c.childCount++
	}
	ni.col = c
}

// colParent returns the tree parent of id under root, or -1 for the
// root itself.
func colParent(id, root, n, k int) int {
	v := (id - root + n) % n
	if v == 0 {
		return -1
	}
	return ((v-1)/k + root) % n
}

// colChild returns the j-th (1-based) tree child of id under root, or
// -1 when id has fewer than j children.
func colChild(id, root, n, k, j int) int {
	v := (id - root + n) % n
	cv := k*v + j
	if cv >= n {
		return -1
	}
	return (cv + root) % n
}

// colCombineService is the firmware cost of one NI-memory combine or
// copy step over an n-byte vector.
func (ni *NI) colCombineService(n int) sim.Time {
	return ni.cfg.Costs.NIColCombine + sim.Time(float64(n)*ni.cfg.Costs.NIColPerByte)
}

// getMsg returns a pooled combine message with a node-length vector.
func (c *colState) getMsg() *colMsg {
	return sim.Take(&c.msgFree, 1, func(m []colMsg) { m[0].vec = make([]uint64, c.nodes) })
}

// opAt claims (or finds) the epoch ring slot for seq. Claiming takes a
// combine vector from the free list and colContribute returns it when
// the epoch retires, so the ring holds vectors only for active epochs.
func (c *colState) opAt(seq int) *colOp {
	op := &c.ops[seq&3]
	if !op.active {
		op.active = true
		op.seq = seq
		op.got = 0
		if v, ok := c.vecFree.Pop(); ok {
			op.vec = v // the first contribution overwrites it
		} else {
			op.vec = make([]uint64, c.nodes)
		}
		return op
	}
	if op.seq != seq {
		panic(fmt.Sprintf("nic: collective barrier epoch %d claims slot still owned by epoch %d", seq, op.seq))
	}
	return op
}

// ColBarrierArrive contributes this node's version vector to tree
// barrier epoch seq from host process p: post overhead, a post-queue
// slot, the host->NI DMA of the vector, then a firmware combine step.
// The caller must keep vc unchanged until the sink reports the epoch
// (barrier semantics already guarantee it — the leader blocks).
func (ni *NI) ColBarrierArrive(p *sim.Proc, seq int, vc []uint64) {
	ni.hostPost(p)
	c := ni.col
	m := c.getMsg()
	copy(m.vec, vc)
	h := sim.Take(&c.hostFree, 1, nil)
	h.ni, h.barrier, h.seq, h.m = ni, true, seq, m
	ni.PCI.EnqueueHandler(ni.pciService(8*c.nodes), h)
}

// colContribute merges one contribution (the local host's or a
// child subtree's) into epoch seq; when the local subtree is complete
// the result moves up the tree, or — at the root — back down.
func (ni *NI) colContribute(seq int, vec []uint64) {
	c := ni.col
	op := c.opAt(seq)
	if op.got == 0 {
		copy(op.vec, vec)
	} else {
		for i, v := range vec {
			if v > op.vec[i] {
				op.vec[i] = v
			}
		}
	}
	op.got++
	if op.got < c.childCount+1 {
		return
	}
	op.active = false
	m := c.getMsg()
	copy(m.vec, op.vec)
	if c.parent >= 0 {
		ni.colSendVec(c.parent, seq, "col-up", colUpFw, m)
	} else {
		// Root: the reduction is complete; fan the combined vector out.
		ni.colDown(seq, m)
	}
	// The combined vector has been copied on (up the tree, or out to
	// the children and the host): the retired epoch gives it back.
	c.vecFree.Push(op.vec)
	op.vec = nil
}

// colDown forwards the released vector m of epoch seq to this node's
// tree children and deposits m itself into the local host.
func (ni *NI) colDown(seq int, m *colMsg) {
	c := ni.col
	for j := 1; j <= c.arity; j++ {
		child := colChild(ni.ID, 0, c.nodes, c.arity, j)
		if child < 0 {
			break
		}
		cp := c.getMsg()
		copy(cp.vec, m.vec)
		ni.colSendVec(child, seq, "col-dn", colDnFw, cp)
	}
	d := sim.Take(&c.delFree, 1, nil)
	d.ni, d.barrier, d.seq, d.m = ni, true, seq, m
	ni.PCI.EnqueueHandler(ni.pciService(8*c.nodes), d)
}

// colSendVec emits one tree hop carrying a combine buffer, straight
// from NI memory (no host DMA).
func (ni *NI) colSendVec(dst, seq int, kind string, fw func(*NI, *Packet), m *colMsg) {
	pkt := ni.NewPacket()
	pkt.Src, pkt.Dst = ni.ID, dst
	pkt.Size = 8 * ni.col.nodes
	pkt.Kind = kind
	pkt.Meta = seq
	pkt.Payload = m
	pkt.FwHandler = fw
	pkt.FwService = ni.colCombineService(pkt.Size)
	ni.FirmwareSend(pkt, false)
}

// colUpFw receives a child subtree's combined vector (runs on the
// parent NI's firmware; the combine cost was charged via FwService).
func colUpFw(dst *NI, pkt *Packet) {
	m := pkt.Payload.(*colMsg)
	dst.colContribute(pkt.Meta, m.vec)
	dst.col.msgFree.Push(m)
}

// colDnFw receives the released vector on the way down.
func colDnFw(dst *NI, pkt *Packet) {
	dst.colDown(pkt.Meta, pkt.Payload.(*colMsg))
}

// ColBroadcast replicates a payload from host process p to every other
// node through this source's broadcast tree: post overhead, a
// post-queue slot, one host->NI DMA, then firmware-forwarded tree
// hops. to.Deliver runs at each destination exactly as for a flat
// deposit (same payload-sharing semantics as the NI-broadcast path).
func (ni *NI) ColBroadcast(p *sim.Proc, size int, kind string, payload any, to Deliverer) {
	ni.hostPost(p)
	h := sim.Take(&ni.col.hostFree, 1, nil)
	h.ni, h.barrier = ni, false
	h.size, h.kind, h.payload, h.to = size, kind, payload, to
	ni.PCI.EnqueueHandler(ni.pciService(size), h)
}

// colForward sends a broadcast's fragments (SplitStep) from this NI to
// every child in tree(root), child by child; the last fragment carries
// the payload and delivery target, marked by Meta2 = total size (mid
// fragments have Meta2 0, so size must be nonzero).
func (ni *NI) colForward(root, size int, kind string, payload any, to Deliverer) {
	c, max := ni.col, ni.cfg.MaxPacket
	for j := 1; j <= c.arity; j++ {
		child := colChild(ni.ID, root, c.nodes, c.arity, j)
		if child < 0 {
			break
		}
		for rem := size; ; rem -= max {
			frag, last := SplitStep(rem, max)
			if last {
				ni.colSendFrag(child, root, frag, kind, size, payload, to)
				break
			}
			ni.colSendFrag(child, root, frag, kind, 0, nil, nil)
		}
	}
}

// colSendFrag emits one broadcast fragment of tree(root) to child,
// straight from NI memory; total, payload and to are set on the last
// fragment only.
func (ni *NI) colSendFrag(child, root, size int, kind string, total int, payload any, to Deliverer) {
	pkt := ni.NewPacket()
	pkt.Src, pkt.Dst, pkt.Size, pkt.Kind = ni.ID, child, size, kind
	pkt.Meta, pkt.Meta2 = root, total
	pkt.Payload, pkt.DeliverTo = payload, to
	pkt.FwHandler = colBcastFw
	pkt.FwService = ni.colCombineService(size)
	ni.FirmwareSend(pkt, false)
}

// colBcastFw handles one broadcast fragment at a tree node: forward
// the fragment onward (from NI memory), then DMA it into the local
// host; the last fragment's deposit completion delivers the payload.
func colBcastFw(dst *NI, pkt *Packet) {
	root := pkt.Meta
	// Forward just this fragment (not the whole message) to children.
	c := dst.col
	for j := 1; j <= c.arity; j++ {
		child := colChild(dst.ID, root, c.nodes, c.arity, j)
		if child < 0 {
			break
		}
		dst.colSendFrag(child, root, pkt.Size, pkt.Kind, pkt.Meta2, pkt.Payload, pkt.DeliverTo)
	}
	d := sim.Take(&c.delFree, 1, nil)
	d.ni, d.barrier = dst, false
	if pkt.Meta2 > 0 {
		d.root, d.total, d.kind = root, pkt.Meta2, pkt.Kind
		d.payload, d.to = pkt.Payload, pkt.DeliverTo
	}
	dst.PCI.EnqueueHandler(dst.pciService(pkt.Size), d)
}

// colDeliver is the pooled PCI-deposit completion handler: hand a
// finished barrier epoch to the sink, or a fully-arrived broadcast
// payload to its Deliverer.
type colDeliver struct {
	ni      *NI
	barrier bool
	seq     int
	m       *colMsg

	root, total int
	kind        string
	payload     any
	to          Deliverer
}

// Run implements sim.Handler (PCI completion at the owning NI's LP).
func (d *colDeliver) Run(_, _ sim.Time) {
	ni := d.ni
	if d.barrier {
		ni.col.sink.ColBarrierDone(ni.ID, d.seq, d.m.vec)
		ni.col.msgFree.Push(d.m)
	} else if d.to != nil {
		// Hand the payload to the protocol through a scratch packet so
		// the Deliverer sees the same shape as a flat deposit.
		pkt := ni.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size, pkt.Kind = d.root, ni.ID, d.total, d.kind
		pkt.Payload = d.payload
		d.to.Deliver(pkt)
		ni.pool.putPacket(pkt)
	}
	*d = colDeliver{}
	ni.col.delFree.Push(d)
}

// colHostOp is the pooled host-side entry handler: the source DMA
// completion of a barrier contribution (which then runs a firmware
// combine) or of a broadcast (which then fans out from NI memory).
type colHostOp struct {
	ni      *NI
	stage   int8
	barrier bool
	seq     int
	m       *colMsg

	size    int
	kind    string
	payload any
	to      Deliverer
}

// Run implements sim.Handler: stage 0 is the PCI DMA completion, which
// frees the post-queue slot, stage 1 the barrier's firmware combine
// completion.
func (h *colHostOp) Run(_, _ sim.Time) {
	ni := h.ni
	switch h.stage {
	case 0:
		ni.PostQueue.Release()
		if h.barrier {
			h.stage = 1
			ni.Firmware.EnqueueHandler(ni.colCombineService(8*ni.col.nodes), h)
			return
		}
		ni.colForward(ni.ID, h.size, h.kind, h.payload, h.to)
	case 1:
		ni.colContribute(h.seq, h.m.vec)
		ni.col.msgFree.Push(h.m)
	}
	*h = colHostOp{}
	ni.col.hostFree.Push(h)
}
