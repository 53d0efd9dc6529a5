package vmmc

import (
	"fmt"

	"genima/internal/nic"
	"genima/internal/sim"
)

// NI lock implementation (the paper's "Network interface locks", §2).
//
// Every lock has a static home NI. The home maintains the tail of a
// distributed waiter chain (lastOwner); an acquire is forwarded to the
// previous tail, whose NI grants the lock — immediately if it is free at
// that NI, or upon the host's release otherwise. The grant carries an
// opaque protocol payload (the lock timestamp) that the NIs store and
// forward but never interpret. No host processor other than the
// requester is ever involved, and no interrupts are taken.

// niLock is home-side state: the current chain tail.
type niLock struct {
	lastOwner int
}

// ownedLock is owner-side state at the NI that currently (or imminently)
// holds the lock.
type ownedLock struct {
	isOwner     bool
	held        bool // host has acquired and not yet released
	payload     any  // valid when isOwner && !held
	payloadSize int
	hasNext     bool
	next        int
}

type acquireWait struct {
	flag    sim.Counter
	payload any
}

// pendingAcquires tracks the (single) outstanding remote acquire per
// lock at this node; the protocol layer guarantees one per node. The
// record persists across acquires (reset, not deleted, when consumed).
func (ep *Endpoint) pendingAcquire(id int) *acquireWait {
	if ep.acq == nil {
		ep.acq = map[int]*acquireWait{}
	}
	w := ep.acq[id]
	if w == nil {
		w = &acquireWait{}
		ep.acq[id] = w
	}
	return w
}

// lockOpKind selects a lockOp's action.
type lockOpKind int

const (
	opAcqHome lockOpKind = iota
	opRelease
	opGrantDeposit
)

// lockOp is a pooled typed completion record (sim.Handler) for the
// NI-lock firmware and DMA steps, replacing the per-operation closure
// chain. The record is released at the start of Run: the remaining work
// may start another lock operation on the same endpoint, which then
// reuses it.
type lockOp struct {
	ep      *Endpoint
	kind    lockOpKind
	id      int
	payload any
	psize   int
}

func (o *lockOp) Run(_, _ sim.Time) {
	ep, id, kind := o.ep, o.id, o.kind
	payload, psize := o.payload, o.psize
	o.payload = nil
	ep.lockOpFree.Push(o)
	switch kind {
	case opAcqHome:
		// Home-local acquire reached the firmware: chain and hand off.
		l := ep.homeLock(id)
		prev := l.lastOwner
		l.lastOwner = ep.Node
		ep.fwHandoff(prev, id, ep.Node)
	case opRelease:
		ol := ep.ownedLockState(id)
		if !ol.isOwner || !ol.held {
			panic(fmt.Sprintf("vmmc: NILockRelease of lock %d at node %d not held (owner=%v held=%v)",
				id, ep.Node, ol.isOwner, ol.held))
		}
		ol.held = false
		ol.payload = payload
		ol.payloadSize = psize
		if ol.hasNext {
			next := ol.next
			ol.hasNext = false
			ep.fwGrant(id, next, ol)
		}
	case opGrantDeposit:
		// The grant DMA landed in host memory: wake the acquirer.
		w := ep.pendingAcquire(id)
		w.payload = payload
		w.flag.Add(1)
	}
}

func (ep *Endpoint) getLockOp() *lockOp {
	return sim.Take(&ep.lockOpFree, 1, func(o []lockOp) { o[0].ep = ep })
}

func (ep *Endpoint) homeLock(id int) *niLock {
	l := ep.locks[id]
	if l == nil {
		l = &niLock{lastOwner: ep.Node}
		ep.locks[id] = l
		// The home node's NI owns every lock it homes, free, initially.
		ep.owned[id] = &ownedLock{isOwner: true}
	}
	return l
}

func (ep *Endpoint) ownedLockState(id int) *ownedLock {
	ol := ep.owned[id]
	if ol == nil {
		ol = &ownedLock{}
		ep.owned[id] = ol
	}
	return ol
}

// lockHome returns the static home node of a lock.
func (l *Layer) lockHome(id int) int { return id % l.cfg.Nodes }

const lockMsgSize = 16

// NILockAcquire acquires lock id through the NI firmware, blocking the
// calling process until the grant is deposited locally. It returns the
// opaque payload stored by the last releaser (nil for first acquire).
// The caller must ensure at most one outstanding acquire per (node, lock).
func (ep *Endpoint) NILockAcquire(p *sim.Proc, id int) any {
	home := ep.layer.lockHome(id)
	w := ep.pendingAcquire(id)
	if w.flag.Value() > 0 {
		panic(fmt.Sprintf("vmmc: concurrent NILockAcquire of lock %d at node %d", id, ep.Node))
	}

	svc := ep.layer.cfg.Costs.NILockService
	if home == ep.Node {
		// Local home: the request is a host->NI post, no network hop.
		p.Sleep(ep.layer.cfg.Costs.PostOverhead)
		op := ep.getLockOp()
		op.kind, op.id = opAcqHome, id
		ep.ni.FirmwareRunHandler(svc, op)
	} else {
		req := ep.ni.NewPacket()
		req.Src, req.Dst, req.Size, req.Kind = ep.Node, home, lockMsgSize, "ni-lock-acq"
		req.Meta = id
		req.FwService = svc
		req.FwHandler = ep.layer.lockAcqFw
		ep.ni.Post(p, req)
	}

	w.flag.WaitFor(p, 1)
	payload := w.payload
	w.payload = nil
	w.flag.Reset()
	return payload
}

// Shared firmware handlers for the three NI-lock packet kinds, bound
// once per Layer at construction: the lock id rides pkt.Meta (and the
// requester pkt.Meta2 on forwards), so one long-lived method value
// replaces a closure per packet. Each runs on the destination NI in
// engine context.

// fwLockAcq services "ni-lock-acq" at the home NI: chain the requester
// (pkt.Src) and hand the lock off from the previous tail.
func (l *Layer) fwLockAcq(_ *nic.NI, pkt *nic.Packet) {
	hep := l.eps[pkt.Dst]
	lk := hep.homeLock(pkt.Meta)
	prev := lk.lastOwner
	lk.lastOwner = pkt.Src
	hep.fwHandoff(prev, pkt.Meta, pkt.Src)
}

// fwLockFwd services "ni-lock-fwd" at the previous owner: Meta is the
// lock id, Meta2 the requester.
func (l *Layer) fwLockFwd(_ *nic.NI, pkt *nic.Packet) {
	l.eps[pkt.Dst].fwReceiveHandoff(pkt.Meta, pkt.Meta2)
}

// fwLockGrant services "ni-lock-grant" at the requester: ownership
// arrives with the opaque payload in pkt.Payload (pkt.Size is the full
// grant size, lockMsgSize + payload size).
func (l *Layer) fwLockGrant(_ *nic.NI, pkt *nic.Packet) {
	rep := l.eps[pkt.Dst]
	rol := rep.ownedLockState(pkt.Meta)
	rol.isOwner = true
	rol.held = true
	rep.depositGrant(pkt.Meta, pkt.Payload, pkt.Size)
}

// fwHandoff runs at the home NI: tell the previous chain tail to hand
// the lock to requester. Runs in engine context on node ep.Node (home).
func (ep *Endpoint) fwHandoff(prevOwner, id, requester int) {
	if prevOwner == ep.Node {
		// Previous owner's NI is this NI: handle locally.
		ep.fwReceiveHandoff(id, requester)
		return
	}
	fwd := ep.ni.NewPacket()
	fwd.Src, fwd.Dst, fwd.Size, fwd.Kind = ep.Node, prevOwner, lockMsgSize, "ni-lock-fwd"
	fwd.Meta, fwd.Meta2 = id, requester
	fwd.FwService = ep.layer.cfg.Costs.NILockService
	fwd.FwHandler = ep.layer.lockFwdFw
	ep.ni.FirmwareSend(fwd, false)
}

// fwReceiveHandoff runs at the (previous) owner NI when the home chains
// a new requester to it.
func (ep *Endpoint) fwReceiveHandoff(id, requester int) {
	ol := ep.ownedLockState(id)
	if ol.isOwner && !ol.held {
		ep.fwGrant(id, requester, ol)
		return
	}
	// Lock still held by the host here, or ownership is still in
	// flight to this NI; remember the single chained waiter.
	if ol.hasNext {
		panic(fmt.Sprintf("vmmc: lock %d at node %d already has a chained waiter", id, ep.Node))
	}
	ol.hasNext = true
	ol.next = requester
}

// fwGrant transfers ownership (and the payload) from this NI to
// requester's NI, which deposits the grant into its host's memory.
func (ep *Endpoint) fwGrant(id, requester int, ol *ownedLock) {
	payload, psize := ol.payload, ol.payloadSize
	ol.isOwner = false
	ol.payload = nil

	if requester == ep.Node {
		// Re-acquire by the same node: grant locally, no network hop.
		ol.isOwner = true
		ol.held = true
		ep.depositGrant(id, payload, lockMsgSize+psize)
		return
	}
	grant := ep.ni.NewPacket()
	grant.Src, grant.Dst, grant.Size, grant.Kind = ep.Node, requester, lockMsgSize+psize, "ni-lock-grant"
	grant.Meta = id
	grant.Payload = payload
	grant.FwService = ep.layer.cfg.Costs.NILockService
	grant.FwHandler = ep.layer.lockGrantFw
	ep.ni.FirmwareSend(grant, false)
}

// depositGrant DMAs a received (or locally re-acquired) grant into this
// host's memory; the pooled completion record wakes the acquirer.
func (ep *Endpoint) depositGrant(id int, payload any, size int) {
	op := ep.getLockOp()
	op.kind, op.id, op.payload = opGrantDeposit, id, payload
	ep.ni.DepositLocalHandler(size, op)
}

// NILockRelease releases lock id, storing payload (the protocol
// timestamp) with it. The host only posts to its own NI; if a waiter is
// chained, the NI hands the lock over without host involvement.
func (ep *Endpoint) NILockRelease(p *sim.Proc, id int, payload any, payloadSize int) {
	p.Sleep(ep.layer.cfg.Costs.PostOverhead)
	op := ep.getLockOp()
	op.kind, op.id, op.payload, op.psize = opRelease, id, payload, payloadSize
	ep.ni.FirmwareRunHandler(ep.layer.cfg.Costs.NILockService, op)
}
