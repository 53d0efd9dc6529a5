package core

import (
	"fmt"

	"genima/internal/sim"
	"genima/internal/vmmc"
)

// Lock synchronization.
//
// Base path (also DW, DW+RF, DW+RF+DD): every lock has a static home.
// An acquire message interrupts the home, which forwards it to the last
// owner (updating the distributed chain tail); the owner's host —
// interrupted, or at its next release — closes its write interval,
// flushes diffs, and sends the grant. In Base the grant piggybacks the
// write notices the requester lacks; with DW the notices have already
// been deposited eagerly and the grant carries only the releaser's
// vector timestamp.
//
// NIL path (GeNIMA): vmmc's NI firmware locks carry the releaser's
// vector timestamp as an opaque payload; no host other than the
// requester is involved, and diffs/notices are produced eagerly at
// release, before the lock is handed to the NI.
//
// Within a node, locks are cached and handed between processors under
// hardware coherence (a local handoff closes no interval — the paper's
// hybrid laziness).

// lockMeta is the home-side chain tail for the Base path.
type lockMeta struct {
	lastOwner int
}

// lockReqMsg is the Base acquire payload: pooled, and reused verbatim
// for the home's forward hop (same wire size); the final consumer — the
// node that grants or queues the request — releases it.
type lockReqMsg struct {
	id        int
	requester int
	reqVC     []uint64
}

// lockGrant is the Base/DW grant payload (pooled; the requester
// releases it after applying the carried coherence information).
type lockGrant struct {
	id        int
	vc        []uint64
	intervals []*interval // Base only: piggybacked write notices
}

func (g *lockGrant) wireSize() int {
	n := lockMsgOverhead + 8*len(g.vc)
	for _, iv := range g.intervals {
		n += iv.wireSize()
	}
	return n
}

// vcMsg is the pooled NI-lock timestamp payload (NIL path): boxing the
// record pointer into the NI's opaque payload slot allocates nothing.
type vcMsg struct {
	vc []uint64
}

// nodeLock is the node-level lock cache.
type nodeLock struct {
	id         int
	cached     bool // this node is the lock's current owner
	held       bool // some local processor holds it
	requesting bool // a remote acquire is outstanding
	releasing  bool // a release (diff flush / NI handback) is in progress
	localQ     sim.WaitQ

	// Remote acquire state (one outstanding acquire per node-lock).
	wantGrant bool
	grantF    sim.Counter
	grant     *lockGrant

	// A remote requester parked here until the local release (its
	// vector is copied out of the pooled request so the record can be
	// released immediately).
	pendingReq       bool
	pendingRequester int
	pendingVC        []uint64
}

func (n *Node) lock(id int) *nodeLock {
	lk := n.locks[id]
	if lk == nil {
		// Fine-grained locking apps (Barnes) touch hundreds of lock ids
		// per node; carve records out of a chunk instead of allocating
		// each one.
		if len(n.lockChunk) == 0 {
			n.lockChunk = make([]nodeLock, 32)
		}
		lk = &n.lockChunk[0]
		n.lockChunk = n.lockChunk[1:]
		home := n.sys.lockHome(id)
		lk.id = id
		lk.cached = !n.sys.Feat.NIL && home == n.ID
		n.locks[id] = lk
	}
	return lk
}

// lockHome returns the static home node of a lock (must match vmmc's).
func (s *System) lockHome(id int) int { return id % s.Cfg.Nodes }

// lockMetaFor returns the home-side chain tail for a lock homed at this
// node (callers must be the home's protocol process).
func (n *Node) lockMetaFor(id int) *lockMeta {
	m := n.lockDir[id]
	if m == nil {
		m = &lockMeta{lastOwner: n.sys.lockHome(id)}
		n.lockDir[id] = m
	}
	return m
}

// LockAcquire acquires lock id for a processor of this node, blocking
// the calling process. All elapsed time is the paper's "Lock time".
func (n *Node) LockAcquire(p *sim.Proc, id int) {
	c := &n.sys.Cfg.Costs
	p.Sleep(c.LocalLock)
	lk := n.lock(id)
	for {
		if lk.held || lk.requesting || lk.releasing {
			lk.localQ.Wait(p)
			continue
		}
		if lk.cached {
			// Local handoff or cached re-acquire: hardware coherence
			// inside the node, no protocol action.
			lk.held = true
			return
		}
		break
	}
	// Remote acquire.
	lk.requesting = true
	n.Acct.LockOps++
	if n.sys.Feat.NIL {
		n.acquireNIL(p, lk)
	} else {
		n.acquireBase(p, lk)
	}
	lk.requesting = false
	lk.cached = true
	lk.held = true
}

func (n *Node) acquireNIL(p *sim.Proc, lk *nodeLock) {
	payload := n.ep.NILockAcquire(p, lk.id)
	if payload == nil {
		return // first acquire ever: nothing to apply
	}
	vm := payload.(*vcMsg)
	n.waitNotices(p, vm.vc)
	n.applyUpTo(p, vm.vc)
	n.pool.vcMsg.Push(vm)
}

func (n *Node) acquireBase(p *sim.Proc, lk *nodeLock) {
	lk.wantGrant = true
	req := n.pool.getLockReq()
	req.id, req.requester = lk.id, n.ID
	copy(req.reqVC, n.vc)
	home := n.sys.lockHome(lk.id)
	size := lockMsgOverhead + 8*len(req.reqVC)
	if home == n.ID {
		// The home is this node: the chain lookup still runs on the
		// protocol process (it owns the directory), posted locally
		// without a network hop or interrupt cost.
		n.proto.HandleMsg(localMsg(vmmc.MsgLockReq, req))
	} else {
		n.ep.SendInterrupt(p, home, size, vmmc.MsgLockReq, req)
	}
	lk.grantF.WaitFor(p, 1)
	g := lk.grant
	lk.grant, lk.wantGrant = nil, false
	lk.grantF.Reset()

	for _, iv := range g.intervals {
		n.recordInterval(iv)
	}
	if n.sys.Feat.DW {
		n.waitNotices(p, g.vc)
	}
	n.applyUpTo(p, g.vc)
	n.pool.putGrant(g)
}

// LockRelease releases lock id. A waiting local processor gets the lock
// without closing the interval; otherwise, under DD/GeNIMA the interval
// closes eagerly here, and under NIL the lock is handed back to the NI.
func (n *Node) LockRelease(p *sim.Proc, id int) {
	c := &n.sys.Cfg.Costs
	p.Sleep(c.LocalLock)
	lk := n.lock(id)
	if !lk.held || !lk.cached {
		panic(fmt.Sprintf("core: release of lock %d not held at node %d", id, n.ID))
	}
	lk.held = false
	if lk.localQ.Len() > 0 {
		// Hybrid laziness: the lock stays in the node, no diffs (under
		// NIL the NI still thinks this host holds the lock).
		lk.localQ.WakeOne()
		return
	}
	// The release path below yields (diff computation, NI post); block
	// local acquirers until the lock's fate is settled.
	lk.releasing = true
	if n.sys.Feat.DD {
		// Direct diffs are computed at release points.
		n.closeInterval(p)
	}
	if n.sys.Feat.NIL {
		n.closeInterval(p) // ensure notices precede the NI release
		lk.cached = false
		vm := n.pool.getVCMsg()
		copy(vm.vc, n.vc)
		n.ep.NILockRelease(p, id, vm, 8*len(vm.vc))
		lk.releasing = false
		lk.localQ.WakeAll() // re-check state (they will go remote)
		return
	}
	if lk.pendingReq {
		lk.pendingReq = false
		// No new forward can arrive while releasing (a forward requires
		// this node to re-own the lock, which requires a local acquire —
		// blocked until releasing clears), so pendingVC stays stable
		// across grantRemote's yields.
		n.grantRemote(p, lk, lk.pendingRequester, lk.pendingVC)
	}
	lk.releasing = false
	lk.localQ.WakeAll()
	// Otherwise the last owner keeps the lock until someone asks.
}

// grantRemote transfers ownership to a remote requester: close the
// interval (flushing diffs — "diffs are propagated to the home at the
// next incoming acquire"), then send the grant.
func (n *Node) grantRemote(p *sim.Proc, lk *nodeLock, requester int, reqVC []uint64) {
	// Revoke the cache entry before yielding in closeInterval so no
	// local processor grabs the lock while it is being shipped away.
	lk.cached = false
	n.closeInterval(p)
	g := n.pool.getGrant()
	g.id = lk.id
	copy(g.vc, n.vc)
	if !n.sys.Feat.DW {
		// Base: piggyback the write notices the requester lacks.
		for src := 0; src < n.sys.Cfg.Nodes; src++ {
			g.intervals = n.appendIntervalsAfter(g.intervals, src, reqVC[src], n.vc[src])
		}
	}
	n.ep.DepositTo(p, requester, g.wireSize(), "lock-grant", g, &n.sys.grantDel)
	lk.localQ.WakeAll() // local waiters must now go remote
}

// receiveGrant runs in engine context at the requester when the grant
// message is deposited.
func (n *Node) receiveGrant(g *lockGrant) {
	lk := n.lock(g.id)
	if !lk.wantGrant {
		panic(fmt.Sprintf("core: unexpected lock grant %d at node %d", g.id, n.ID))
	}
	lk.grant = g
	lk.grantF.Add(1)
}

// handleLockReq runs at the lock's home on the protocol process: it
// advances the chain tail and forwards the request to the previous
// owner. The pooled request is forwarded as-is (identical wire size)
// and released by the node that finally grants or parks it.
func (n *Node) handleLockReq(p *sim.Proc, req *lockReqMsg) {
	meta := n.lockMetaFor(req.id)
	prev := meta.lastOwner
	meta.lastOwner = req.requester
	if prev == n.ID {
		n.handleLockFwd(p, req)
		return
	}
	n.ep.SendInterrupt(p, prev, lockMsgOverhead+8*len(req.reqVC), vmmc.MsgLockFwd, req)
}

// handleLockFwd runs at the previous owner on the protocol process:
// grant the lock now if it is cached and free, otherwise park the
// requester for the next local release.
func (n *Node) handleLockFwd(p *sim.Proc, req *lockReqMsg) {
	lk := n.lock(req.id)
	if lk.cached && !lk.held {
		n.grantRemote(p, lk, req.requester, req.reqVC)
		n.pool.lockReq.Push(req)
		return
	}
	if lk.pendingReq {
		panic(fmt.Sprintf("core: lock %d at node %d already has a pending remote requester", req.id, n.ID))
	}
	lk.pendingReq = true
	lk.pendingRequester = req.requester
	if lk.pendingVC == nil {
		lk.pendingVC = make([]uint64, n.sys.Cfg.Nodes)
	}
	copy(lk.pendingVC, req.reqVC)
	n.pool.lockReq.Push(req)
}
