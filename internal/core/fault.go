package core

import (
	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/vmmc"
)

// Page fault handling: read faults fetch the page from its home (via an
// interrupt-serviced request in Base, via NI remote fetch with retry in
// RF and later); write faults additionally create a twin. Faults are the
// "Data wait time" component of the paper's breakdowns.

// pendingPage is a queued Base-protocol page request at the home that
// cannot be answered until pending diffs arrive.
type pendingPage struct {
	src int
	msg *pageReqMsg
}

// fetchPayload is what an NI remote fetch returns: a snapshot of the
// home copy and the home's applied-version row at snapshot time. Pooled;
// the requester releases it once the snapshot is consumed.
type fetchPayload struct {
	page int
	data []byte
	ver  []uint64
}

// pageReqMsg is the Base-protocol page request record. It is pooled and
// doubles as the reply destination: the home writes the snapshot into
// data/ver at reply time and delivery raises done (the requester reads
// the fields only after done, so writing them early is safe).
type pageReqMsg struct {
	page int
	need []uint64 // requester's requirement row (copied at send time)
	done sim.Counter
	data []byte   // reply: page snapshot (the record's own page buffer)
	ver  []uint64 // reply: home version row at snapshot time
}

const (
	pageReqOverhead   = 32 // request header bytes
	pageReplyOverhead = 32 // reply header + version row
	diffMsgOverhead   = 16
	runHeader         = 8
	lockMsgOverhead   = 16
)

// Ensure makes pages [first, last] readable by the calling processor,
// fetching any missing ones, and with store also writable: twinned
// (non-home pages) and registered in the open interval. All blocking
// time is virtual (the caller's harness attributes the elapsed time to
// Data wait). The sleeps inside (mprotect, twin copy) yield the
// processor; another processor of the node may invalidate the page
// meanwhile (applying a notice at its own acquire), so every step
// re-checks page state.
func (n *Node) Ensure(p *sim.Proc, first, last int, store bool) {
	c := &n.sys.Cfg.Costs
	for pg := first; pg <= last; pg++ {
		for {
			n.faultIn(p, pg)
			if !store {
				break
			}
			dirtyAlready := n.dirtySet[pg]
			if n.sys.Space.Home(pg) == n.ID {
				if !dirtyAlready {
					// Home pages are written in place; the write fault
					// still costs a protection change for tracking.
					p.Sleep(c.MprotectBase)
					n.Acct.Mprotect += c.MprotectBase
					n.Acct.MprotectOps++
					n.markDirty(pg)
				}
				break
			}
			if dirtyAlready && n.Mem.HasTwin(pg) && n.state[pg] == pageValid {
				break
			}
			if !n.Mem.HasTwin(pg) {
				// Write fault: mprotect to RW plus twin creation.
				p.Sleep(c.MprotectBase)
				n.Acct.Mprotect += c.MprotectBase
				n.Acct.MprotectOps++
				p.Sleep(sim.Time(float64(n.sys.Cfg.PageSize) * c.TwinCopyPerByte))
				if n.state[pg] != pageValid {
					continue // invalidated during the sleeps: refetch first
				}
				n.Mem.MakeTwin(pg)
				n.markDirty(pg)
				break
			}
			// A twin exists but the page is not (or no longer cleanly)
			// in the dirty set: an interval close snapshotted the dirty
			// set and is mid-flush on this page. Wait for the close to
			// finish — the twin will be consumed — then retry.
			n.ivGate.Acquire(p)
			n.ivGate.Release()
		}
	}
}

// faultIn ensures one page is present and readable at this node,
// re-checking after every blocking step (a concurrent processor's
// acquire may invalidate the page while this one sleeps).
func (n *Node) faultIn(p *sim.Proc, page int) {
	if n.sys.Space.Home(page) == n.ID {
		// The home copy is the master; a local access must only wait
		// until the diffs this node has seen notices for are applied.
		for !n.needSatisfied(page, n.homeVer.row(page)) {
			n.homeWaitQ[page].Wait(p)
		}
		return
	}
	c := &n.sys.Cfg.Costs
	for n.state[page] != pageValid {
		// Collapse concurrent faults on the same page within the node.
		if n.fetching[page] {
			n.fetchQ[page].Wait(p)
			continue
		}
		n.fetching[page] = true

		if n.sys.Feat.RF {
			pl := n.fetchRF(p, page)
			n.installFetched(page, pl.data)
			n.pool.fp.Push(pl)
		} else {
			req := n.fetchBase(p, page)
			n.installFetched(page, req.data)
			n.pool.putPageReq(req)
		}
		n.state[page] = pageValid
		// Map the fresh page read-only.
		p.Sleep(c.MprotectBase)
		n.Acct.Mprotect += c.MprotectBase
		n.Acct.MprotectOps++
		n.Acct.PageFetches++

		n.fetching[page] = false
		n.fetchQ[page].WakeAll()
	}
}

// installFetched installs a fetched page. If the page carries unflushed
// local modifications (it was re-dirtied while an interval close or an
// early flush was in progress and then invalidated), those words are
// re-applied on top of the fetched data so they are not lost — the
// multiple-writer guarantee across a refetch. The run scratch is reused
// across calls (no yields happen while it is live).
func (n *Node) installFetched(page int, data []byte) {
	if !n.Mem.HasTwin(page) {
		n.Mem.InstallCopy(page, data)
		return
	}
	n.modsRuns, n.modsBuf = n.Mem.DiffCopy(page, n.modsRuns[:0], n.modsBuf)
	n.Mem.DropTwin(page)
	n.Mem.InstallCopy(page, data)
	n.Mem.MakeTwin(page)
	memory.ApplyRuns(n.Mem.Page(page), n.modsRuns)
}

// fetchBase is the interrupt path: request -> home protocol process ->
// reply deposit. The home queues the request if diffs are pending and
// writes its reply into the request record's page buffer. The fetched
// snapshot's version row is recorded in copyVer; the caller installs
// the page and releases the record.
func (n *Node) fetchBase(p *sim.Proc, page int) *pageReqMsg {
	home := n.sys.Space.Home(page)
	req := n.pool.getPageReq()
	req.page = page
	for {
		// Another processor in this node may raise the page's
		// requirements (by applying notices) while a request is in
		// flight; each (re-)request snapshots the current row.
		copy(req.need, n.need.row(page))
		n.ep.SendInterrupt(p, home, pageReqOverhead+8*len(req.need), vmmc.MsgPageReq, req)
		req.done.WaitFor(p, 1)
		if n.needSatisfied(page, req.ver) {
			break
		}
		n.Acct.FetchRetries++
		req.done.Reset() // stale snapshot: the retry's reply overwrites it
	}
	copy(n.copyVer.writeRow(page), req.ver)
	n.copyVerSet[page] = true
	return req
}

// fetchRF is the NI remote-fetch path with requester retry on stale
// versions (no home processor involvement). It returns the current
// reply; the caller installs the page and releases the record.
func (n *Node) fetchRF(p *sim.Proc, page int) *fetchPayload {
	home := n.sys.Space.Home(page)
	size := n.sys.Cfg.PageSize + pageReplyOverhead
	for {
		rep := n.ep.RemoteFetch(p, home, size, "page-req", "page-reply", page)
		pl := rep.Payload.(*fetchPayload)
		if n.needSatisfied(page, pl.ver) {
			copy(n.copyVer.writeRow(page), pl.ver)
			n.copyVerSet[page] = true
			return pl
		}
		n.Acct.FetchRetries++
		n.pool.fp.Push(pl) // stale snapshot: recycle
		p.Sleep(n.sys.Cfg.Costs.FetchRetryBackoff)
	}
}

// serveFetch runs in the home NI's firmware: snapshot the page and its
// version row into a pooled payload and its page buffer (released by
// the requester). No host time is charged.
func (n *Node) serveFetch(req vmmc.FetchReq) vmmc.FetchReply {
	page := req.Tag
	pl := n.pool.getFetchPayload()
	pl.page = page
	copy(pl.data, n.sys.Space.HomeCopy(page))
	copy(pl.ver, n.homeVer.row(page))
	return vmmc.FetchReply{
		Payload: pl,
		Size:    n.sys.Cfg.PageSize + pageReplyOverhead,
	}
}

// handlePageReq services a Base page request at the home (protocol
// process): reply now if the home copy covers the requester's need,
// otherwise queue the request until a diff advances the version (see
// retryPending).
func (n *Node) handlePageReq(p *sim.Proc, src int, req *pageReqMsg) {
	if !vecCovered(req.need, n.homeVer.row(req.page)) {
		n.pendingReqs[req.page] = append(n.pendingReqs[req.page], pendingPage{src: src, msg: req})
		return
	}
	n.sendPageReply(p, src, req)
}

// sendPageReply snapshots the home copy and version row into the
// pooled request's page buffer and version row (the reply rides the
// request record) and deposits the reply.
func (n *Node) sendPageReply(p *sim.Proc, src int, req *pageReqMsg) {
	copy(req.data, n.sys.Space.HomeCopy(req.page))
	copy(req.ver, n.homeVer.row(req.page))
	n.ep.DepositTo(p, src, n.sys.Cfg.PageSize+pageReplyOverhead, "page-reply", req, pageReplyDel)
}

// retryPending answers the queued page requests for pg that the home
// copy now covers, keeping the rest queued in order. Only the protocol
// process appends to the queue, so compacting it in place across the
// reply deposits is safe.
func (n *Node) retryPending(p *sim.Proc, pg int) {
	reqs := n.pendingReqs[pg]
	if len(reqs) == 0 {
		return
	}
	keep := 0
	for _, r := range reqs {
		if vecCovered(r.msg.need, n.homeVer.row(pg)) {
			n.sendPageReply(p, r.src, r.msg)
			continue
		}
		reqs[keep] = r
		keep++
	}
	clear(reqs[keep:])
	n.pendingReqs[pg] = reqs[:keep]
}
