package core

import (
	"fmt"
	"slices"

	"genima/internal/memory"
	"genima/internal/nic"
	"genima/internal/sim"
	"genima/internal/vmmc"
)

// The floating protocol process (HLRC-SMP): one per node, scheduled by
// interrupts, servicing incoming asynchronous protocol requests. In the
// Base protocol it handles page requests, packed diff applications, lock
// chain operations, and barrier control; each GeNIMA mechanism removes a
// class of messages from this loop until (GeNIMA) it receives none.
//
// The process is a resumable sim.Handler state machine, not a goroutine:
// it holds no stack across virtual-time waits, so a node's protocol
// engine costs zero goroutines and zero allocations per message. Every
// blocking step of the old goroutine loop (the fixed handler cost, the
// per-byte diff application cost, the per-packet post overhead, the
// post-queue and interval-gate admissions) is a scheduled resumption
// with the same event times and ordering, so simulation results are
// bit-identical to the goroutine form. Compute processors remain
// goroutines: they run application code with real data accesses
// interleaved into protocol calls, which a state machine cannot express
// without inverting the applications themselves.
//
// The machine duplicates the closeInterval/flushPage/grantRemote logic
// of diff.go and locks.go in continuation-passing style (states below);
// the two copies must evolve together. The proc versions remain the
// release/barrier paths; the machine versions run only for an incoming
// remote acquire at the previous owner.

// localMsg wraps a request a node sends to its own protocol process
// (directory lookups at the local home) — no interrupt, no network.
func localMsg(kind vmmc.MsgKind, payload any) vmmc.Msg {
	return vmmc.Msg{Src: -1, Kind: kind, Payload: payload}
}

// pmState is a resume point of the protocol machine.
type pmState uint8

const (
	pmIdle       pmState = iota
	pmWake               // a message arrived while idle: start a dispatch cycle
	pmDispatch           // fixed handler cost paid: run the message body
	pmBodyDone           // body finished: next queued message or go idle
	pmDiffApply          // MsgDiff: per-byte handler cost paid, apply the runs
	pmRetryLoop          // re-check queued page requests after a diff
	pmCIGate             // closeInterval: acquire the interval gate
	pmCIPage             // closeInterval: flush the next dirty page
	pmFPDiffed           // flushPage: diff-computation sleep finished
	pmFPRun              // flushPage (DD): send the next run deposit
	pmCINotice           // closeInterval (DW): per-destination notice sends
	pmCIDone             // closeInterval: release the gate
	pmGrantSend          // grantRemote: build and send the grant
	pmGrantSent          // grantRemote: grant posted, wake local waiters
	pmBarRel             // barrier master: send the next release
	pmSendSleep          // send submachine: per-packet post overhead
	pmSendGate           // send submachine: post-queue admission + launch
	pmBcastSleep         // broadcast submachine: post overhead
	pmBcastGate          // broadcast submachine: admission + launch
	pmColSleep           // collective-tree broadcast: post overhead
	pmColGate            // collective-tree broadcast: admission + hand to NI
)

// protoMachine is the per-node protocol process. It implements
// vmmc.MsgSink (message arrival), sim.Handler (scheduled resumption)
// and sim.Waiter (gate wakeup).
type protoMachine struct {
	n  *Node
	st pmState

	// Incoming message queue: a head-indexed slice reused in place.
	q    []vmmc.Msg
	head int

	m vmmc.Msg // message whose fixed handler cost is being paid

	// Gate admission accounting, mirroring Gate.Acquire (the machine
	// blocks on at most one gate at a time).
	gateBlocked bool
	gateT0      sim.Time

	// Send submachine: one protocol message split into wire packets,
	// each paying the post overhead and the post-queue admission.
	sendDst     int
	sendRem     int
	sendLabel   string
	sendPayload any
	sendTo      nic.Deliverer
	sendIntr    bool // interrupt-class: Meta + interrupt deliverer on the last packet
	sendMeta    int
	sendSG      bool // scatter-gather: firmware-handled packets
	sendRet     pmState

	// Diff being applied (MsgDiff body) or flushed (closeInterval).
	d *diffMsg

	// Pending page-request retry after a diff application.
	retryPage         int
	retryReqs         []pendingPage
	retryI, retryKeep int

	// Lock grant in progress (the machine's closeInterval caller).
	lkReq *lockReqMsg
	lk    *nodeLock

	// closeInterval / flushPage continuation state.
	ivCur     *interval
	ivSeq     uint64
	pageIdx   int
	fpPg      int
	fpHome    int
	runIdx    int
	noticeDst int

	// Barrier release fan-out (master node).
	barRel *barReleaseMsg
	barDst int
}

// HandleMsg implements vmmc.MsgSink: an interrupt-class message arrives
// in engine context.
func (pm *protoMachine) HandleMsg(m vmmc.Msg) { pm.post(m) }

// post queues a message and, when the machine is idle, schedules the
// dispatch cycle at the current time.
func (pm *protoMachine) post(m vmmc.Msg) {
	pm.q = append(pm.q, m)
	if pm.st != pmIdle {
		return
	}
	pm.st = pmWake
	eng := pm.n.eng
	now := eng.Now()
	eng.AtHandler(now, now, pm)
}

// Unpark implements sim.Waiter: a gate the machine was parked in has a
// free slot to retry for.
func (pm *protoMachine) Unpark() {
	eng := pm.n.eng
	now := eng.Now()
	eng.AtHandler(now, now, pm)
}

// Run implements sim.Handler.
func (pm *protoMachine) Run(_, _ sim.Time) { pm.step() }

func (pm *protoMachine) pop() vmmc.Msg {
	m := pm.q[pm.head]
	pm.q[pm.head] = vmmc.Msg{}
	pm.head++
	if pm.head == len(pm.q) {
		pm.q = pm.q[:0]
		pm.head = 0
	}
	return m
}

// sleep moves to next after d of virtual time. It returns true when an
// event was scheduled and the machine must return to the engine; d == 0
// continues inline, exactly like Proc.Sleep(0).
func (pm *protoMachine) sleep(d sim.Time, next pmState) bool {
	pm.st = next
	if d == 0 {
		return false
	}
	eng := pm.n.eng
	t := eng.Now() + d
	eng.AtHandler(t, t, pm)
	return true
}

// acquireGate mirrors Gate.Acquire for a machine: true when the slot is
// claimed, false when the machine parked in the gate's queue (it
// resumes in the same state and retries).
func (pm *protoMachine) acquireGate(g *sim.Gate) bool {
	now := pm.n.eng.Now()
	if g.TryAcquire() {
		if pm.gateBlocked {
			pm.gateBlocked = false
			g.BlockedTime += now - pm.gateT0
		}
		return true
	}
	if !pm.gateBlocked {
		pm.gateBlocked = true
		pm.gateT0 = now
		g.Blocked++
	}
	g.Enqueue(pm)
	return false
}

// startSend begins the send submachine: size bytes to dst as MaxPacket
// legs, the typed deliverer riding the last packet. The machine resumes
// at ret once the last packet is launched.
func (pm *protoMachine) startSend(dst, size int, label string, payload any, to nic.Deliverer, ret pmState) {
	pm.sendDst, pm.sendRem, pm.sendLabel = dst, size, label
	pm.sendPayload, pm.sendTo = payload, to
	pm.sendIntr, pm.sendSG = false, false
	pm.sendRet = ret
	pm.st = pmSendSleep
}

// startSendInterrupt is startSend for interrupt-class messages (the
// machine form of SendInterrupt).
func (pm *protoMachine) startSendInterrupt(dst, size int, kind vmmc.MsgKind, payload any, ret pmState) {
	pm.startSend(dst, size, kind.String(), payload, nil, ret)
	pm.sendIntr = true
	pm.sendMeta = int(kind)
}

// startSendSG is startSend for scatter-gather deposits (the machine
// form of DepositGatheredTo).
func (pm *protoMachine) startSendSG(dst, size int, label string, apply vmmc.SGApplier, ret pmState) {
	pm.startSend(dst, size, label, apply, nil, ret)
	pm.sendSG = true
}

// startReply snapshots the home copy and version row into the pooled
// request's page buffer and version row (the reply rides the request
// record) and starts the reply deposit.
func (pm *protoMachine) startReply(src int, req *pageReqMsg, ret pmState) {
	n := pm.n
	copy(req.data, n.sys.Space.HomeCopy(req.page))
	copy(req.ver, n.homeVer.row(req.page))
	pm.startSend(src, n.sys.Cfg.PageSize+pageReplyOverhead, "page-reply", req, pageReplyDel, ret)
}

// lockFwd services a lock request at the (previous) owner: grant it now
// if the lock is cached and free, otherwise park the requester for the
// next local release.
func (pm *protoMachine) lockFwd(req *lockReqMsg) {
	n := pm.n
	lk := n.lock(req.id)
	if lk.cached && !lk.held {
		// Grant: revoke the cache entry before any yield so no local
		// processor grabs the lock mid-transfer, then close the interval
		// and send the grant (pmCIGate .. pmGrantSent).
		pm.lkReq, pm.lk = req, lk
		lk.cached = false
		pm.st = pmCIGate
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
	n.pool.putLockReq(req)
	pm.st = pmBodyDone
}

// barArrive aggregates a barrier arrival at the master; the last
// arrival builds the release and starts the fan-out.
func (pm *protoMachine) barArrive(m *barArriveMsg) {
	n := pm.n
	e := n.barEpochAt(m.seq)
	seq := m.seq
	e.mArrived++
	vecMergeMax(e.mVC, m.vc)
	e.mIvs = append(e.mIvs, m.intervals...) // intervals are arena-backed
	if e.mArrived < n.sys.Cfg.Nodes {
		pm.st = pmBodyDone
		return
	}
	rel := n.barRelAt(seq)
	copy(rel.vc, e.mVC)
	// Hand the interval union to the release record by swapping slices:
	// the epoch keeps the (empty) old backing for its next reuse.
	rel.intervals, e.mIvs = e.mIvs, rel.intervals[:0]
	pm.barRel, pm.barDst = rel, 0
	pm.st = pmBarRel
}

// fpRoute starts a flushed diff's trip to the home, mirroring
// flushPage's propagation choice for the DD / scatter-gather / packed
// paths. pm.d is nil when the page's twin was already consumed
// (version-only flush).
func (pm *protoMachine) fpRoute() {
	n := pm.n
	d := pm.d
	pg, home, seq := pm.fpPg, pm.fpHome, pm.ivSeq
	if n.sys.Feat.DD {
		if d != nil && n.sys.Cfg.ScatterGather && len(d.runs) > 1 {
			sg := n.pool.getSGDep()
			sg.origin, sg.home, sg.pg, sg.src, sg.seq, sg.d = n, n.sys.Nodes[home], pg, n.ID, seq, d
			pm.d = nil
			pm.startSendSG(home, d.wireSize(), "sg-diff", sg, pmCIPage)
			return
		}
		if d != nil {
			pm.runIdx = 0
			pm.st = pmFPRun
			return
		}
		pm.startVerMarker(pmCIPage)
		return
	}
	// Packed diff (sent even when empty so the home's version row
	// advances under protocol-process control).
	if d == nil {
		d = n.pool.getDiff()
		d.page, d.src, d.seq = pg, n.ID, seq
	}
	pm.d = nil
	pm.startSendInterrupt(home, d.wireSize(), vmmc.MsgDiff, d, pmCIPage)
}

// startVerMarker sends the direct-diff version marker, which releases
// pm.d (if any) at delivery.
func (pm *protoMachine) startVerMarker(ret pmState) {
	n := pm.n
	vm := n.pool.getVerMark()
	vm.origin, vm.home, vm.pg, vm.seq, vm.d = n, n.sys.Nodes[pm.fpHome], pm.fpPg, pm.ivSeq, pm.d
	pm.d = nil
	pm.startSend(pm.fpHome, 16, "diff-done", vm, verMarkDel, ret)
}

// step runs the machine until it parks (idle, sleeping, or gated).
func (pm *protoMachine) step() {
	n := pm.n
	c := &n.sys.Cfg.Costs
	for {
		switch pm.st {
		case pmWake, pmBodyDone:
			if pm.head == len(pm.q) {
				pm.st = pmIdle
				return
			}
			pm.m = pm.pop()
			if pm.sleep(c.HandlerFixed, pmDispatch) {
				return
			}

		case pmDispatch:
			m := pm.m
			pm.m = vmmc.Msg{}
			if m.Src >= 0 {
				n.Acct.Interrupts++
			}
			switch m.Kind {
			case vmmc.MsgPageReq:
				req := m.Payload.(*pageReqMsg)
				if !vecCovered(req.need, n.homeVer.row(req.page)) {
					n.pendingReqs[req.page] = append(n.pendingReqs[req.page], pendingPage{src: m.Src, msg: req})
					pm.st = pmBodyDone
					continue
				}
				pm.startReply(m.Src, req, pmBodyDone)
			case vmmc.MsgDiff:
				d := m.Payload.(*diffMsg)
				pm.d = d
				if pm.sleep(sim.Time(float64(d.wireSize())*c.HandlerPerByte), pmDiffApply) {
					return
				}
			case vmmc.MsgLockReq:
				req := m.Payload.(*lockReqMsg)
				meta := n.lockMetaFor(req.id)
				prev := meta.lastOwner
				meta.lastOwner = req.requester
				if prev == n.ID {
					pm.lockFwd(req)
					continue
				}
				pm.startSendInterrupt(prev, lockMsgOverhead+8*len(req.reqVC), vmmc.MsgLockFwd, req, pmBodyDone)
			case vmmc.MsgLockFwd:
				pm.lockFwd(m.Payload.(*lockReqMsg))
			case vmmc.MsgBarArrive:
				pm.barArrive(m.Payload.(*barArriveMsg))
			case vmmc.MsgBarRelease:
				n.handleBarRelease(m.Payload.(*barReleaseMsg))
				pm.st = pmBodyDone
			default:
				panic(fmt.Sprintf("core: protocol process got unknown message %q", m.Kind))
			}

		case pmDiffApply:
			d := pm.d
			pm.d = nil
			memory.ApplyRuns(n.sys.Space.HomeCopy(d.page), d.runs)
			page, src, seq := d.page, d.src, d.seq
			n.pool.putDiff(d) // consumed; free before the retry path yields
			n.bumpVersion(page, src, seq)
			reqs := n.pendingReqs[page]
			if len(reqs) == 0 {
				pm.st = pmBodyDone
				continue
			}
			pm.retryPage = page
			pm.retryReqs = reqs
			pm.retryI, pm.retryKeep = 0, 0
			pm.st = pmRetryLoop

		case pmRetryLoop:
			// In-place keep-compaction of the pending queue; the machine
			// serializes all mutation of it, so compaction across the
			// reply sends is safe (new requests only append via
			// pmDispatch, which cannot run until this body finishes).
			for pm.st == pmRetryLoop {
				if pm.retryI >= len(pm.retryReqs) {
					for i := pm.retryKeep; i < len(pm.retryReqs); i++ {
						pm.retryReqs[i] = pendingPage{}
					}
					n.pendingReqs[pm.retryPage] = pm.retryReqs[:pm.retryKeep]
					pm.retryReqs = nil
					pm.st = pmBodyDone
					break
				}
				r := pm.retryReqs[pm.retryI]
				pm.retryI++
				if vecCovered(r.msg.need, n.homeVer.row(pm.retryPage)) {
					pm.startReply(r.src, r.msg, pmRetryLoop)
					break
				}
				pm.retryReqs[pm.retryKeep] = r
				pm.retryKeep++
			}

		case pmCIGate:
			if !pm.acquireGate(n.ivGate) {
				return
			}
			if len(n.dirtyList) == 0 {
				n.ivGate.Release()
				pm.ivCur = nil
				pm.st = pmGrantSend
				continue
			}
			// Snapshot and reset the dirty set before any yield: writes
			// during the flush start a fresh interval.
			slices.Sort(n.dirtyList)
			seq := n.vc[n.ID] + 1
			n.vc[n.ID] = seq
			iv := n.newInterval(seq, len(n.dirtyList))
			copy(iv.Pages, n.dirtyList)
			for _, pg := range n.dirtyList {
				n.dirtySet[pg] = false
			}
			n.dirtyList = n.dirtyList[:0]
			n.recordInterval(iv)
			pm.ivCur, pm.ivSeq, pm.pageIdx = iv, seq, 0
			pm.st = pmCIPage

		case pmCIPage:
			if pm.pageIdx >= len(pm.ivCur.Pages) {
				if !n.sys.Feat.DW {
					pm.st = pmCIDone
					continue
				}
				if n.sys.Cfg.Collectives && n.sys.Cfg.Nodes > 1 {
					// Same single-path rule as broadcastNotice: with
					// collectives on, every notice takes the tree.
					pm.st = pmColSleep
				} else if n.sys.Cfg.NIBroadcast && pm.ivCur.wireSize() <= n.sys.Cfg.MaxPacket {
					pm.st = pmBcastSleep
				} else {
					pm.noticeDst = 0
					pm.st = pmCINotice
				}
				continue
			}
			pg := int(pm.ivCur.Pages[pm.pageIdx])
			pm.pageIdx++
			seq := pm.ivSeq
			if row := n.need.row(pg); row[n.ID] < seq {
				row[n.ID] = seq
			}
			home := n.sys.Space.Home(pg)
			if home == n.ID {
				n.bumpVersion(pg, n.ID, seq)
				continue
			}
			pm.fpPg, pm.fpHome = pg, home
			pm.d = nil
			if n.Mem.HasTwin(pg) {
				cost := sim.Time(float64(n.sys.Cfg.PageSize) * c.DiffPerByte)
				n.Acct.DiffCompute += cost
				if pm.sleep(cost, pmFPDiffed) {
					return
				}
				continue
			}
			pm.fpRoute()

		case pmFPDiffed:
			pg := pm.fpPg
			d := n.pool.getDiff()
			d.page, d.src, d.seq = pg, n.ID, pm.ivSeq
			d.runs, d.buf = n.Mem.DiffCopy(pg, d.runs[:0], d.buf)
			n.Mem.DropTwin(pg)
			n.Acct.DiffBytes += uint64(memory.RunsBytes(d.runs))
			pm.d = d
			pm.fpRoute()

		case pmFPRun:
			d := pm.d
			if pm.runIdx < len(d.runs) {
				rd := n.pool.getRunDep()
				rd.owner, rd.pg, rd.run = n, pm.fpPg, d.runs[pm.runIdx]
				pm.runIdx++
				pm.startSend(pm.fpHome, runHeader+len(rd.run.Data), "direct-diff", rd, runDepDel, pmFPRun)
				continue
			}
			pm.startVerMarker(pmCIPage)

		case pmCINotice:
			for pm.st == pmCINotice {
				if pm.noticeDst >= n.sys.Cfg.Nodes {
					pm.st = pmCIDone
					break
				}
				dst := pm.noticeDst
				pm.noticeDst++
				if dst == n.ID {
					continue
				}
				pm.startSend(dst, pm.ivCur.wireSize(), "notice", pm.ivCur, &n.sys.noticeDel, pmCINotice)
			}

		case pmCIDone:
			n.ivGate.Release()
			pm.st = pmGrantSend

		case pmGrantSend:
			req := pm.lkReq
			g := n.pool.getGrant()
			g.id = pm.lk.id
			copy(g.vc, n.vc)
			if !n.sys.Feat.DW {
				// Base: piggyback the write notices the requester lacks.
				for src := 0; src < n.sys.Cfg.Nodes; src++ {
					g.intervals = n.appendIntervalsAfter(g.intervals, src, req.reqVC[src], n.vc[src])
				}
			}
			pm.startSend(req.requester, g.wireSize(), "lock-grant", g, &n.sys.grantDel, pmGrantSent)

		case pmGrantSent:
			pm.lk.localQ.WakeAll() // local waiters must now go remote
			n.pool.putLockReq(pm.lkReq)
			pm.lkReq, pm.lk = nil, nil
			pm.st = pmBodyDone

		case pmBarRel:
			for pm.st == pmBarRel {
				if pm.barDst >= n.sys.Cfg.Nodes {
					pm.barRel = nil
					pm.st = pmBodyDone
					break
				}
				dst := pm.barDst
				pm.barDst++
				if dst == n.ID {
					n.handleBarRelease(pm.barRel)
					continue
				}
				pm.startSendInterrupt(dst, pm.barRel.wireSize(), vmmc.MsgBarRelease, pm.barRel, pmBarRel)
			}

		case pmSendSleep:
			if pm.sleep(c.PostOverhead, pmSendGate) {
				return
			}

		case pmSendGate:
			ni := n.ep.NI()
			if !pm.acquireGate(ni.PostQueue) {
				return
			}
			max := n.sys.Cfg.MaxPacket
			sz, last := pm.sendRem, true
			if sz > max {
				sz, last = max, false
			}
			pkt := ni.NewPacket()
			pkt.Src, pkt.Dst, pkt.Size, pkt.Kind = n.ID, pm.sendDst, sz, pm.sendLabel
			if pm.sendSG {
				ex := sim.Time(float64(sz) * c.NISGPerByte)
				pkt.FwSendExtra, pkt.FwService = ex, ex
				pkt.FwHandler = vmmc.SGApplyHandler
			}
			if last {
				pkt.Payload = pm.sendPayload
				if pm.sendIntr {
					pkt.Meta = pm.sendMeta
					pkt.DeliverTo = n.ep.InterruptDeliverer()
				} else if !pm.sendSG {
					pkt.DeliverTo = pm.sendTo
				}
				pm.sendPayload, pm.sendTo = nil, nil
				pm.st = pm.sendRet
			} else {
				pm.sendRem -= sz
				pm.st = pmSendSleep
			}
			ni.LaunchPosted(pkt)

		case pmBcastSleep:
			if pm.sleep(c.PostOverhead, pmBcastGate) {
				return
			}

		case pmBcastGate:
			ni := n.ep.NI()
			if !pm.acquireGate(ni.PostQueue) {
				return
			}
			iv := pm.ivCur
			tmpl := ni.NewPacket()
			tmpl.Src, tmpl.Dst, tmpl.Size, tmpl.Kind = n.ID, -1, iv.wireSize(), "notice"
			tmpl.Payload = iv
			tmpl.DeliverTo = &n.sys.noticeDel
			ni.LaunchPostedBroadcast(tmpl, n.ep.BroadcastDsts(), nil)
			pm.st = pmCIDone

		case pmColSleep:
			if pm.sleep(c.PostOverhead, pmColGate) {
				return
			}

		case pmColGate:
			ni := n.ep.NI()
			if !pm.acquireGate(ni.PostQueue) {
				return
			}
			// The NI's collective layer takes over from here: one source
			// DMA (which releases the post-queue slot), then firmware
			// tree hops. Machine-context counterpart of broadcastNotice.
			ni.ColBroadcastPosted(pm.ivCur.wireSize(), "notice", pm.ivCur, &n.sys.noticeDel)
			pm.st = pmCIDone

		default:
			panic(fmt.Sprintf("core: protocol machine at node %d in invalid state %d", n.ID, pm.st))
		}
	}
}
