package core

import (
	"fmt"
	"strconv"

	"genima/internal/sim"
	"genima/internal/vmmc"
)

// The floating protocol process (HLRC-SMP): one per node, scheduled by
// interrupts, servicing incoming asynchronous protocol requests. In the
// Base protocol it handles page requests, packed diff applications, lock
// chain operations, and barrier control; each GeNIMA mechanism removes a
// class of messages from this loop until (GeNIMA) it receives none.
//
// The process is a coroutine-backed sim.Proc running the same
// process-context protocol code as the compute processors (interval
// close, diff flush, lock grant, deposits). It is spawned by the node's
// first message and parks whenever its queue is empty, so a node that
// never receives a message — every GeNIMA node — has no process at all.

// localMsg wraps a request a node sends to its own protocol process
// (directory lookups at the local home) — no interrupt, no network.
func localMsg(kind vmmc.MsgKind, payload any) vmmc.Msg {
	return vmmc.Msg{Src: -1, Kind: kind, Payload: payload}
}

// protoProc is a node's protocol process and its incoming message
// queue. It implements vmmc.MsgSink (message arrival).
type protoProc struct {
	n    *Node
	p    *sim.Proc // nil until the first message
	busy bool      // servicing messages, not parked on an empty queue

	// Incoming message queue: a head-indexed slice reused in place.
	q    []vmmc.Msg
	head int
}

// HandleMsg implements vmmc.MsgSink: it queues a message (an arriving
// interrupt, or a local request from one of the node's processors) and,
// when the process is idle, wakes it at the current time — spawning it
// on the node's first message; the spawn schedules exactly the dispatch
// a wakeup would.
func (pp *protoProc) HandleMsg(m vmmc.Msg) {
	pp.q = append(pp.q, m)
	if pp.busy {
		return
	}
	pp.busy = true
	if pp.p == nil {
		pp.p = pp.n.eng.Go("proto"+strconv.Itoa(pp.n.ID), pp.run)
		return
	}
	pp.p.Unpark()
}

func (pp *protoProc) pop() vmmc.Msg {
	m := pp.q[pp.head]
	pp.q[pp.head] = vmmc.Msg{}
	pp.head++
	if pp.head == len(pp.q) {
		pp.q = pp.q[:0]
		pp.head = 0
	}
	return m
}

// run is the process body: pay the fixed handler cost for each message,
// then service it.
func (pp *protoProc) run(p *sim.Proc) {
	n := pp.n
	c := &n.sys.Cfg.Costs
	for {
		for pp.head == len(pp.q) {
			pp.busy = false
			p.Park()
		}
		m := pp.pop()
		p.Sleep(c.HandlerFixed)
		if m.Src >= 0 {
			n.Acct.Interrupts++
		}
		switch m.Kind {
		case vmmc.MsgPageReq:
			n.handlePageReq(p, m.Src, m.Payload.(*pageReqMsg))
		case vmmc.MsgDiff:
			n.applyPackedDiff(p, m.Payload.(*diffMsg))
		case vmmc.MsgLockReq:
			n.handleLockReq(p, m.Payload.(*lockReqMsg))
		case vmmc.MsgLockFwd:
			n.handleLockFwd(p, m.Payload.(*lockReqMsg))
		case vmmc.MsgBarArrive:
			n.handleBarArrive(p, m.Payload.(*barMsg))
		case vmmc.MsgBarRelease:
			n.handleBarRelease(m.Payload.(*barMsg))
		default:
			panic(fmt.Sprintf("core: protocol process got unknown message %q", m.Kind))
		}
	}
}
