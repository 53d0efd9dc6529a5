// Package vmmc models the VMMC user-level communication layer plus the
// GeNIMA extensions to it, on top of the NI model:
//
//   - Remote deposit: asynchronous sends whose data lands directly in
//     destination virtual memory with no receive operation and no host
//     involvement (VMMC's native capability).
//   - Interrupt delivery: deposits that additionally interrupt a host
//     processor and hand the message to a registered sink — the only
//     delivery mode the Base protocol uses for protocol requests, whose
//     sink queues them for the node's floating protocol process.
//   - Remote fetch: pull data from exported remote memory entirely via
//     the home NI's firmware (extension §2 "Remote fetch").
//   - NI locks: a distributed lock algorithm (static home, last-owner
//     chaining) run entirely in NI firmware, carrying an opaque
//     protocol timestamp with each grant (extension §2 "Network
//     interface locks").
//
// Message payloads travel as Go values; the Size field is the simulated
// wire size that drives all timing.
package vmmc

import (
	"fmt"

	"genima/internal/nic"
	"genima/internal/sim"
	"genima/internal/topo"
)

// MsgKind is the integer protocol-message discriminator for
// interrupt-class deliveries. The protocol core dispatches on it with a
// dense switch (no string compare, no map); String() recovers the
// packet-trace label.
type MsgKind uint8

// Interrupt-class protocol message kinds (the SVM core's request set).
const (
	MsgInvalid MsgKind = iota
	MsgPageReq
	MsgDiff
	MsgLockReq
	MsgLockFwd
	MsgBarArrive
	MsgBarRelease
)

var msgKindLabels = [...]string{
	MsgInvalid:    "invalid",
	MsgPageReq:    "page-req",
	MsgDiff:       "diff",
	MsgLockReq:    "lock-req",
	MsgLockFwd:    "lock-fwd",
	MsgBarArrive:  "bar-arrive",
	MsgBarRelease: "bar-release",
}

// String returns the wire-trace label for the kind.
func (k MsgKind) String() string {
	if int(k) < len(msgKindLabels) {
		return msgKindLabels[k]
	}
	return "unknown"
}

// Msg is a message delivered to a host interrupt sink.
type Msg struct {
	Src     int
	Kind    MsgKind
	Payload any
}

// MsgSink is the typed interrupt receiver: a persistent per-node object
// (the node's protocol-process queue) that replaces a per-node closure.
// It runs in engine context after the interrupt dispatch delay.
type MsgSink interface {
	HandleMsg(m Msg)
}

// FetchReq is what a remote-fetch firmware handler receives.
type FetchReq struct {
	Src  int // requesting node
	Tag  int // protocol-defined request descriptor (page id, ...)
	Size int // requested data size in bytes
}

// FetchReply is the result of a remote fetch.
type FetchReply struct {
	Payload any
	Size    int
}

// Layer is the communication layer instance for a whole cluster.
type Layer struct {
	eng *sim.Engine
	cfg *topo.Config
	sys *nic.System
	eps []*Endpoint

	// intrDel is the shared deliverer for every interrupt-class packet.
	intrDel interruptDeliver

	// NI-lock firmware handlers, bound once here so posting a lock
	// packet allocates no closure (see nilocks.go).
	lockAcqFw, lockFwdFw, lockGrantFw func(*nic.NI, *nic.Packet)
}

// interruptDeliver dispatches a delivered interrupt-class packet to the
// destination endpoint: the packet's Meta carries the MsgKind and
// Payload the protocol record.
type interruptDeliver struct{ l *Layer }

func (d *interruptDeliver) Deliver(pkt *nic.Packet) {
	d.l.eps[pkt.Dst].interrupt(Msg{Src: pkt.Src, Kind: MsgKind(pkt.Meta), Payload: pkt.Payload})
}

// New builds the layer (one endpoint per node) over a fresh NI system.
func New(eng *sim.Engine, cfg *topo.Config) *Layer {
	l := &Layer{eng: eng, cfg: cfg, sys: nic.NewSystem(eng, cfg)}
	l.intrDel.l = l
	l.lockAcqFw, l.lockFwdFw, l.lockGrantFw = l.fwLockAcq, l.fwLockFwd, l.fwLockGrant
	l.eps = make([]*Endpoint, cfg.Nodes)
	for i := range l.eps {
		l.eps[i] = &Endpoint{
			layer: l,
			Node:  i,
			ni:    l.sys.NIs[i],
			eng:   l.sys.NIs[i].Eng(),
			locks: map[int]*niLock{},
			owned: map[int]*ownedLock{},
		}
	}
	return l
}

// Endpoint returns node n's endpoint.
func (l *Layer) Endpoint(n int) *Endpoint { return l.eps[n] }

// NI exposes the endpoint's network interface for the NI services the
// endpoint does not wrap: firmware collectives and queue statistics.
func (ep *Endpoint) NI() *nic.NI { return ep.ni }

// Monitor returns the NI firmware performance monitor.
func (l *Layer) Monitor() *nic.Monitor { return l.sys.Monitor }

// NIs exposes the underlying NI system (for queue statistics).
func (l *Layer) NIs() *nic.System { return l.sys }

// Endpoint is one node's view of the communication layer.
type Endpoint struct {
	layer *Layer
	Node  int
	ni    *nic.NI
	// eng is this node's logical process (the NI's engine); endpoint
	// work like the interrupt dispatch must be scheduled here, not on
	// the layer's construction engine, so it stays LP-local in a
	// parallel run. Identical to layer.eng in a serial run.
	eng *sim.Engine

	// Sink receives interrupt-class messages after the interrupt
	// dispatch delay. Runs in engine context, so it must not block: the
	// protocol core's sink queues the message for the node's protocol
	// process.
	Sink MsgSink
	// Perturb, if set, is invoked once per interrupt so the caller can
	// charge scheduling perturbation to a compute processor.
	Perturb func()

	// FetchServer services remote-fetch requests against this node's
	// exported memory. It runs in firmware context (engine context, no
	// host time charged) and returns the reply payload and actual size.
	FetchServer func(FetchReq) FetchReply

	// NI lock state for locks homed at this node.
	locks map[int]*niLock
	// NI lock state for locks this node currently owns.
	owned map[int]*ownedLock
	// Outstanding remote lock acquires (one per lock).
	acq map[int]*acquireWait

	// bcastDsts caches the broadcast destination set (built lazily).
	bcastDsts []int

	// Pooled records, each a sim.FreeList: touched only by this
	// endpoint's engine, so reuse order is reproducible.
	intrFree   sim.FreeList[*intrEvent]
	fetchFree  sim.FreeList[*fetchOp]
	lockOpFree sim.FreeList[*lockOp]
}

// DepositTo asynchronously sends size bytes to node dst, depositing
// them directly into destination memory. to (optional, a shared
// dispatcher) is invoked in engine context with the final packet, whose
// Payload carries the protocol record, when the last byte lands. The
// caller is charged only the post overhead (plus any post-queue stall).
func (ep *Endpoint) DepositTo(p *sim.Proc, dst, size int, label string, payload any, to nic.Deliverer) {
	ep.post(p, dst, size, label, payload, 0, to)
}

// Deposit is DepositTo with a closure: onDeliver (optional) runs when
// the last byte lands.
func (ep *Endpoint) Deposit(p *sim.Proc, dst, size int, kind string, payload any, onDeliver func()) {
	var to nic.Deliverer
	if onDeliver != nil {
		to = deliverFunc(onDeliver)
	}
	ep.DepositTo(p, dst, size, kind, payload, to)
}

// deliverFunc adapts Deposit's closure to nic.Deliverer. A func value
// is pointer-shaped, so the conversion allocates nothing.
type deliverFunc func()

func (f deliverFunc) Deliver(*nic.Packet) { f() }

// post splits a size-byte message into wire packets and posts them in
// order; the last packet carries payload, meta and the delivery hook.
func (ep *Endpoint) post(p *sim.Proc, dst, size int, label string, payload any, meta int, to nic.Deliverer) {
	max := ep.layer.cfg.MaxPacket
	for rem := size; ; rem -= max {
		sz, last := nic.SplitStep(rem, max)
		pkt := ep.ni.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size, pkt.Kind = ep.Node, dst, sz, label
		if last {
			pkt.Payload, pkt.Meta, pkt.DeliverTo = payload, meta, to
			ep.ni.Post(p, pkt)
			return
		}
		ep.ni.Post(p, pkt)
	}
}

// DepositBroadcastTo sends one message that the fabric replicates to
// all other nodes (requires cfg.NIBroadcast hardware): one host post,
// one source DMA, N deliveries. Every per-destination copy carries
// payload and invokes to at its delivery (the deliverer reads the
// copy's Dst to identify the destination).
func (ep *Endpoint) DepositBroadcastTo(p *sim.Proc, size int, label string, payload any, to nic.Deliverer) {
	if size > ep.layer.cfg.MaxPacket {
		panic("vmmc: broadcast larger than one packet")
	}
	ep.buildBcastDsts()
	tmpl := ep.ni.NewPacket()
	tmpl.Src, tmpl.Dst, tmpl.Size, tmpl.Kind = ep.Node, -1, size, label
	tmpl.Payload = payload
	tmpl.DeliverTo = to
	ep.ni.PostBroadcast(p, tmpl, ep.bcastDsts)
}

// DepositBroadcast is DepositBroadcastTo with a closure and no payload:
// onDeliver runs once per destination.
func (ep *Endpoint) DepositBroadcast(p *sim.Proc, size int, kind string, onDeliver func(dst int)) {
	var to nic.Deliverer
	if onDeliver != nil {
		to = dstDeliverFunc(onDeliver)
	}
	ep.DepositBroadcastTo(p, size, kind, nil, to)
}

// dstDeliverFunc adapts DepositBroadcast's closure to nic.Deliverer.
type dstDeliverFunc func(dst int)

func (f dstDeliverFunc) Deliver(pkt *nic.Packet) { f(pkt.Dst) }

// buildBcastDsts lazily builds the everyone-but-self destination set
// once, so repeated broadcasts allocate nothing.
func (ep *Endpoint) buildBcastDsts() {
	if ep.bcastDsts != nil {
		return
	}
	ep.bcastDsts = make([]int, 0, ep.layer.cfg.Nodes-1)
	for d := 0; d < ep.layer.cfg.Nodes; d++ {
		if d != ep.Node {
			ep.bcastDsts = append(ep.bcastDsts, d)
		}
	}
}

// SGApplier is the scatter-gather apply hook, usually a pooled record.
type SGApplier interface {
	ApplySG()
}

// DepositGatheredTo sends size bytes of scattered data as ONE message
// that the destination NI scatters into memory itself (the
// scatter-gather extension, paper §3.3): extra firmware occupancy on
// both NIs, no host involvement at the destination. apply (optional)
// runs in the destination NI's firmware context when the last fragment
// lands.
func (ep *Endpoint) DepositGatheredTo(p *sim.Proc, dst, size int, kind string, apply SGApplier) {
	c := &ep.layer.cfg.Costs
	max := ep.layer.cfg.MaxPacket
	for rem := size; ; rem -= max {
		sz, last := nic.SplitStep(rem, max)
		pkt := ep.ni.NewPacket()
		pkt.Src, pkt.Dst, pkt.Size, pkt.Kind = ep.Node, dst, sz, kind
		pkt.FwSendExtra = sim.Time(float64(sz) * c.NISGPerByte)
		pkt.FwService = sim.Time(float64(sz) * c.NISGPerByte)
		pkt.FwHandler = sgApplyHandler
		if last {
			// The payload slot carries the apply hook so one shared
			// handler serves every sg packet; sg messages have no
			// protocol payload of their own.
			pkt.Payload = apply
		}
		ep.ni.Post(p, pkt)
		if last {
			return
		}
	}
}

// sgApplyHandler is the shared firmware handler for scatter-gather
// deposits: it scatters the fragment in NI firmware (the service time is
// on the packet) and runs the apply hook carried by the final fragment.
func sgApplyHandler(_ *nic.NI, pkt *nic.Packet) {
	if f, ok := pkt.Payload.(SGApplier); ok {
		f.ApplySG()
	}
}

// SendInterrupt sends a message that interrupts a destination host
// processor and is handed to the destination's Sink after the interrupt
// dispatch cost (the Base protocol's delivery mode).
func (ep *Endpoint) SendInterrupt(p *sim.Proc, dst, size int, kind MsgKind, payload any) {
	ep.post(p, dst, size, kind.String(), payload, int(kind), &ep.layer.intrDel)
}

// intrEvent is a pooled scheduled interrupt dispatch: the Msg rides in
// the event queue slot itself (via Handler) instead of a closure.
type intrEvent struct {
	ep   *Endpoint
	sink MsgSink
	m    Msg
}

// Run implements sim.Handler: hand the message to the sink recorded at
// interrupt time and recycle the event record.
func (ev *intrEvent) Run(_, _ sim.Time) {
	ep, sink, m := ev.ep, ev.sink, ev.m
	*ev = intrEvent{}
	ep.intrFree.Push(ev)
	sink.HandleMsg(m)
}

func (ep *Endpoint) interrupt(m Msg) {
	if ep.Perturb != nil {
		ep.Perturb()
	}
	sink := ep.Sink
	if sink == nil {
		panic(fmt.Sprintf("vmmc: interrupt-class message %q at node %d with no sink", m.Kind, ep.Node))
	}
	ev := sim.Take(&ep.intrFree, 1, nil)
	ev.ep, ev.sink, ev.m = ep, sink, m
	eng := ep.eng
	now := eng.Now()
	eng.AtHandler(now+ep.layer.cfg.Costs.Interrupt, now, ev)
}

// fetchOp is one outstanding RemoteFetch: a pooled record that serves as
// the request packet's payload (so one shared firmware handler replaces
// the per-fetch closure) and carries the reply back to the blocked
// requester.
type fetchOp struct {
	ep         *Endpoint // requesting endpoint
	home       int
	size       int
	tag        int
	replyLabel string
	reply      FetchReply
	done       sim.Counter
}

// fetchReqFw is the shared firmware handler for remote-fetch request
// packets; it runs on the home NI.
func fetchReqFw(homeNI *nic.NI, pkt *nic.Packet) {
	op := pkt.Payload.(*fetchOp)
	home := op.home
	srv := op.ep.layer.eps[home].FetchServer
	if srv == nil {
		panic(fmt.Sprintf("vmmc: remote fetch at node %d with no FetchServer", home))
	}
	op.reply = srv(FetchReq{Src: op.ep.Node, Tag: op.tag, Size: op.size})
	max := op.ep.layer.cfg.MaxPacket
	for rem := op.reply.Size; ; rem -= max {
		sz, last := nic.SplitStep(rem, max)
		rp := homeNI.NewPacket()
		rp.Src, rp.Dst, rp.Size, rp.Kind = home, op.ep.Node, sz, op.replyLabel
		if last {
			rp.Payload = op
			rp.DeliverTo = fetchReplyDel
		}
		homeNI.FirmwareSend(rp, true) // data DMA'd from host memory
		if last {
			return
		}
	}
}

// fetchDeliver completes a RemoteFetch when the last reply byte lands.
type fetchDeliver struct{}

var fetchReplyDel fetchDeliver

func (fetchDeliver) Deliver(pkt *nic.Packet) { pkt.Payload.(*fetchOp).done.Add(1) }

// RemoteFetch pulls size bytes of exported memory from node home,
// serviced entirely by the home NI's firmware; the calling process
// blocks until the reply is deposited locally. The home node's
// FetchServer produces the data. reqLabel/replyLabel are the packet
// trace labels for the request and reply legs.
func (ep *Endpoint) RemoteFetch(p *sim.Proc, home, size int, reqLabel, replyLabel string, tag int) FetchReply {
	if home == ep.Node {
		panic("vmmc: RemoteFetch from self")
	}
	op := sim.Take(&ep.fetchFree, 1, nil)
	op.ep, op.home, op.size, op.tag, op.replyLabel = ep, home, size, tag, replyLabel
	req := ep.ni.NewPacket()
	req.Src, req.Dst, req.Size, req.Kind = ep.Node, home, 16, reqLabel
	req.FwService = ep.layer.cfg.Costs.NIFetchService
	req.FwHandler = fetchReqFw
	req.Payload = op
	ep.ni.Post(p, req)
	op.done.WaitFor(p, 1)
	reply := op.reply
	// The single waiter has resumed, so the op (and its done counter)
	// can be reset and recycled; Reset keeps the counter's queue storage.
	op.ep, op.replyLabel, op.reply = nil, "", FetchReply{}
	op.done.Reset()
	ep.fetchFree.Push(op)
	return reply
}
