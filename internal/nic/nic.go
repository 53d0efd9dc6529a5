// Package nic models the programmable network interface (the paper's
// 33 MHz LANai on Myrinet): a bounded post queue fed by the host, DMA
// engines sharing the node's PCI bus, a firmware processor that handles
// both outgoing and incoming packets, and — for the GeNIMA extensions —
// firmware-level services that handle incoming packets entirely in the
// NI without involving a host processor.
//
// Every packet records timestamps at the four stage boundaries of §3.1
// of the paper (SourceLatency, LANaiLatency, NetLatency, DestLatency);
// the firmware performance monitor accumulates actual versus uncontended
// time per stage and per message-size class, which regenerates Tables 3
// and 4.
package nic

import (
	"genima/internal/sim"
	"genima/internal/stats"
	"genima/internal/topo"
)

// SmallMessageMax is the size boundary between the monitor's "small" and
// "large" message classes (≤ 256 bytes in the paper).
const SmallMessageMax = 256

// Class is a monitor message-size class.
type Class int

// Message-size classes.
const (
	Small Class = iota
	Large
	numClasses
)

// ClassOf returns the class for a packet size.
func ClassOf(size int) Class {
	if size <= SmallMessageMax {
		return Small
	}
	return Large
}

// String names the class.
func (c Class) String() string {
	if c == Small {
		return "small"
	}
	return "large"
}

// Stage identifies one of the four measured pipeline stages.
type Stage int

// Pipeline stages, in path order.
const (
	StageSource Stage = iota // post-queue appearance -> packet data DMA'd into NI
	StageLANai               // end of Source -> packet inserted into network
	StageNet                 // end of Source -> last word at receiving NI
	StageDest                // last word at receiving NI -> delivered to host memory
	NumStages
)

var stageNames = [...]string{"SourceLat", "LANaiLat", "NetLat", "DestLat"}

// String names the stage.
func (s Stage) String() string { return stageNames[s] }

// Deliverer is a packet's delivery hook: a shared (usually singleton)
// dispatcher invoked with the packet still in hand, so
// Dst/Src/Meta/Payload can parameterize one handler object instead of a
// per-send closure. Runs in engine context at the moment the packet's
// data lands in destination host memory.
type Deliverer interface {
	Deliver(pkt *Packet)
}

// Packet is one network packet (≤ MaxPacket bytes of simulated payload).
type Packet struct {
	Src, Dst int
	Size     int
	Kind     string // diagnostic label ("page-req", "diff", "lock-grant", ...)
	Payload  any
	// Meta and Meta2 are small protocol-defined integers (message kind,
	// lock id, ...) that travel with the packet without boxing.
	Meta, Meta2 int

	// FwHandler, when non-nil, makes the destination NI service the
	// packet entirely in firmware (remote fetch, NI lock operations):
	// no host DMA, no interrupt. FwService is extra firmware occupancy
	// charged for the service.
	FwHandler func(dst *NI, pkt *Packet)
	FwService sim.Time
	// FwSendExtra is additional firmware occupancy on the SENDING NI
	// (e.g. scatter-gather packing from host memory).
	FwSendExtra sim.Time

	// DeliverTo, when non-nil, runs when the packet's data has been
	// deposited into destination host memory (remote-deposit
	// semantics). Ignored for firmware-handled packets.
	DeliverTo Deliverer

	// Reliable-delivery header (see reliable.go); zero when fault
	// injection is disabled. Seq is the per-(Src,Dst) sequence number,
	// Ack the piggybacked cumulative ack, Csum the XOR of the corruption
	// masks the links injected (nonzero means corrupted).
	Seq, Ack, Csum uint64
	RelFlags       uint8

	noSrcDMA bool // firmware-originated packet whose data is already in NI memory

	tPost, tSrc, tInject, tArrive, tDone sim.Time
}

// NI is one node's network interface.
type NI struct {
	ID  int
	eng *sim.Engine
	cfg *topo.Config

	fabric *Fabric
	peers  []*NI

	PostQueue *sim.Gate     // bounded post queue (host stalls when full)
	PCI       *sim.Resource // the node's I/O bus: both send and receive DMA
	Firmware  *sim.Resource // the NI processor (one, shared by both directions)

	mon *Monitor

	// rel is the firmware reliable-delivery engine, non-nil only when
	// fault injection is enabled (reliable.go). With it nil, the packet
	// pipeline takes no reliability branches at all.
	rel *relState

	// col is the firmware collective-tree engine (collective.go),
	// non-nil only when Config.Collectives is on and the protocol tier
	// has the capability for it (EnableCollectives was called).
	col *colState

	// pool holds the deterministic free lists for the pooled packet
	// pipeline (see transit.go). Pools are logical-process-local: in a
	// parallel run each node LP allocates and recycles only through
	// pools it owns, so the free lists need no locks.
	pool pktPool

	// monFree pools deferred monitor records (monitor.go); drawn on
	// this NI's LP during a parallel round, returned at the barrier.
	monFree sim.FreeList[*monRec]

	// fab is the fabric logical process (engine + packet pool), shared
	// by all NIs of a parallel run; nil in a serial run, which the
	// transit pipeline uses as the serial/parallel branch.
	fab *fabLP
}

// fabLP is the network fabric's logical process: the engine that owns
// the switch plus the packet/transit pool that fan-out copies are drawn
// from while a packet is on the fabric.
type fabLP struct {
	eng  *sim.Engine
	pool pktPool
}

// Eng returns the engine (logical process) this NI executes on.
func (ni *NI) Eng() *sim.Engine { return ni.eng }

// System is the set of NIs plus the shared fabric and monitor.
type System struct {
	NIs     []*NI
	Fabric  *Fabric
	Monitor *Monitor
}

// NewSystem builds one NI per node on a fresh fabric. Each NI (its
// engine, DMA/firmware resources, pools, and reliability state) lives
// on its node's logical process; with a standalone engine LPNode
// returns eng itself and the system is wired exactly as before.
func NewSystem(eng *sim.Engine, cfg *topo.Config) *System {
	fab := newFabric(eng, cfg)
	mon := &Monitor{}
	s := &System{Fabric: fab, Monitor: mon}
	s.NIs = make([]*NI, cfg.Nodes)
	var fl *fabLP
	if eng.Parallel() {
		fl = &fabLP{eng: eng.LPFabric()}
	}
	for i := range s.NIs {
		ne := eng.LPNode(i)
		s.NIs[i] = &NI{
			ID:        i,
			eng:       ne,
			cfg:       cfg,
			fabric:    fab,
			PostQueue: sim.NewGate(cfg.PostQueueDepth),
			PCI:       sim.NewResource(ne),
			Firmware:  sim.NewResource(ne),
			mon:       mon,
			fab:       fl,
		}
	}
	for _, ni := range s.NIs {
		ni.peers = s.NIs
	}
	if cfg.Faults.Enabled {
		ackEvery := fab.Faults.AckEvery()
		for _, ni := range s.NIs {
			ni.rel = newRelState(ni, ackEvery)
		}
	}
	return s
}

// RelReport aggregates the per-NI reliable-delivery counters (zero
// when fault injection is disabled).
func (s *System) RelReport() stats.FaultReport {
	var rep stats.FaultReport
	for _, ni := range s.NIs {
		if ni.rel != nil {
			rep.Merge(ni.rel.Report)
		}
	}
	return rep
}

// FaultReport aggregates the fault plan's injection counters with the
// NIs' reliable-delivery counters for a whole run.
func (s *System) FaultReport() stats.FaultReport {
	rep := s.RelReport()
	if s.Fabric.Faults != nil {
		rep.Merge(s.Fabric.Faults.Report())
	}
	return rep
}

func (ni *NI) pciService(size int) sim.Time {
	return ni.cfg.Costs.PCIFixed + sim.Time(float64(size)*ni.cfg.Costs.PCIPerByte)
}

func (ni *NI) fwSendService(size int) sim.Time {
	per := ni.cfg.Costs.NIPerPacket / sim.Time(ni.cfg.SendPipelining)
	return per + sim.Time(float64(size)*ni.cfg.Costs.NIPerByte) + ni.relService(size)
}

func (ni *NI) fwRecvService(size int) sim.Time {
	return ni.cfg.Costs.NIPerPacket + sim.Time(float64(size)*ni.cfg.Costs.NIPerByte) +
		ni.relService(size)
}

func (f *Fabric) linkService(size int) sim.Time {
	return f.costs.LinkFixed + sim.Time(float64(size)*f.costs.LinkPerByte)
}

// SplitStep is the one rule that cuts a message into wire packets of
// at most max bytes: for rem remaining bytes it returns the next
// packet's size and whether it is the last. Every packet but the last
// is max bytes, so a fragment loop walks it as
//
//	for rem := size; ; rem -= max { sz, last := SplitStep(rem, max); ... }
//
// A zero-byte message is one zero-size packet.
func SplitStep(rem, max int) (sz int, last bool) {
	if rem <= max {
		return rem, true
	}
	return max, false
}

// Post submits a packet from host process p: it charges the asynchronous
// post overhead to the caller and blocks only if the post queue is full
// (the paper's only host-side blocking condition for async sends).
func (ni *NI) Post(p *sim.Proc, pkt *Packet) { ni.post(p, pkt, nil) }

// FirmwareSend transmits a firmware-originated packet (fetch reply, lock
// forward/grant). If dataFromHost is true the packet's payload must first
// be DMA'd from host memory over PCI (e.g. a fetched page); otherwise the
// data already lives in NI memory (lock state) and the source-DMA stage
// is skipped.
func (ni *NI) FirmwareSend(pkt *Packet, dataFromHost bool) {
	pkt.tPost = ni.eng.Now()
	pkt.noSrcDMA = !dataFromHost
	t := ni.newTransit(pkt)
	if dataFromHost {
		t.start()
		return
	}
	pkt.tSrc = ni.eng.Now()
	t.startAtFirmware()
}

// PostBroadcast submits one packet that the fabric replicates to every
// node in dsts (the NI-broadcast extension, paper §5). The host pays
// one post; each destination receives its own copy of the packet (taken
// from the packet pool at the switch fan-out), with tmpl.DeliverTo
// running at that copy's delivery (the copy's Dst names the
// destination). Broadcast packets are plain deposits (no firmware
// handler). The NI keeps no reference to dsts after the switch stage,
// but the caller must not mutate it while the broadcast is in flight.
func (ni *NI) PostBroadcast(p *sim.Proc, tmpl *Packet, dsts []int) { ni.post(p, tmpl, dsts) }

// post runs the host-originated send pipeline for Post (dsts nil) and
// PostBroadcast. The post-queue slot is released when the source DMA
// completes (the request has been consumed by the NI).
func (ni *NI) post(p *sim.Proc, pkt *Packet, dsts []int) {
	p.Sleep(ni.cfg.Costs.PostOverhead)
	ni.PostQueue.Acquire(p)
	pkt.tPost = ni.eng.Now()
	t := ni.newTransit(pkt)
	t.holdsSlot = true
	t.dsts = dsts
	t.start()
}

// DepositLocalHandler models the NI DMA-ing size bytes into its own
// host's memory (e.g. a lock grant handed to a locally spinning
// acquirer); h.Run fires when the DMA completes.
func (ni *NI) DepositLocalHandler(size int, h sim.Handler) {
	ni.PCI.EnqueueHandler(ni.pciService(size), h)
}

// FirmwareRunHandler charges service time on this NI's firmware
// processor and fires h.Run when it completes (local firmware work with
// no packet).
func (ni *NI) FirmwareRunHandler(service sim.Time, h sim.Handler) {
	ni.Firmware.EnqueueHandler(service, h)
}

// UncontendedOneWay returns the zero-load host-to-host-memory latency for
// an n-byte packet (excluding the 2 µs post overhead), used by tests to
// check calibration against the paper's 18 µs figure.
func (s *System) UncontendedOneWay(n int) sim.Time {
	ni := s.NIs[0]
	return ni.pciService(n) + ni.fwSendService(n) + s.Fabric.UncontendedNet(n) +
		ni.fwRecvService(n) + ni.pciService(n)
}
