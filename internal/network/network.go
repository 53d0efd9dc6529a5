// Package network models a Myrinet-like system-area network: full-duplex
// point-to-point links connecting each host's network interface to a
// crossbar switch or a multi-stage fabric of switches. Links and switches
// are FIFO resources, so per source-destination pair delivery order is
// preserved — the only ordering guarantee VMMC (and the GeNIMA protocols)
// require. This package only builds and reserves the resources; the walk
// of a packet across them is the NI transit pipeline in package nic.
package network

import (
	"genima/internal/faults"
	"genima/internal/sim"
	"genima/internal/topo"
)

// Link is a unidirectional wire with a fixed per-packet propagation delay
// and a per-byte serialization time (160 MB/s in the paper's Myrinet).
type Link struct {
	res     *sim.Resource
	fixed   sim.Time
	perByte float64
}

// NewLink creates a link with the given fixed latency and ns/byte rate.
func NewLink(eng *sim.Engine, fixed sim.Time, perByte float64) *Link {
	return &Link{res: sim.NewResource(eng), fixed: fixed, perByte: perByte}
}

// ServiceTime returns the uncontended time to carry n bytes.
func (l *Link) ServiceTime(n int) sim.Time {
	return l.fixed + sim.Time(float64(n)*l.perByte)
}

// TransferHandler enqueues an n-byte packet; h.Run fires when the last
// byte is on the far side.
func (l *Link) TransferHandler(n int, h sim.Handler) {
	l.res.EnqueueHandler(l.ServiceTime(n), h)
}

// TransferCross is TransferHandler for a completion that runs on a
// different logical process (the far side of the link): the reservation
// is made by `from` (which must own this link), the completion is
// delivered to `to`. Serial runs (from == to) are byte-identical to
// TransferHandler.
func (l *Link) TransferCross(n int, from, to *sim.Engine, h sim.Handler) {
	l.res.EnqueueHandlerCross(from, to, l.ServiceTime(n), h)
}

// Stats exposes the underlying resource for utilization reporting.
func (l *Link) Stats() *sim.Resource { return l.res }

// Switch is a crossbar that routes packets between links with a fixed
// per-packet routing delay. The paper's testbed is a single 8-way switch;
// we model its arbitration as one FIFO resource, which slightly
// pessimizes concurrent disjoint routes but preserves ordering.
type Switch struct {
	res   *sim.Resource
	fixed sim.Time
}

// NewSwitch creates one switch of the fabric.
func NewSwitch(eng *sim.Engine, fixed sim.Time) *Switch {
	return &Switch{res: sim.NewResource(eng), fixed: fixed}
}

// RouteHandler enqueues a routing decision; h.Run fires when the head
// flit exits.
func (s *Switch) RouteHandler(h sim.Handler) {
	s.res.EnqueueHandler(s.fixed, h)
}

// RouteCross is RouteHandler with the completion delivered to another
// logical process (the destination host's LP); from must be the
// fabric LP that owns the switch. Serial runs (from == to) are
// byte-identical to RouteHandler.
func (s *Switch) RouteCross(from, to *sim.Engine, h sim.Handler) {
	s.res.EnqueueHandlerCross(from, to, s.fixed, h)
}

// Reserve claims the switch's next FIFO routing slot without scheduling
// a completion and returns its (start, end). The parallel broadcast
// path uses it to compute the single routing occupancy it then fans out
// to every destination LP itself.
func (s *Switch) Reserve() (start, end sim.Time) {
	return s.res.Reserve(s.fixed)
}

// ServiceTime returns the uncontended routing delay.
func (s *Switch) ServiceTime() sim.Time { return s.fixed }

// Stats exposes the underlying resource.
func (s *Switch) Stats() *sim.Resource { return s.res }

// Fabric wires N hosts to a switched fabric with an in- and out-link
// each. The fabric is one switch (the paper's 8-way crossbar) or a
// multi-stage topology (clos2/fattree) whose deterministic routes were
// compiled into Desc at Config build time.
type Fabric struct {
	// Switches holds every switch of the fabric, indexed by the ids
	// Desc's routes use; on the crossbar, Switches[0] is the only one.
	// All of them live on the fabric LP.
	Switches []*Switch
	// Desc is the compiled topology: switch inventory + routing table.
	Desc *topo.FabricDesc
	Out  []*Link // host -> first switch
	In   []*Link // last switch -> host

	// Faults is the compiled fault plan, nil when fault injection is
	// disabled (the common case; nil keeps the fault-free path free of
	// any per-packet overhead). The NI pipeline consults it at the two
	// link-crossing boundaries.
	Faults *faults.Plan
}

// NewFabric builds the fabric for cfg.Nodes hosts. Resources are placed
// on their owning logical process — every switch on the fabric LP, node
// i's links on node i's LP (LinkFixed is the node LPs' lookahead: every
// event a node schedules on the fabric is an out-link completion at
// least LinkFixed away; SwitchFixed, the per-hop cost, is the fabric
// LP's, by the mirror argument — intermediate hops stay fabric-local).
// On a standalone engine LPNode/LPFabric return the engine itself and
// nothing changes.
func NewFabric(eng *sim.Engine, cfg *topo.Config) *Fabric {
	desc := cfg.Fabric()
	f := &Fabric{
		Switches: make([]*Switch, desc.NumSwitches),
		Desc:     desc,
		Out:      make([]*Link, cfg.Nodes),
		In:       make([]*Link, cfg.Nodes),
	}
	for i := range f.Switches {
		f.Switches[i] = NewSwitch(eng.LPFabric(), cfg.Costs.SwitchFixed)
	}
	if cfg.Faults.Enabled {
		f.Faults = faults.New(&cfg.Faults, cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		f.Out[i] = NewLink(eng.LPNode(i), cfg.Costs.LinkFixed, cfg.Costs.LinkPerByte)
		f.In[i] = NewLink(eng.LPNode(i), cfg.Costs.LinkFixed, cfg.Costs.LinkPerByte)
	}
	return f
}

// Route returns the switch ids a src->dst packet traverses, in order.
func (f *Fabric) Route(src, dst int) []int16 { return f.Desc.Route(src, dst) }

// StageBusy returns the total switch busy time accumulated per fabric
// stage (index 0 = leaf/edge stage).
func (f *Fabric) StageBusy() []sim.Time {
	busy := make([]sim.Time, f.Desc.NumStages)
	for i, sw := range f.Switches {
		busy[f.Desc.SwitchStage[i]] += sw.res.BusyTime
	}
	return busy
}

// UncontendedNet returns the worst-case no-queueing network time for n
// bytes between any host pair: out-link + diameter switch hops +
// in-link. On the crossbar this is the exact (and only) route time.
func (f *Fabric) UncontendedNet(n int) sim.Time {
	return f.Out[0].ServiceTime(n) +
		sim.Time(f.Desc.MaxHops())*f.Switches[0].ServiceTime() +
		f.In[0].ServiceTime(n)
}

// UncontendedNetRoute returns the no-queueing network time for n bytes
// on the specific src->dst route.
func (f *Fabric) UncontendedNetRoute(src, dst, n int) sim.Time {
	return f.Out[src].ServiceTime(n) +
		sim.Time(len(f.Route(src, dst)))*f.Switches[0].ServiceTime() +
		f.In[dst].ServiceTime(n)
}
