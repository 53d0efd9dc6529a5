package nic

import (
	"genima/internal/faults"
	"genima/internal/sim"
	"genima/internal/topo"
)

// Fabric models a Myrinet-like system-area network: full-duplex
// point-to-point links connecting each host's NI to a crossbar switch
// or a multi-stage fabric of switches. Every link and switch is a plain
// FIFO sim.Resource, so per source-destination pair delivery order is
// preserved — the only ordering guarantee VMMC (and the GeNIMA
// protocols) require. A link charges LinkFixed plus LinkPerByte per
// byte (linkService); a switch charges SwitchFixed per packet per hop.
// The paper's testbed is a single 8-way switch; its arbitration is one
// FIFO resource, which slightly pessimizes concurrent disjoint routes
// but preserves ordering. The transit pipeline (transit.go) reserves
// the links and switches; nothing else walks a packet across them.
type Fabric struct {
	// Switches holds every switch of the fabric, indexed by the ids
	// Desc's routes use; on the crossbar, Switches[0] is the only one.
	// All of them live on the fabric LP.
	Switches []*sim.Resource
	Out      []*sim.Resource // host -> first switch
	In       []*sim.Resource // last switch -> host
	// Desc is the topology: switch inventory + routing rule.
	Desc *topo.FabricDesc

	// Faults is the compiled fault plan, nil when fault injection is
	// disabled (the common case; nil keeps the fault-free path free of
	// any per-packet overhead). The NI pipeline consults it at the two
	// link-crossing boundaries.
	Faults *faults.Plan

	costs *topo.Costs
}

// newFabric builds the fabric for cfg.Nodes hosts. Resources are placed
// on their owning logical process — every switch on the fabric LP, node
// i's links on node i's LP (LinkFixed is the node LPs' lookahead: every
// event a node schedules on the fabric is an out-link completion at
// least LinkFixed away; SwitchFixed, the per-hop cost, is the fabric
// LP's, by the mirror argument — intermediate hops stay fabric-local).
// On a standalone engine LPNode/LPFabric return the engine itself and
// nothing changes.
func newFabric(eng *sim.Engine, cfg *topo.Config) *Fabric {
	desc := cfg.Fabric()
	f := &Fabric{
		Switches: make([]*sim.Resource, desc.NumSwitches),
		Out:      make([]*sim.Resource, cfg.Nodes),
		In:       make([]*sim.Resource, cfg.Nodes),
		Desc:     desc,
		costs:    &cfg.Costs,
	}
	for i := range f.Switches {
		f.Switches[i] = sim.NewResource(eng.LPFabric())
	}
	if cfg.Faults.Enabled {
		f.Faults = faults.New(&cfg.Faults, cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		f.Out[i] = sim.NewResource(eng.LPNode(i))
		f.In[i] = sim.NewResource(eng.LPNode(i))
	}
	return f
}

// StageBusy returns the total switch busy time accumulated per fabric
// stage (index 0 = leaf/edge stage).
func (f *Fabric) StageBusy() []sim.Time {
	busy := make([]sim.Time, f.Desc.NumStages)
	for i, sw := range f.Switches {
		busy[f.Desc.SwitchStage[i]] += sw.BusyTime
	}
	return busy
}

// UncontendedNet returns the worst-case no-queueing network time for n
// bytes between any host pair: out-link + diameter switch hops +
// in-link. On the crossbar this is the exact (and only) route time.
func (f *Fabric) UncontendedNet(n int) sim.Time {
	return 2*f.linkService(n) + sim.Time(f.Desc.MaxHops())*f.costs.SwitchFixed
}

// UncontendedNetRoute returns the no-queueing network time for n bytes
// on the specific src->dst route.
func (f *Fabric) UncontendedNetRoute(src, dst, n int) sim.Time {
	var r [topo.MaxRoute]int16
	hops := f.Desc.Route(src, dst, &r)
	return 2*f.linkService(n) + sim.Time(hops)*f.costs.SwitchFixed
}
