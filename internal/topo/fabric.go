package topo

// Multi-stage fabric descriptions. The paper's testbed is a single
// 8-way Myrinet crossbar; scaling the ladder past 32 processors needs
// switched fabrics. Two classic shapes are supported beside the
// crossbar, both built from switches of one parameterized radix:
//
//   - clos2: a 2-level Myrinet-style Clos. Each leaf switch dedicates
//     half its ports to hosts and half to uplinks; radix/2 spine
//     switches connect every leaf to every spine. Capacity is
//     radix²/2 hosts; routes are 1 hop (same leaf) or 3 hops
//     (leaf-spine-leaf).
//   - fattree: a 3-level k-ary fat tree (k = radix). Pods of k/2 edge
//     and k/2 aggregation switches, (k/2)² core switches, k/2 hosts
//     per edge switch. Capacity is k³/4 hosts; routes are 1, 3, or 5
//     hops.
//
// Routing is deterministic shortest-path, applied by rule on every
// packet: the spine (clos2) and the aggregation/core pair (fattree) are
// selected by arithmetic on the destination id, so every (src, dst)
// pair uses one fixed route in every run — the determinism the
// byte-identical-trace guarantee rests on. Each hop charges the per-hop
// Costs.SwitchFixed on that switch's own FIFO resource, which is what
// gives per-stage busy accounting.

import "fmt"

// TopoKind selects the fabric topology.
type TopoKind int

// Fabric topologies.
const (
	// TopoXbar is the paper's single crossbar switch (the default).
	TopoXbar TopoKind = iota
	// TopoClos2 is the 2-level leaf/spine Clos.
	TopoClos2
	// TopoFatTree is the 3-level k-ary fat tree.
	TopoFatTree
)

var topoNames = [...]string{"xbar8", "clos2", "fattree"}

// String names the topology (the -topo flag vocabulary).
func (t TopoKind) String() string {
	if t < 0 || int(t) >= len(topoNames) {
		return fmt.Sprintf("TopoKind(%d)", int(t))
	}
	return topoNames[t]
}

// ParseTopo parses a -topo flag value.
func ParseTopo(s string) (TopoKind, error) {
	switch s {
	case "xbar", "xbar8":
		return TopoXbar, nil
	case "clos2":
		return TopoClos2, nil
	case "fattree":
		return TopoFatTree, nil
	}
	return 0, errf("unknown topology %q (have xbar8, clos2, fattree)", s)
}

// MaxRoute is the longest route in switch hops (a fat tree's
// edge-aggregation-core-aggregation-edge path).
const MaxRoute = 5

// FabricDesc is a fabric's switch inventory and routing rule. Build it
// once per Config via Config.Fabric.
//
// Switch ids run stage by stage: leaf/edge switches first, then the
// aggregation switches (fattree, grouped by pod), then spine/core.
type FabricDesc struct {
	Kind TopoKind
	// NumSwitches is the total switch count across all stages.
	NumSwitches int
	// NumStages is the number of switch stages (1, 2, or 3).
	NumStages int
	// SwitchStage maps a switch id to its stage (0 = leaf/edge).
	SwitchStage []int8

	// hosts is the host count per leaf/edge switch: radix/2, which is
	// also the clos2 spine count and the fat tree's pod width, or Nodes
	// on the crossbar. leaves and aggs count the leaf/edge and
	// aggregation switches.
	hosts, leaves, aggs int
}

// Route writes the switch ids a packet from src to dst traverses into
// r, in order, and returns the hop count. A clos2 cross-leaf route
// takes spine dst%(radix/2); a fat-tree cross-edge route takes
// aggregation a = dst%p in its pod (p = radix/2), and a cross-pod route
// the core dst/h%p of core group a, so the up- and down-path
// aggregations match.
func (d *FabricDesc) Route(src, dst int, r *[MaxRoute]int16) int {
	ls, lt := d.FirstSwitch(src), d.FirstSwitch(dst)
	r[0] = ls
	if ls == lt {
		return 1
	}
	p := d.hosts
	if d.Kind == TopoClos2 {
		r[1], r[2] = int16(d.leaves+dst%p), lt
		return 3
	}
	a := dst % p
	podS, podT := int(ls)/p, int(lt)/p
	r[1] = int16(d.leaves + podS*p + a)
	if podS == podT {
		r[2] = lt
		return 3
	}
	r[2] = int16(d.leaves + d.aggs + a*p + dst/p%p)
	r[3], r[4] = int16(d.leaves+podT*p+a), lt
	return 5
}

// MaxHops returns the fabric diameter in switch hops.
func (d *FabricDesc) MaxHops() int { return 2*d.NumStages - 1 }

// FirstSwitch returns the leaf/edge switch a packet from src enters
// first (the fan-out point for NI broadcasts).
func (d *FabricDesc) FirstSwitch(src int) int16 { return int16(src / d.hosts) }

// Fabric builds the configured topology's switch inventory and routing
// rule. The Config must have passed Validate.
func (c *Config) Fabric() *FabricDesc {
	d := &FabricDesc{Kind: c.Topo, hosts: c.SwitchRadix / 2}
	var perStage []int
	switch c.Topo {
	case TopoClos2:
		d.leaves = (c.Nodes + d.hosts - 1) / d.hosts
		perStage = []int{d.leaves, d.hosts}
	case TopoFatTree:
		p := d.hosts
		d.leaves = (c.Nodes + d.hosts - 1) / d.hosts
		d.aggs = (d.leaves + p - 1) / p * p
		perStage = []int{d.leaves, d.aggs, p * p}
	default:
		d.Kind, d.hosts, d.leaves = TopoXbar, c.Nodes, 1
		perStage = []int{1}
	}
	for st, n := range perStage {
		for range n {
			d.SwitchStage = append(d.SwitchStage, int8(st))
		}
	}
	d.NumSwitches, d.NumStages = len(d.SwitchStage), len(perStage)
	return d
}

// FabricCapacity returns the maximum host count the topology supports
// at the given radix (0 = unlimited, for the idealized crossbar).
func FabricCapacity(kind TopoKind, radix int) int {
	switch kind {
	case TopoClos2:
		return radix * radix / 2
	case TopoFatTree:
		return radix * radix * radix / 4
	}
	return 0
}
