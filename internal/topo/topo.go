// Package topo defines the simulated cluster configuration: node and
// processor counts and every cost constant of the execution model. The
// defaults are calibrated against the measured micro-numbers reported in
// §3.1 of the GeNIMA paper (ISCA 1999): 18 µs one-way latency for a
// one-word message, ~95 MB/s peak bandwidth, ~2 µs asynchronous send
// overhead, ~110 µs for a 4 KB remote-fetch page transfer vs ~200 µs for
// an interrupt-based fetch.
package topo

import (
	"fmt"

	"genima/internal/sim"
)

// Config describes a simulated cluster of SMP nodes.
type Config struct {
	// Nodes is the number of SMP nodes (the paper uses 4 and 8).
	Nodes int
	// ProcsPerNode is the number of compute processors per node (4 in
	// the paper: 4-way Pentium Pro SMPs).
	ProcsPerNode int
	// PageSize in bytes (4096 on the paper's platform).
	PageSize int
	// WordSize is the diff granularity in bytes (32-bit words).
	WordSize int
	// MaxPacket is the largest network packet (VMMC: 4 KB).
	MaxPacket int
	// PostQueueDepth bounds outstanding send requests in the NI post
	// queue; the host stalls when it is full (the Barnes-spatial direct
	// diff problem in §3.3 of the paper).
	PostQueueDepth int
	// SendPipelining divides the NI's per-packet send occupancy to model
	// improved pipelining in the NI outgoing path (1 = the paper's
	// Linux/VMMC prototype; higher values model the Windows NT port's
	// improved pipelining that recovered Barnes-spatial).
	SendPipelining int

	// IntraRunWorkers is the number of OS threads executing one
	// simulation in parallel (conservative PDES with one node-shard
	// logical process per worker, at most Nodes of them, plus one for
	// the fabric; lookahead derived from Costs.LinkFixed/SwitchFixed).
	// 0 or 1 selects the serial engine; any value produces a
	// byte-identical event trace. The cmd-line knob is -jrun.
	IntraRunWorkers int

	// Faults configures deterministic network fault injection plus the
	// NI-firmware reliable-delivery layer that masks it (sequence
	// numbers, checksums, retransmission, duplicate suppression,
	// cumulative acks). Zero value: perfect links, reliability layer
	// fully disabled with zero overhead.
	Faults FaultPlan

	// ScatterGather enables the NI scatter-gather extension the paper
	// discusses but deliberately leaves out (§3.3): with it, a direct
	// diff's runs travel as one gathered message that the destination
	// NI scatters into the home copy — far fewer messages, at the cost
	// of extra NI occupancy on both sides (NISGPerByte).
	ScatterGather bool
	// NIBroadcast enables NI-level broadcast (the paper's §5 future
	// work): a write notice is posted once and replicated to all
	// destinations by the fabric, instead of one host post per node.
	NIBroadcast bool

	// Topo selects the fabric topology (see fabric.go). The default,
	// TopoXbar, is the paper's single crossbar; clos2 and fattree are
	// multi-stage switched fabrics for 64-512 node runs.
	Topo TopoKind
	// SwitchRadix is the port count of each switch in a multi-stage
	// fabric (ignored for TopoXbar). Capacity: clos2 holds radix²/2
	// hosts, fattree radix³/4.
	SwitchRadix int

	// Collectives moves barrier reduction and write-notice broadcast
	// onto an NI-firmware k-ary tree: combine and fan-out steps execute
	// in NI memory with no host interrupts, layered under reliable
	// delivery. Only protocols with the deposit-write capability (DW
	// and up) use it; Base keeps its interrupt-driven path as the
	// contrast case. Default off — the fault-free xbar8 traces the
	// golden hashes pin are untouched.
	Collectives bool
	// CollectiveArity is the fan-out k of the collective tree (>= 2).
	CollectiveArity int

	Costs Costs
}

// LinkDir selects which direction(s) of a host's link pair a fault
// window applies to.
type LinkDir int

// Link directions for DownWindow.
const (
	// BothDirs downs the host's out- and in-link.
	BothDirs LinkDir = iota
	// OutOnly downs only the host-to-switch link.
	OutOnly
	// InOnly downs only the switch-to-host link.
	InOnly
)

// DownWindow is a timed link outage: every packet crossing the selected
// link(s) of the given host during [From, Until) is lost. The NI
// reliable-delivery layer recovers via retransmission once the window
// closes.
type DownWindow struct {
	Node        int
	Dir         LinkDir
	From, Until sim.Time
}

// FaultPlan configures deterministic, seed-driven fault injection at
// the fabric's link crossings. All randomness comes from per-link PRNG
// streams derived from Seed, so runs are replayable: the same Config
// (including Seed) produces a byte-identical event trace. Rates are
// per-packet probabilities per link crossing.
type FaultPlan struct {
	// Enabled turns on both fault injection and the NI reliable-delivery
	// layer. When false every other field is ignored and the packet
	// pipeline is byte-identical to the fault-free model.
	Enabled bool
	// Seed drives every per-link PRNG stream (no wall clock, no global
	// rand). Two runs with equal Config produce identical traces.
	Seed uint64
	// DropRate is the probability a packet is lost on a link crossing.
	DropRate float64
	// DupRate is the probability the switch-to-host link delivers a
	// packet twice.
	DupRate float64
	// DelayRate is the probability a packet is held after the
	// switch-to-host link for an extra uniform (0, DelayMax] delay,
	// reordering it behind later packets.
	DelayRate float64
	// DelayMax bounds the extra reorder delay.
	DelayMax sim.Time
	// CorruptRate is the probability a link crossing flips payload bits;
	// the receiver's firmware checksum catches it and the packet is
	// discarded (then retransmitted).
	CorruptRate float64
	// AckEvery is the cumulative-ack threshold: a receiver returns a
	// standalone ack after this many unacknowledged in-order deliveries
	// (0 = default 4). Acks piggyback on reverse traffic regardless.
	AckEvery int
	// Down lists timed link outages.
	Down []DownWindow
}

// FaultMix returns a ready-to-use fault plan dominated by drops at the
// given rate, with duplication, reordering, and corruption mixed in at
// proportional rates (the cmd-line `-faults` preset).
func FaultMix(rate float64, seed uint64) FaultPlan {
	return FaultPlan{
		Enabled:     true,
		Seed:        seed,
		DropRate:    rate,
		DupRate:     rate / 4,
		DelayRate:   rate / 2,
		DelayMax:    sim.Micro(100),
		CorruptRate: rate / 4,
	}
}

// Costs holds every virtual-time cost constant of the model.
type Costs struct {
	// --- Host processor ---

	// NsPerOp converts application "operations" into compute time
	// (≈ 200 MHz Pentium Pro with some superscalar overlap).
	NsPerOp float64
	// SMPBusPenalty is the per-extra-processor compute inflation factor
	// applied to memory-intensive applications, modeling SMP memory bus
	// contention (§3.4 "Memory bus contention": FFT and Ocean).
	SMPBusPenalty float64
	// LocalLock is the cost of an intra-node (hardware-coherent)
	// lock acquire or release.
	LocalLock sim.Time

	// --- Interrupt path (Base protocol asynchronous handling) ---

	// Interrupt is the cost from message delivery to the protocol
	// handler running (interrupt dispatch + scheduling).
	Interrupt sim.Time
	// SchedPerturb is compute time stolen from one of the node's
	// processors each time the protocol process is scheduled.
	SchedPerturb sim.Time
	// HandlerFixed is the fixed protocol-handler service cost per
	// request, on top of any data work.
	HandlerFixed sim.Time
	// HandlerPerByte is the handler's unpack/apply cost per byte
	// (diff application, message unpacking).
	HandlerPerByte float64

	// --- Communication layer (VMMC on Myrinet) ---

	// PostOverhead is the host cost to post an asynchronous send (~2 µs).
	PostOverhead sim.Time
	// PCIPerByte is host<->NI DMA time per byte (133 MB/s bus).
	PCIPerByte float64
	// PCIFixed is the per-packet DMA setup cost.
	PCIFixed sim.Time
	// NIPerPacket is the NI firmware occupancy per packet, each
	// direction (33 MHz LANai).
	NIPerPacket sim.Time
	// NIPerByte is additional NI occupancy per byte.
	NIPerByte float64
	// LinkPerByte is wire time per byte (160 MB/s links).
	LinkPerByte float64
	// LinkFixed is the per-packet link/switch propagation latency.
	LinkFixed sim.Time
	// SwitchFixed is the crossbar routing delay per packet.
	SwitchFixed sim.Time

	// --- NI firmware services (GeNIMA extensions) ---

	// NIFetchService is extra firmware time to service a remote fetch
	// (locate exported region, set up reply DMA).
	NIFetchService sim.Time
	// NISGPerByte is the additional NI occupancy per byte for
	// scatter-gather pack/unpack (the paper: "would require additional
	// processing in the NI ... and fast fine-grained access to local
	// memory from the NI"). Charged on both the send and receive side
	// when ScatterGather is enabled.
	NISGPerByte float64
	// NILockService is firmware time per lock operation.
	NILockService sim.Time
	// NIColCombine is fixed firmware time per collective combine or
	// fan-out step executed in NI memory (tree barriers/broadcasts).
	NIColCombine sim.Time
	// NIColPerByte is the firmware cost per byte of combining or
	// copying a collective payload in NI memory.
	NIColPerByte float64
	// FetchRetryBackoff is how long a requester waits before retrying a
	// remote fetch that returned a stale page version.
	FetchRetryBackoff sim.Time

	// --- NI reliable delivery (active only with Faults.Enabled) ---

	// NIRelFixed is per-packet firmware time for sequence/ack
	// bookkeeping, charged on both the send and receive side.
	NIRelFixed sim.Time
	// NICsumPerByte is the firmware checksum cost per payload byte,
	// charged on both sides (compute at the sender, verify at the
	// receiver).
	NICsumPerByte float64
	// RetxTimeout is the initial per-flow retransmission timeout; it
	// doubles on every consecutive timeout (exponential backoff).
	RetxTimeout sim.Time
	// RetxTimeoutMax is retained for configuration compatibility but
	// no longer caps the backoff: the NI's retransmission timeout
	// backs off without limit until ack progress resets it, because
	// any static cap below the queueing round trip of a congested
	// fabric turns the timer into a congestion-collapse engine (see
	// the internal/nic/reliable.go package comment).
	RetxTimeoutMax sim.Time
	// AckDelay is the receiver's delayed cumulative-ack timer: an ack is
	// pushed this long after an in-order delivery if no reverse traffic
	// carried it first.
	AckDelay sim.Time

	// --- Operating system ---

	// MprotectBase is the cost of one mprotect call (first page).
	MprotectBase sim.Time
	// MprotectPerPage is the marginal cost per additional contiguous
	// page folded into a coalesced call.
	MprotectPerPage sim.Time

	// --- Memory/protocol work ---

	// TwinCopyPerByte is the cost per byte of creating a twin.
	TwinCopyPerByte float64
	// DiffPerByte is the cost per byte of comparing a page with its twin.
	DiffPerByte float64
}

// Default returns the paper-calibrated configuration: 4 nodes × 4-way
// SMPs on a Myrinet-like fabric.
func Default() Config {
	return Config{
		Nodes:          4,
		ProcsPerNode:   4,
		PageSize:       4096,
		WordSize:       4,
		MaxPacket:      4096,
		PostQueueDepth: 64,
		SendPipelining: 1,
		// Multi-stage fabrics default to 8-port switches (the paper's
		// Myrinet crossbar radix); -topo picks the shape.
		SwitchRadix:     8,
		CollectiveArity: 4,
		Costs:           DefaultCosts(),
	}
}

// DefaultCosts returns cost constants calibrated to §3.1 of the paper.
//
// Derived figures with these constants:
//
//	1-word message one-way:  post 2 + dma 2.6 + ni 4 + link 1.5 + switch 0.5
//	                         + ni 4 + dma 2.6 ≈ 17.2 µs   (paper: ~18 µs)
//	4 KB page transfer:      + 4096·(2/133e6 + 1/160e6 + 1/33e6·0.0) s
//	remote fetch page total: ≈ 112 µs                      (paper: ~110 µs)
//	base page fetch total:   ≈ 200 µs (17 µs request + 80 µs interrupt
//	                         + 6 µs handler + ~100 µs reply)
func DefaultCosts() Costs {
	return Costs{
		// A 200 MHz Pentium Pro retires well under one application
		// "operation" (flop + addressing + load/store) per cycle on
		// these codes; 30 ns/op reproduces plausible uniprocessor
		// runtimes for the scaled problem sizes.
		NsPerOp:       30,
		SMPBusPenalty: 0.05,
		LocalLock:     sim.Micro(0.8),

		Interrupt:      sim.Micro(80),
		SchedPerturb:   sim.Micro(15),
		HandlerFixed:   sim.Micro(6),
		HandlerPerByte: 4, // ns per byte ≈ 250 MB/s unpack

		PostOverhead: sim.Micro(2),
		// The PCI bus runs at 133 MB/s, but VMMC pipelines host<->NI DMA
		// with link injection within a packet; modeling stages strictly
		// in series, we use the effective overlapped rate (2x) so that
		// end-to-end page latency matches the paper (~100 µs one-way).
		PCIPerByte:  1e3 / 266e6 * 1e6, // ns per byte, pipelined-effective
		PCIFixed:    sim.Micro(2.6),
		NIPerPacket: sim.Micro(4),
		NIPerByte:   0,
		LinkPerByte: 1e3 / 160e6 * 1e6, // ns per byte at 160 MB/s
		LinkFixed:   sim.Micro(1.5),
		SwitchFixed: sim.Micro(0.5),

		NIFetchService: sim.Micro(5),
		// Reliability layer: the LANai computes a checksum with hardware
		// assist (~0.5 ns/byte) plus fixed seq/ack bookkeeping; the RTO
		// starts above a loaded 4 KB round trip, adapts to measured
		// round trips, and backs off without a behavioral cap.
		NIRelFixed:     sim.Micro(0.5),
		NICsumPerByte:  0.5,
		RetxTimeout:    sim.Micro(400),
		RetxTimeoutMax: sim.Micro(6400),
		AckDelay:       sim.Micro(30),
		// The 33 MHz LANai touches local memory slowly: ~30 ns/byte of
		// gather/scatter work.
		NISGPerByte:       30,
		NILockService:     sim.Micro(4),
		FetchRetryBackoff: sim.Micro(25),
		// Collective tree steps: the LANai merges or copies a vector in
		// NI memory — fixed dispatch plus the same ~slow local-memory
		// touch rate the SG path pays per byte.
		NIColCombine: sim.Micro(1),
		NIColPerByte: 4,

		MprotectBase:    sim.Micro(12),
		MprotectPerPage: sim.Micro(1.5),

		TwinCopyPerByte: 2.5, // ns per byte ≈ 400 MB/s copy
		DiffPerByte:     4,   // ns per byte ≈ 250 MB/s compare
	}
}

// NumProcs returns the total processor count.
func (c *Config) NumProcs() int { return c.Nodes * c.ProcsPerNode }

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return errf("Nodes = %d, need >= 1", c.Nodes)
	case c.ProcsPerNode < 1:
		return errf("ProcsPerNode = %d, need >= 1", c.ProcsPerNode)
	case c.PageSize < c.WordSize || c.PageSize%c.WordSize != 0:
		return errf("PageSize %d not a multiple of WordSize %d", c.PageSize, c.WordSize)
	case c.PageSize&(c.PageSize-1) != 0:
		// Accessors address pages by shift and mask.
		return errf("PageSize %d not a power of two", c.PageSize)
	case c.MaxPacket < c.WordSize:
		return errf("MaxPacket = %d too small", c.MaxPacket)
	case c.PostQueueDepth < 1:
		return errf("PostQueueDepth = %d, need >= 1", c.PostQueueDepth)
	case c.SendPipelining < 1:
		return errf("SendPipelining = %d, need >= 1", c.SendPipelining)
	case c.IntraRunWorkers < 0:
		return errf("IntraRunWorkers = %d, need >= 0", c.IntraRunWorkers)
	case c.IntraRunWorkers > 1 && (c.Costs.LinkFixed <= 0 || c.Costs.SwitchFixed <= 0):
		// Conservative parallel execution derives its lookahead from the
		// fixed link and switch latencies; zero lookahead cannot make
		// progress.
		return errf("IntraRunWorkers = %d needs Costs.LinkFixed > 0 and Costs.SwitchFixed > 0 (lookahead)", c.IntraRunWorkers)
	}
	if err := c.validateFabric(); err != nil {
		return err
	}
	return c.Faults.validate(c.Nodes)
}

func (c *Config) validateFabric() error {
	switch c.Topo {
	case TopoXbar:
		// The idealized crossbar scales to any port count.
	case TopoClos2, TopoFatTree:
		switch {
		case c.SwitchRadix < 4 || c.SwitchRadix%2 != 0:
			// Both shapes split ports evenly between the host/down side
			// and the up side.
			return errf("Topo %v needs an even SwitchRadix >= 4, got %d", c.Topo, c.SwitchRadix)
		case c.Nodes > FabricCapacity(c.Topo, c.SwitchRadix):
			return errf("Topo %v radix %d holds at most %d nodes, got Nodes = %d",
				c.Topo, c.SwitchRadix, FabricCapacity(c.Topo, c.SwitchRadix), c.Nodes)
		}
	default:
		return errf("Topo = %d invalid", int(c.Topo))
	}
	if c.Collectives {
		switch {
		case c.CollectiveArity < 2:
			return errf("Collectives needs CollectiveArity >= 2, got %d", c.CollectiveArity)
		case 8*c.Nodes > c.MaxPacket:
			// The barrier reduction carries one full version vector
			// (8 bytes per node) in a single packet at every tree hop.
			return errf("Collectives needs the version vector (8*Nodes = %d bytes) to fit MaxPacket = %d",
				8*c.Nodes, c.MaxPacket)
		}
	}
	return nil
}

// Lookaheads returns the conservative-PDES lookahead pair for
// sim.NewCluster: every event a node LP schedules on the fabric LP is
// an out-link completion at least LinkFixed away; every event the
// fabric LP schedules on a node LP is that route's final switch-hop
// completion, at least SwitchFixed away. SwitchFixed is the minimum
// per-hop cost on any multi-stage route — intermediate hops only ever
// push the final crossing further out, so the bound holds for every
// topology.
func (c *Config) Lookaheads() (node, fabric sim.Time) {
	return c.Costs.LinkFixed, c.Costs.SwitchFixed
}

func (fp *FaultPlan) validate(nodes int) error {
	if !fp.Enabled {
		return nil
	}
	rates := map[string]float64{
		"DropRate": fp.DropRate, "DupRate": fp.DupRate,
		"DelayRate": fp.DelayRate, "CorruptRate": fp.CorruptRate,
	}
	for _, name := range []string{"DropRate", "DupRate", "DelayRate", "CorruptRate"} {
		// A rate of 1.0 would make reliable delivery (and hence the
		// simulation) livelock, so the bound is exclusive.
		if r := rates[name]; r < 0 || r >= 1 {
			return errf("Faults.%s = %g, need [0, 1)", name, r)
		}
	}
	if fp.DelayRate > 0 && fp.DelayMax <= 0 {
		return errf("Faults.DelayRate = %g with DelayMax = %d, need DelayMax > 0", fp.DelayRate, fp.DelayMax)
	}
	if fp.AckEvery < 0 {
		return errf("Faults.AckEvery = %d, need >= 0", fp.AckEvery)
	}
	for i, w := range fp.Down {
		if w.Node < 0 || w.Node >= nodes {
			return errf("Faults.Down[%d].Node = %d, need [0, %d)", i, w.Node, nodes)
		}
		if w.Until <= w.From {
			return errf("Faults.Down[%d]: Until %d <= From %d", i, w.Until, w.From)
		}
		if w.Dir < BothDirs || w.Dir > InOnly {
			return errf("Faults.Down[%d].Dir = %d invalid", i, w.Dir)
		}
	}
	return nil
}

type configError string

func (e configError) Error() string { return "topo: " + string(e) }

func errf(format string, args ...any) error {
	return configError(fmt.Sprintf(format, args...))
}
