// Package genima is a reproduction of "Using Network Interface Support
// to Avoid Asynchronous Protocol Processing in Shared Virtual Memory
// Systems" (Bilas, Liao, Singh; ISCA 1999) as a deterministic
// discrete-event simulation: a cluster of SMP nodes on a Myrinet-like
// fabric running home-based lazy release consistency, with the paper's
// NI mechanisms — remote deposit, remote fetch, and NI locks — layered
// on cumulatively, plus a hardware-DSM (Origin 2000-like) yardstick.
//
// The package is the public face of the library: pick a cluster
// configuration and a protocol, run one of the ten SPLASH-2-style
// applications (or your own app.App), and read back speedups,
// execution-time breakdowns, protocol accounting, and the NI firmware
// monitor's contention ratios.
//
// Each simulation is deterministic and single-threaded, but a suite of
// simulations is embarrassingly parallel: RunSuite fans its independent
// (app × protocol) runs across OS threads (SuiteOptions.Workers,
// default GOMAXPROCS) with byte-identical results for any worker count.
//
//	cfg := genima.DefaultConfig()
//	res, _, err := genima.Run(cfg, genima.GeNIMA, fft.New(14))
package genima

import (
	"genima/internal/app"
	"genima/internal/core"
	"genima/internal/nic"
	"genima/internal/stats"
	"genima/internal/topo"
)

// Protocol selects an SVM protocol configuration (the paper's ladder).
type Protocol = core.Kind

// The protocol rungs, cumulative left to right.
const (
	// Base is HLRC-SMP with interrupt-driven asynchronous handling.
	Base = core.Base
	// DW adds remote deposit for protocol data (eager write notices).
	DW = core.DW
	// DWRF adds NI remote fetch for pages and timestamps.
	DWRF = core.DWRF
	// DWRFDD adds direct diffs deposited into home copies.
	DWRFDD = core.DWRFDD
	// GeNIMA adds NI locks: no interrupts or polling remain.
	GeNIMA = core.GeNIMA
)

// Protocols lists all rungs in evaluation order.
func Protocols() []Protocol { return core.Kinds() }

// Config describes the simulated cluster; see topo.Config for every
// cost constant.
type Config = topo.Config

// DefaultConfig returns the paper-calibrated 4-node, 4-way-SMP cluster.
func DefaultConfig() Config { return topo.Default() }

// Topology selects the network fabric (Config.Topo): the idealized
// 8-way crossbar the paper measured, or a multi-stage switched fabric
// for the 64–512-node scaling studies.
type Topology = topo.TopoKind

// The fabric kinds.
const (
	// TopoXbar is the single-crossbar Myrinet switch (default).
	TopoXbar = topo.TopoXbar
	// TopoClos2 is a two-level leaf/spine Clos built from
	// SwitchRadix-port switches (up to radix²/2 hosts).
	TopoClos2 = topo.TopoClos2
	// TopoFatTree is a three-level fat-tree (up to radix³/4 hosts).
	TopoFatTree = topo.TopoFatTree
)

// ParseTopo maps a -topo flag value ("xbar8", "clos2", "fattree") to a
// Topology.
func ParseTopo(s string) (Topology, error) { return topo.ParseTopo(s) }

// FabricCapacity returns the maximum host count of a fabric kind at a
// given switch radix (0 means unlimited: the idealized crossbar).
func FabricCapacity(k Topology, radix int) int { return topo.FabricCapacity(k, radix) }

// FaultPlan configures deterministic link-fault injection; set it as
// Config.Faults (see internal/topo and internal/faults).
type FaultPlan = topo.FaultPlan

// FaultReport aggregates a run's fault-injection and NI reliable-
// delivery counters (Result.Faults).
type FaultReport = stats.FaultReport

// DownWindow takes one host's link(s) down for a virtual-time window
// (FaultPlan.Down).
type DownWindow = topo.DownWindow

// Link directions for DownWindow.
const (
	BothDirs = topo.BothDirs
	OutOnly  = topo.OutOnly
	InOnly   = topo.InOnly
)

// FaultMix builds a paper-style mixed fault plan around a drop rate:
// dups at rate/4, reorder delays at rate/2 (up to 100 µs), corruption
// at rate/4, all drawn deterministically from seed.
func FaultMix(rate float64, seed uint64) FaultPlan { return topo.FaultMix(rate, seed) }

// App is a workload; the ten paper applications live in
// internal/apps/..., and external code can implement its own.
type App = app.App

// Result is one run's outcome (speedups, breakdowns, accounting).
type Result = app.Result

// Workspace holds the shared address space after a run.
type Workspace = app.Workspace

// Run executes a workload under an SVM protocol.
func Run(cfg Config, p Protocol, a App) (*Result, *Workspace, error) {
	return app.RunSVM(cfg, p, a)
}

// TraceEvent is one delivered network packet (see RunTraced).
type TraceEvent = nic.TraceEvent

// RunTraced is Run with a packet tracer: fn receives every delivered
// packet from the NI firmware monitor, in delivery order. A nil fn
// runs untraced.
func RunTraced(cfg Config, p Protocol, a App, fn func(TraceEvent)) (*Result, *Workspace, error) {
	return app.RunSVMTraced(cfg, p, a, fn)
}

// Boundary is a consistent cut of a running simulation, handed to
// CheckpointOptions.OnBoundary.
type Boundary = app.Boundary

// RunHardware executes a workload on the hardware-DSM model.
func RunHardware(cfg Config, a App) (*Result, *Workspace, error) {
	return app.RunHW(cfg, a)
}

// RunSequential executes a workload on one zero-overhead processor:
// the reference output and the uniprocessor time for speedups.
func RunSequential(cfg Config, a App) (*Result, *Workspace, error) {
	return app.RunSeq(cfg, a)
}

// Speedup is seq.Elapsed / par.Elapsed.
func Speedup(seq, par *Result) float64 { return app.Speedup(seq, par) }

// Validate compares a parallel run's shared-memory output against the
// sequential reference (exact bytes, or the app's tolerance rule).
func Validate(a App, par, seq *Workspace) error { return app.Validate(a, par, seq) }
