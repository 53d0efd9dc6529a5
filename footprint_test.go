package genima_test

// Memory-footprint pins for per-peer state. A node or NI holds state
// only for the peers it has contacted, so building a large cluster
// costs what its topology needs, not Nodes² tables, and barrier records
// are owned by their senders rather than piling up at the master.

import (
	"runtime"
	"testing"

	genima "genima"
	"genima/internal/app"
	"genima/internal/apps/barrierbench"
	"genima/internal/core"
	"genima/internal/sim"
)

// build512Config is the fabric workload's largest cluster: 512 nodes on
// a radix-16 fat tree with NI collective trees and 1% mixed faults.
func build512Config() genima.Config {
	cfg := genima.DefaultConfig()
	cfg.Nodes = 512
	cfg.ProcsPerNode = 1
	cfg.Topo = genima.TopoFatTree
	cfg.SwitchRadix = 16
	cfg.Collectives = true
	cfg.Faults = genima.FaultMix(0.01, 1)
	return cfg
}

// build constructs one ready-to-run GeNIMA system for cfg: workspace,
// protocol nodes, NIs, fabric, and per-page tables.
func build(cfg *genima.Config, a genima.App) *core.System {
	ws := app.NewWorkspace(cfg)
	a.Setup(ws)
	sys := core.New(sim.NewEngine(), cfg, core.GeNIMA, ws.Space)
	sys.Start()
	return sys
}

// allocBytes returns the bytes allocated on the heap while fn runs.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBuildFootprint512 pins the bytes allocated to build the 512-node
// fabric cluster. Dense per-peer tables (a reliable flow and a notice
// counter per peer at every node, per-epoch barrier vectors everywhere)
// cost about 114 MB here; lazy per-peer state stays well under the
// bound.
func TestBuildFootprint512(t *testing.T) {
	const limit = 48 << 20
	cfg := build512Config()
	a := barrierbench.New(16)
	var sys *core.System
	got := allocBytes(func() { sys = build(&cfg, a) })
	if len(sys.Nodes) != cfg.Nodes {
		t.Fatalf("built %d nodes, want %d", len(sys.Nodes), cfg.Nodes)
	}
	t.Logf("512-node build allocated %.1f MB", float64(got)/(1<<20))
	if got > limit {
		t.Errorf("512-node build allocated %.1f MB, want <= %d MB", float64(got)/(1<<20), limit>>20)
	}
}

// TestBarrierBytesPerBarrierFlat runs barrierbench at 64 nodes for R
// and 4R rounds and checks that the bytes allocated per extra barrier
// stay under a constant: barrier records are reused by epoch parity, so
// a longer run allocates no per-barrier N-word vectors (which would
// cost 8·Nodes² bytes per barrier for DW flags alone).
func TestBarrierBytesPerBarrierFlat(t *testing.T) {
	const (
		nodes  = 64
		rounds = 8
		limit  = 2048 // bytes per extra barrier
	)
	for _, pt := range []struct {
		name        string
		proto       genima.Protocol
		collectives bool
	}{
		{"Base", genima.Base, false},
		{"DW", genima.DW, false},
		{"GeNIMA-tree", genima.GeNIMA, true},
	} {
		t.Run(pt.name, func(t *testing.T) {
			cfg := genima.DefaultConfig()
			cfg.Nodes = nodes
			cfg.ProcsPerNode = 1
			cfg.Topo = genima.TopoFatTree
			cfg.SwitchRadix = 16
			cfg.Collectives = pt.collectives
			runBytes := func(r int) uint64 {
				return allocBytes(func() {
					if _, _, err := genima.Run(cfg, pt.proto, barrierbench.New(r)); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, long := runBytes(rounds), runBytes(4*rounds)
			extra := 2 * 3 * rounds // two barriers per round
			per := (float64(long) - float64(short)) / float64(extra)
			t.Logf("%s: %.0f B per extra barrier (%d vs %d rounds: %d / %d B)",
				pt.name, per, rounds, 4*rounds, short, long)
			if per > limit {
				t.Errorf("%s: %.0f B allocated per extra barrier at %d nodes, want <= %d",
					pt.name, per, nodes, limit)
			}
		})
	}
}
