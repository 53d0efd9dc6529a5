package genima_test

// Memory-footprint pins for per-peer state and pooled records. A node
// or NI holds state only for the peers it has contacted, so building a
// large cluster costs what its topology needs, not Nodes² tables;
// barrier records are owned by their senders rather than piling up at
// the master; and protocol records are pooled per logical process, so
// the one-way diff and page-fetch flows recycle instead of draining one
// node's free lists into another's.

import (
	"runtime"
	"testing"

	genima "genima"
	"genima/internal/app"
	"genima/internal/apps/barrierbench"
	"genima/internal/apps/svmkv"
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

// TestServeBytesPerRequestFlat runs svmkv at test scale for R and 4R
// requests and checks that the bytes allocated per extra request stay
// under a constant. Diff records flow from writers to homes and page
// copies from homes to faulters; with per-node pools each such record
// was allocated fresh at its producer (about 0.7–1.1 KB per request
// here), while one pool per logical process recycles them.
func TestServeBytesPerRequestFlat(t *testing.T) {
	const (
		requests = 1536
		limit    = 128 // bytes per extra request
	)
	for _, pt := range []struct {
		name   string
		proto  genima.Protocol
		faults genima.FaultPlan
	}{
		{"Base/clean", genima.Base, genima.FaultPlan{}},
		{"Base/faults", genima.Base, genima.FaultMix(0.01, 42)},
		{"GeNIMA/clean", genima.GeNIMA, genima.FaultPlan{}},
		{"GeNIMA/faults", genima.GeNIMA, genima.FaultMix(0.01, 42)},
	} {
		t.Run(pt.name, func(t *testing.T) {
			cfg := genima.DefaultConfig()
			cfg.Faults = pt.faults
			runBytes := func(r int) uint64 {
				p := svmkv.DefaultParams(false)
				p.Requests = r
				a := svmkv.New(p) // the request schedule is input, not run cost
				return allocBytes(func() {
					if _, _, err := genima.Run(cfg, pt.proto, a); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, long := runBytes(requests), runBytes(4*requests)
			per := (float64(long) - float64(short)) / float64(3*requests)
			t.Logf("%s: %.0f B per extra request (%d vs %d requests: %d / %d B)",
				pt.name, per, requests, 4*requests, short, long)
			if per > limit {
				t.Errorf("%s: %.0f B allocated per extra request, want <= %d",
					pt.name, per, limit)
			}
		})
	}
}
