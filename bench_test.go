package genima_test

// The benchmark harness: one testing.B per table and figure of the
// paper's evaluation (regenerating its rows at test-scale problem
// sizes; use cmd/genima-bench for the full bench-scale output), plus
// ablation benchmarks for the design choices called out in DESIGN.md.
//
//	go test -bench=. -benchmem

import (
	"math"
	"testing"

	genima "genima"
	"genima/internal/apps"
	"genima/internal/apps/barnes"
	"genima/internal/apps/barrierbench"
	"genima/internal/apps/ocean"
	"genima/internal/apps/waterns"
	"genima/internal/sim"
)

func runSuite(b *testing.B, hardware bool, kinds []genima.Protocol) *genima.SuiteResults {
	b.Helper()
	cfg := genima.DefaultConfig()
	s, err := genima.RunSuite(cfg, genima.SuiteOptions{
		Scale:     genima.TestScale,
		Protocols: kinds,
		Hardware:  hardware,
		// Workers defaults to GOMAXPROCS: table/figure benchmarks use
		// the parallel runner, like cmd/genima-bench.
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchSuiteWorkers times one full TestScale ladder (all protocols +
// hardware) at a fixed worker count; the Serial/Parallel pair is the
// wall-clock evidence for the parallel runner.
func benchSuiteWorkers(b *testing.B, workers int) {
	cfg := genima.DefaultConfig()
	for i := 0; i < b.N; i++ {
		s, err := genima.RunSuite(cfg, genima.SuiteOptions{
			Scale:    genima.TestScale,
			Hardware: true,
			Workers:  workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		var events uint64
		for _, rs := range s.SVM {
			for _, r := range rs {
				events += r.Events
			}
		}
		b.ReportMetric(float64(events), "sim-events")
	}
}

// BenchmarkSuiteSerial is the legacy one-run-at-a-time baseline.
func BenchmarkSuiteSerial(b *testing.B) { benchSuiteWorkers(b, 1) }

// BenchmarkSuiteParallel fans the same runs across GOMAXPROCS workers.
func BenchmarkSuiteParallel(b *testing.B) { benchSuiteWorkers(b, 0) }

func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// BenchmarkFigure1 regenerates Figure 1: Origin 2000 vs Base SVM.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, true, []genima.Protocol{genima.Base})
		f := s.Figure1()
		b.ReportMetric(geoMean(f.Origin), "speedup-origin")
		b.ReportMetric(geoMean(f.Base), "speedup-base")
	}
}

// BenchmarkFigure2 regenerates Figure 2: the protocol ladder.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, false, nil)
		f := s.Figure2()
		b.ReportMetric(geoMean(f.ByProtocol[genima.Base]), "speedup-base")
		b.ReportMetric(geoMean(f.ByProtocol[genima.GeNIMA]), "speedup-genima")
	}
}

// BenchmarkFigure3 regenerates Figure 3: normalized breakdowns.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, false, nil)
		f := s.Figure3()
		// Report GeNIMA's average normalized total (Base = 1.0).
		sum := 0.0
		for app := range f.Apps {
			for _, v := range f.Normalized[app][len(f.Protocols)-1] {
				sum += v
			}
		}
		b.ReportMetric(sum/float64(len(f.Apps)), "genima-normtime")
	}
}

// BenchmarkFigure4 regenerates Figure 4: Origin vs Base vs GeNIMA.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, true, []genima.Protocol{genima.Base, genima.GeNIMA})
		f := s.Figure4()
		b.ReportMetric(geoMean(f.GeNIMA), "speedup-genima")
	}
}

// BenchmarkTable1 regenerates Table 1: per-mechanism improvements.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, false, nil)
		t := s.Table1()
		var overall float64
		for _, r := range t.Rows {
			overall += r.OverallPct
		}
		b.ReportMetric(overall/float64(len(t.Rows)), "avg-overall-pct")
	}
}

// BenchmarkTable2 regenerates Table 2: barrier decomposition.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, false, []genima.Protocol{genima.Base, genima.DW, genima.DWRF, genima.DWRFDD, genima.GeNIMA})
		t := s.Table2()
		var bt float64
		for _, r := range t.Rows {
			bt += r.BTPct
		}
		b.ReportMetric(bt/float64(len(t.Rows)), "avg-barrier-pct")
	}
}

// BenchmarkTable3 regenerates Table 3: small-message contention.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, false, []genima.Protocol{genima.Base, genima.DW, genima.DWRF, genima.DWRFDD, genima.GeNIMA})
		t := s.Table3()
		var base, gen float64
		for _, r := range t.Rows {
			base += r.Base[2] // NetLat
			gen += r.GeNIMA[2]
		}
		b.ReportMetric(base/float64(len(t.Rows)), "netlat-base")
		b.ReportMetric(gen/float64(len(t.Rows)), "netlat-genima")
	}
}

// BenchmarkTable4 regenerates Table 4: large-message contention.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runSuite(b, false, []genima.Protocol{genima.Base, genima.DW, genima.DWRF, genima.DWRFDD, genima.GeNIMA})
		t := s.Table4()
		var gen float64
		for _, r := range t.Rows {
			gen += r.GeNIMA[2]
		}
		b.ReportMetric(gen/float64(len(t.Rows)), "netlat-genima")
	}
}

// BenchmarkTable5 regenerates Table 5: 32-processor speedups.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := genima.Table5(genima.SuiteOptions{Scale: genima.TestScale})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(geoMean(d.SVM), "speedup-svm32")
		b.ReportMetric(geoMean(d.Origin), "speedup-origin32")
	}
}

// --- Ablations (DESIGN.md §5) ---

func speedupOf(b *testing.B, cfg genima.Config, k genima.Protocol, a genima.App) float64 {
	b.Helper()
	seq, _, err := genima.RunSequential(cfg, a)
	if err != nil {
		b.Fatal(err)
	}
	res, _, err := genima.Run(cfg, k, a)
	if err != nil {
		b.Fatal(err)
	}
	return genima.Speedup(seq, res)
}

// BenchmarkAblationDirectDiff contrasts packed diffs (DW+RF) against
// direct diffs (DW+RF+DD) on Barnes-spatial, the paper's §3.3 message
// explosion case.
func BenchmarkAblationDirectDiff(b *testing.B) {
	a := barnes.NewSpatial(256, 3, 1)
	cfg := genima.DefaultConfig()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(speedupOf(b, cfg, genima.DWRF, a), "speedup-packed")
		b.ReportMetric(speedupOf(b, cfg, genima.DWRFDD, a), "speedup-direct")
	}
}

// BenchmarkAblationLockStyle contrasts host-interrupt locks (DW+RF+DD)
// against NI locks (GeNIMA) on the lock-heavy Water-Nsquared.
func BenchmarkAblationLockStyle(b *testing.B) {
	a := waterns.New(96, 1)
	cfg := genima.DefaultConfig()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(speedupOf(b, cfg, genima.DWRFDD, a), "speedup-hostlocks")
		b.ReportMetric(speedupOf(b, cfg, genima.GeNIMA, a), "speedup-nilocks")
	}
}

// BenchmarkAblationInterruptCost sweeps the interrupt dispatch cost:
// Base degrades, GeNIMA does not (the paper's central claim).
func BenchmarkAblationInterruptCost(b *testing.B) {
	a := ocean.New(64, 4)
	for i := 0; i < b.N; i++ {
		for _, us := range []float64{10, 60, 120} {
			cfg := genima.DefaultConfig()
			cfg.Costs.Interrupt = sim.Micro(us)
			b.ReportMetric(speedupOf(b, cfg, genima.Base, a), "base-intr")
			b.ReportMetric(speedupOf(b, cfg, genima.GeNIMA, a), "genima-intr")
		}
	}
}

// BenchmarkAblationPostQueue sweeps the NI post-queue depth under
// direct diffs (the Barnes-spatial stall mechanism).
func BenchmarkAblationPostQueue(b *testing.B) {
	a := barnes.NewSpatial(256, 3, 1)
	for i := 0; i < b.N; i++ {
		for _, depth := range []int{8, 64, 512} {
			cfg := genima.DefaultConfig()
			cfg.PostQueueDepth = depth
			b.ReportMetric(speedupOf(b, cfg, genima.DWRFDD, a), "speedup")
		}
	}
}

// BenchmarkAblationSendPipelining reproduces the paper's Windows NT
// experiment: deeper NI send pipelining drains the post queue faster
// and recovers direct-diff performance.
func BenchmarkAblationSendPipelining(b *testing.B) {
	a := barnes.NewSpatial(256, 3, 1)
	for i := 0; i < b.N; i++ {
		for _, pipe := range []int{1, 4} {
			cfg := genima.DefaultConfig()
			cfg.SendPipelining = pipe
			b.ReportMetric(speedupOf(b, cfg, genima.DWRFDD, a), "speedup")
		}
	}
}

// BenchmarkAblationScatterGather evaluates the NI scatter-gather
// extension the paper proposes but does not adopt (§3.3): gathered
// direct diffs should rescue Barnes-spatial's message explosion at the
// price of NI occupancy.
func BenchmarkAblationScatterGather(b *testing.B) {
	a := barnes.NewSpatial(256, 3, 1)
	for i := 0; i < b.N; i++ {
		plain := genima.DefaultConfig()
		sg := genima.DefaultConfig()
		sg.ScatterGather = true
		b.ReportMetric(speedupOf(b, plain, genima.GeNIMA, a), "speedup-runs")
		b.ReportMetric(speedupOf(b, sg, genima.GeNIMA, a), "speedup-gathered")
	}
}

// BenchmarkAblationNIBroadcast evaluates NI-level broadcast of write
// notices (paper §5 future work) on the notice-heavy Water-Nsquared.
func BenchmarkAblationNIBroadcast(b *testing.B) {
	a := waterns.New(96, 1)
	for i := 0; i < b.N; i++ {
		plain := genima.DefaultConfig()
		bc := genima.DefaultConfig()
		bc.NIBroadcast = true
		b.ReportMetric(speedupOf(b, plain, genima.GeNIMA, a), "speedup-unicast")
		b.ReportMetric(speedupOf(b, bc, genima.GeNIMA, a), "speedup-broadcast")
	}
}

// BenchmarkApps runs each application once under GeNIMA (throughput of
// the simulator itself).
func BenchmarkApps(b *testing.B) {
	for _, e := range apps.Suite(apps.Test) {
		e := e
		b.Run(e.App.Name(), func(b *testing.B) {
			cfg := genima.DefaultConfig()
			for i := 0; i < b.N; i++ {
				res, _, err := genima.Run(cfg, genima.GeNIMA, e.App)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Events), "sim-events")
			}
		})
	}
}

// BenchmarkCollectiveBarrier times the collective-path simulation: the
// barrierbench microbenchmark at 64 nodes on a radix-32 clos2, flat
// fan-out vs the NI-firmware tree (the scalesweep's smallest point; a
// bench-smoke gate that the collective machinery still builds and
// runs, with the tree-vs-flat barrier-time ratio as the metric).
func BenchmarkCollectiveBarrier(b *testing.B) {
	e, ok := apps.ByName(apps.Test, "barrierbench")
	if !ok {
		b.Fatal("barrierbench missing")
	}
	mk := func(collectives bool) genima.Config {
		cfg := genima.DefaultConfig()
		cfg.Nodes = 64
		cfg.ProcsPerNode = 1
		cfg.Topo = genima.TopoClos2
		cfg.SwitchRadix = 32
		cfg.Collectives = collectives
		return cfg
	}
	for i := 0; i < b.N; i++ {
		flat, _, err := genima.Run(mk(false), genima.GeNIMA, e.App)
		if err != nil {
			b.Fatal(err)
		}
		tree, _, err := genima.Run(mk(true), genima.GeNIMA, e.App)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(flat.Elapsed)/float64(tree.Elapsed), "tree-speedup")
		b.ReportMetric(float64(flat.Events+tree.Events), "sim-events")
	}
}

// BenchmarkRun512 times one 2-round barrierbench run on the fabric
// workload's 512-node fat tree under the Base flat barrier, build
// included; B/op is the run footprint TestRunFootprint512 pins.
func BenchmarkRun512(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run512(b, genima.Base, false)
	}
}

// BenchmarkBuild512 times building the fabric workload's 512-node fat
// tree (radix 16, NI collective trees) ready to run: workspace, protocol
// nodes, NIs and per-page tables, on clean links and under 1% faults
// (which adds the reliable-delivery engine). Per-peer state is
// allocated on first contact, so B/op tracks the topology, not Nodes².
func BenchmarkBuild512(b *testing.B) {
	a := barrierbench.New(16)
	for _, leg := range []struct {
		name   string
		faults genima.FaultPlan
	}{
		{"clean", genima.FaultPlan{}},
		{"faults", genima.FaultMix(0.01, 1)},
	} {
		cfg := build512Config()
		cfg.Faults = leg.faults
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sys := build(&cfg, a); len(sys.Nodes) != cfg.Nodes {
					b.Fatalf("built %d nodes, want %d", len(sys.Nodes), cfg.Nodes)
				}
			}
		})
	}
}

// BenchmarkServePoint times one bench-scale svmkv serving point under
// GeNIMA on clean links. Diff records and page-fetch buffers are pooled
// per logical process, so B/op stays flat in the request count rather
// than paying for every diff and page copy in flight.
func BenchmarkServePoint(b *testing.B) {
	e, ok := apps.ByName(apps.Bench, "svmkv")
	if !ok {
		b.Fatal("svmkv missing")
	}
	cfg := genima.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, _, err := genima.Run(cfg, genima.GeNIMA, e.App)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "sim-events")
	}
}
