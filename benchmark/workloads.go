package main

import (
	"fmt"
	"math"

	genima "genima"
	"genima/internal/apps"
	"genima/internal/apps/barrierbench"
	"genima/internal/apps/svmkv"
	"genima/internal/rng"
)

// A run is one simulation of a pass: an app under one protocol (or the
// hardware-DSM model) on one cluster configuration, with the sequential
// reference its output is validated against.
type run struct {
	label string
	cfg   genima.Config
	proto genima.Protocol
	hw    bool // Origin-2000-like hardware DSM instead of an SVM protocol
	app   genima.App
	ref   *genima.Workspace // sequential output
	seq   *genima.Result    // sequential (uniprocessor) result

	gap    float64 // serve: multiple of the svmkv default interarrival gap
	faults float64 // serve: FaultMix drop rate; 0 = clean links
}

// A workload is one set of inputs. setup builds every run of a pass and
// its sequential reference from the seed; the timed passes then repeat
// exactly those runs.
type workload struct {
	name string
	why  string
	// setup builds the pass; small selects the reduced sizes the smoke
	// test uses.
	setup func(seed uint64, small bool) ([]run, error)
	// workers > 1 makes the timed leg an intra-run parallel simulation,
	// paired with a serial leg of the same runs.
	workers int
	// model computes the workload's simulated outputs from one pass.
	model func(runs []run, res []*genima.Result) model
}

// model holds a workload's simulated outputs. They are exact functions
// of the inputs, so every pass of a run must reproduce them bit for bit.
// Fields a workload does not produce stay zero.
type model struct {
	gain float64 // simulated cost under Base ÷ under GeNIMA (see README)

	speedupGeNIMA, speedupBase float64 // ladder: geomean seq.Elapsed / run.Elapsed

	reqsPerS                float64 // serve: GeNIMA, clean, gap ×1.0
	p50US, p999US           float64 // serve: GeNIMA, clean, gap ×2.5
	p999USLossy             float64 // serve: GeNIMA, 1% faults, gap ×2.5
	capacity, capacityLossy float64 // serve: highest offered req/s meeting the tail limit

	barrierFlatUS, barrierTreeUS float64 // fabric, pdes: 512-node Base flat, GeNIMA tree
}

var workloads = []*workload{
	{
		name:  "ladder",
		why:   "the paper's figures: 10 SPLASH apps x 5 protocol rungs + Origin, clean links, serial; loads handlers, twin/diff, deposit/fetch, NI locks",
		setup: setupLadder,
		model: ladderModel,
	},
	{
		name:  "serve",
		why:   "svmkv open loop at 4 loads x {Base, GeNIMA} x {clean, 1% faults}: request tails, NI locks, page migration, go-back-N delivery",
		setup: setupServe,
		model: serveModel,
	},
	{
		name:  "fabric",
		why:   "barrier microbenchmark on 512/128-node multi-stage fabrics under 6 seeds of 1% faults, serial: deep event heaps, routes, collective trees",
		setup: func(seed uint64, small bool) ([]run, error) { return setupFabric(seed, small, fabricFaultSeeds, 2) },
		model: fabricModel,
	},
	{
		name:    "pdes",
		why:     "the fabric points on clean links, run by the intra-run parallel engine with 2 workers and checked against a serial leg",
		setup:   func(seed uint64, small bool) ([]run, error) { return setupFabric(seed, small, 0, pdesRounds) },
		workers: 2,
		model:   fabricModel,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// ladder -------------------------------------------------------------

// The SPLASH inputs have no randomness, so the ladder ignores the seed.
func setupLadder(_ uint64, small bool) ([]run, error) {
	scale := genima.BenchScale
	if small {
		scale = genima.TestScale
	}
	cfg := genima.DefaultConfig()
	var runs []run
	for _, e := range apps.Suite(scale) {
		seq, ref, err := genima.RunSequential(cfg, e.App)
		if err != nil {
			return nil, fmt.Errorf("%s sequential reference: %w", e.App.Name(), err)
		}
		for _, k := range genima.Protocols() {
			runs = append(runs, run{label: e.App.Name() + "/" + k.String(), cfg: cfg, proto: k, app: e.App, ref: ref, seq: seq})
		}
		runs = append(runs, run{label: e.App.Name() + "/Origin2000", cfg: cfg, hw: true, app: e.App, ref: ref, seq: seq})
	}
	return runs, nil
}

func ladderModel(runs []run, res []*genima.Result) model {
	var logG, logB float64
	n := 0
	for i, r := range runs {
		if r.hw {
			continue
		}
		s := math.Log(genima.Speedup(r.seq, res[i]))
		switch r.proto {
		case genima.GeNIMA:
			logG += s
			n++
		case genima.Base:
			logB += s
		}
	}
	g, b := math.Exp(logG/float64(n)), math.Exp(logB/float64(n))
	return model{gain: g / b, speedupGeNIMA: g, speedupBase: b}
}

// serve --------------------------------------------------------------

// serveGaps are the offered loads, as multiples of the svmkv default
// mean interarrival gap (6 µs, ~167 kreq/s): ×4 and ×2.5 sit below every
// rung's drain rate, ×1.6 near it and ×1.0 past it.
var serveGaps = []float64{4, 2.5, 1.6, 1.0}

// Tail limit for capacity: p999 at or below this, with at least
// capacityDone of the offered requests completed per simulated second.
const (
	capacityP999  = 10e6 // ns
	capacityDone  = 0.95
	serveFaultMix = 0.01
)

func setupServe(seed uint64, small bool) ([]run, error) {
	base := svmkv.DefaultParams(!small)
	base.Seed = seed
	var runs []run
	for _, g := range serveGaps {
		p := base
		p.MeanGapNs = base.MeanGapNs * g
		a := svmkv.New(p)
		seq, ref, err := genima.RunSequential(genima.DefaultConfig(), a)
		if err != nil {
			return nil, fmt.Errorf("svmkv gap x%g sequential reference: %w", g, err)
		}
		for _, k := range []genima.Protocol{genima.Base, genima.GeNIMA} {
			for _, rate := range []float64{0, serveFaultMix} {
				cfg := genima.DefaultConfig()
				if rate > 0 {
					cfg.Faults = genima.FaultMix(rate, seed)
				}
				runs = append(runs, run{
					label: fmt.Sprintf("svmkv/%v/gap x%g/faults %g", k, g, rate),
					cfg:   cfg, proto: k, app: a, ref: ref, seq: seq, gap: g, faults: rate,
				})
			}
		}
	}
	return runs, nil
}

func serveModel(runs []run, res []*genima.Result) model {
	find := func(k genima.Protocol, gap, faults float64) *genima.Result {
		for i, r := range runs {
			if r.proto == k && r.gap == gap && r.faults == faults {
				return res[i]
			}
		}
		panic(fmt.Sprintf("serve: no run for %v gap x%g faults %g", k, gap, faults))
	}
	meanLat := func(r *genima.Result) float64 {
		return float64(r.Latency.Sum()) / float64(r.Latency.Count())
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	capacity := func(faults float64) float64 {
		best := 0.0
		for _, g := range serveGaps {
			r := find(genima.GeNIMA, g, faults)
			offered := 1e9 / (svmkv.DefaultParams(true).MeanGapNs * g)
			if float64(r.Latency.Quantile(0.999)) <= capacityP999 &&
				r.Latency.Throughput(r.Elapsed) >= capacityDone*offered && offered > best {
				best = offered
			}
		}
		return best
	}
	var logGain float64
	for _, g := range serveGaps {
		logGain += math.Log(meanLat(find(genima.Base, g, 0)) / meanLat(find(genima.GeNIMA, g, 0)))
	}
	mid := find(genima.GeNIMA, 2.5, 0)
	return model{
		gain:          math.Exp(logGain / float64(len(serveGaps))),
		reqsPerS:      find(genima.GeNIMA, 1.0, 0).Latency.Throughput(find(genima.GeNIMA, 1.0, 0).Elapsed),
		p50US:         us(mid.Latency.Quantile(0.5)),
		p999US:        us(mid.Latency.Quantile(0.999)),
		p999USLossy:   us(find(genima.GeNIMA, 2.5, serveFaultMix).Latency.Quantile(0.999)),
		capacity:      capacity(0),
		capacityLossy: capacity(serveFaultMix),
	}
}

// fabric and pdes ----------------------------------------------------

// fabricPoint is one barrierbench cluster: one processor per node on a
// radix-16 multi-stage fabric.
type fabricPoint struct {
	nodes, smallNodes int
	topo              genima.Topology
	proto             genima.Protocol
	tree              bool // NI-firmware collective tree barrier
}

// The first two points are the flat-vs-tree contrast at 512 nodes; the
// third adds the two-level Clos routes.
var fabricPoints = []fabricPoint{
	{512, 64, genima.TopoFatTree, genima.Base, false},
	{512, 64, genima.TopoFatTree, genima.GeNIMA, true},
	{128, 32, genima.TopoClos2, genima.GeNIMA, true},
}

const (
	// One fault schedule makes a barrier's cost heavy-tailed: a few
	// retransmission timeouts dominate it. The fabric pass sums six
	// schedules derived from the seed, so the pass's simulated outputs
	// and its host time vary far less from seed to seed.
	fabricFaultSeeds = 6
	pdesRounds       = 16
)

// setupFabric builds the fabric points, running rounds barrier rounds,
// under faultSeeds fault plans of 1% mixed faults derived from seed, or
// on clean links when faultSeeds is 0. barrierbench itself has no
// randomness.
func setupFabric(seed uint64, small bool, faultSeeds, rounds int) ([]run, error) {
	a := barrierbench.New(rounds)
	seq, ref, err := genima.RunSequential(genima.DefaultConfig(), a)
	if err != nil {
		return nil, fmt.Errorf("barrierbench sequential reference: %w", err)
	}
	plans := []genima.FaultPlan{{}}
	if faultSeeds > 0 {
		plans = nil
		for i := 0; i < faultSeeds; i++ {
			s := rng.Derive(seed, uint64(i), 'f')
			plans = append(plans, genima.FaultMix(0.01, s.Next()))
		}
	}
	var runs []run
	for _, plan := range plans {
		for _, pt := range fabricPoints {
			cfg := genima.DefaultConfig()
			cfg.Nodes = pt.nodes
			if small {
				cfg.Nodes = pt.smallNodes
			}
			cfg.ProcsPerNode = 1
			cfg.Topo = pt.topo
			cfg.SwitchRadix = 16
			cfg.Collectives = pt.tree
			cfg.Faults = plan
			runs = append(runs, run{
				label: fmt.Sprintf("barrierbench/%d nodes/%v/tree=%v/fault seed %d", cfg.Nodes, pt.proto, pt.tree, plan.Seed),
				cfg:   cfg, proto: pt.proto, app: a, ref: ref, seq: seq,
			})
		}
	}
	return runs, nil
}

// fabricModel reports the mean simulated time per barrier of the two
// 512-node points over every fault plan of the pass.
func fabricModel(runs []run, res []*genima.Result) model {
	var flat, tree float64
	for i := 0; i < len(runs); i += len(fabricPoints) {
		flat += float64(res[i].Elapsed)
		tree += float64(res[i+1].Elapsed)
	}
	// Two barriers per round plus the harness's trailing flush barrier.
	rounds := runs[0].app.(*barrierbench.App).Rounds()
	barriers := float64((2*rounds + 1) * len(runs) / len(fabricPoints))
	return model{gain: flat / tree, barrierFlatUS: flat / barriers / 1e3, barrierTreeUS: tree / barriers / 1e3}
}
