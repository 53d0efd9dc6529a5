package main

import (
	"strings"
	"testing"

	"genima/internal/nic"
	"genima/internal/stats"
)

const (
	lower  = "lower"
	higher = "higher"
)

// metric is one registry entry. End-to-end metrics are what a user of
// the simulator sees and carry the bound by which a change may worsen
// them; layer metrics come from the traced run and name the end-to-end
// metric they should move and the workloads they should move it on.
type metric struct {
	name    string
	unit    string
	better  string
	e2e     bool
	virtual bool    // simulated time or another model output; host-measured otherwise
	bound   float64 // e2e: allowed worsening, as a share of the parent's median
	moves   string  // layer: the end-to-end metric it should move
	on      []string

	// Exactly one of these measures the metric; a driver's <name>.allocs
	// companion has none and reads the driver's result.
	samples func(r *report) []float64 // e2e: reported as median and quartiles
	value   func(r *report) float64   // layer
	driver  func(b *testing.B) error  // layer, host: ns (or ms) per op, plus <name>.allocs
}

var (
	all         = []string{"ladder", "serve", "fabric", "pdes"}
	ladderServe = []string{"ladder", "serve"}
	serveFabric = []string{"serve", "fabric"}
)

// registry lists every metric the benchmark reports, each defined once.
var registry = withAllocs([]metric{
	// End to end.
	{name: "pass_s", unit: "s", better: lower, e2e: true, bound: 0.25,
		samples: func(r *report) []float64 { return r.passes }},
	{name: "setup_s", unit: "s", better: lower, e2e: true, bound: 0.25,
		samples: func(r *report) []float64 { return r.setup }},
	{name: "max_rss_mb", unit: "MB", better: lower, e2e: true, bound: 0.25,
		samples: func(r *report) []float64 { return []float64{r.rssMB} }},
	{name: "genima_gain", unit: "x", better: higher, e2e: true, virtual: true, bound: 0.25,
		samples: func(r *report) []float64 { return []float64{r.model.gain} }},

	// sim: the event engine.
	{name: "sim.events", unit: "count", better: lower, virtual: true, moves: "pass_s", on: all,
		value: func(r *report) float64 { return float64(r.events) }},
	{name: "sim.events_per_s", unit: "1/s", better: higher, moves: "pass_s", on: all,
		value: func(r *report) float64 { return ratio(float64(r.events), median(r.passes)) }},
	{name: "sim.bytes_per_event", unit: "B", better: lower, moves: "max_rss_mb", on: all,
		value: func(r *report) float64 { return ratio(float64(r.allocBytes), float64(r.timedEvents)) }},
	{name: "sim.allocs_per_event", unit: "count", better: lower, moves: "pass_s", on: all,
		value: func(r *report) float64 { return ratio(float64(r.mallocs), float64(r.timedEvents)) }},
	{name: "sim.intrarun_speedup", unit: "x", better: higher, moves: "pass_s", on: []string{"pdes"},
		value: intrarunSpeedup},
	{name: "sim.heap_ns", unit: "ns", better: lower, moves: "pass_s", on: []string{"fabric"}, driver: driveHeap},
	{name: "sim.proc_switch_ns", unit: "ns", better: lower, moves: "pass_s", on: ladderServe, driver: driveProcSwitch},
	{name: "sim.pdes_handoff_ns", unit: "ns", better: lower, moves: "pass_s", on: []string{"pdes"}, driver: drivePDESHandoff},

	// memory: twins and diffs.
	{name: "memory.twin_ns", unit: "ns", better: lower, moves: "pass_s", on: ladderServe, driver: driveTwin},
	{name: "memory.diff_sparse_ns", unit: "ns", better: lower, moves: "pass_s", on: ladderServe, driver: driveDiff(100)},
	{name: "memory.diff_dense_ns", unit: "ns", better: lower, moves: "pass_s", on: ladderServe, driver: driveDiff(1)},
	{name: "memory.apply_ns", unit: "ns", better: lower, moves: "pass_s", on: ladderServe, driver: driveApply},

	// vmmc: deposit, fetch, NI locks.
	{name: "vmmc.deposit_ns", unit: "ns", better: lower, moves: "pass_s", on: ladderServe, driver: driveDeposit(64, false)},
	{name: "vmmc.deposit_16k_ns", unit: "ns", better: lower, moves: "pass_s", on: ladderServe, driver: driveDeposit(16384, false)},
	{name: "vmmc.deposit_lossy_ns", unit: "ns", better: lower, moves: "pass_s", on: serveFabric, driver: driveDeposit(64, true)},
	{name: "vmmc.fetch_ns", unit: "ns", better: lower, moves: "pass_s", on: ladderServe, driver: driveFetch},
	{name: "vmmc.nilock_ns", unit: "ns", better: lower, moves: "pass_s", on: ladderServe, driver: driveNILock},
	{name: "vmmc.broadcast_ns", unit: "ns", better: lower, moves: "pass_s", on: ladderServe, driver: driveBroadcast},

	// nic: the four pipeline stages, firmware service and reliable delivery.
	{name: "nic.colbarrier_ns", unit: "ns", better: lower, moves: "pass_s", on: []string{"fabric"}, driver: driveColBarrier},
	{name: "nic.packets", unit: "count", better: lower, virtual: true, moves: "genima_gain", on: all,
		value: func(r *report) float64 { return float64(r.pkts.packets) }},
	{name: "nic.bytes", unit: "B", better: lower, virtual: true, moves: "genima_gain", on: all,
		value: func(r *report) float64 { return float64(r.pkts.bytes) }},
	{name: "nic.src_ns_per_pkt", unit: "sim_ns", better: lower, virtual: true, moves: "genima_gain", on: all, value: stage(nic.StageSource)},
	{name: "nic.lanai_ns_per_pkt", unit: "sim_ns", better: lower, virtual: true, moves: "genima_gain", on: all, value: stage(nic.StageLANai)},
	{name: "nic.net_ns_per_pkt", unit: "sim_ns", better: lower, virtual: true, moves: "genima_gain", on: all, value: stage(nic.StageNet)},
	{name: "nic.dest_ns_per_pkt", unit: "sim_ns", better: lower, virtual: true, moves: "genima_gain", on: all, value: stage(nic.StageDest)},
	{name: "nic.fw_serviced_frac", unit: "ratio", better: higher, virtual: true, moves: "genima_gain", on: all,
		value: func(r *report) float64 { return ratio(float64(r.pkts.firmware), float64(r.pkts.packets)) }},
	{name: "nic.post_stalls", unit: "count", better: lower, virtual: true, moves: "genima_gain", on: ladderServe,
		value: func(r *report) float64 { return float64(r.sums.postStalls) }},
	{name: "nic.post_stall_us", unit: "sim_us", better: lower, virtual: true, moves: "genima_gain", on: ladderServe,
		value: func(r *report) float64 { return float64(r.sums.postStallTime) / 1e3 }},
	{name: "nic.fw_util", unit: "ratio", better: lower, virtual: true, moves: "genima_gain", on: ladderServe,
		value: func(r *report) float64 { return ratio(r.sums.fwUtil, float64(r.sums.runs)) }},
	{name: "nic.pci_util", unit: "ratio", better: lower, virtual: true, moves: "genima_gain", on: ladderServe,
		value: func(r *report) float64 { return ratio(r.sums.pciUtil, float64(r.sums.runs)) }},
	{name: "nic.retx_sent", unit: "count", better: lower, virtual: true, moves: "genima_gain", on: serveFabric,
		value: func(r *report) float64 { return float64(r.sums.faults.RetxSent) }},
	{name: "nic.goodput_frac", unit: "ratio", better: higher, virtual: true, moves: "genima_gain", on: serveFabric,
		value: func(r *report) float64 {
			return ratio(float64(r.pkts.packets), float64(r.pkts.packets+r.sums.faults.RetxSent))
		}},
	{name: "nic.recovery_mean_us", unit: "sim_us", better: lower, virtual: true, moves: "genima_gain", on: serveFabric,
		value: func(r *report) float64 { return float64(r.sums.faults.MeanRecovery()) / 1e3 }},
	{name: "nic.ooo_dropped", unit: "count", better: lower, virtual: true, moves: "genima_gain", on: serveFabric,
		value: func(r *report) float64 { return float64(r.sums.faults.OOODropped) }},
	{name: "nic.dups_suppressed", unit: "count", better: lower, virtual: true, moves: "genima_gain", on: serveFabric,
		value: func(r *report) float64 { return float64(r.sums.faults.DupsSuppressed) }},

	// network: links and switches.
	{name: "network.link_util", unit: "ratio", better: lower, virtual: true, moves: "genima_gain", on: serveFabric,
		value: func(r *report) float64 { return ratio(r.sums.linkUtil, float64(r.sums.runs)) }},
	{name: "network.switch_util", unit: "ratio", better: lower, virtual: true, moves: "genima_gain", on: serveFabric,
		value: func(r *report) float64 { return ratio(r.sums.switchUtil, float64(r.sums.runs)) }},
	{name: "network.max_backlog_us", unit: "sim_us", better: lower, virtual: true, moves: "genima_gain", on: serveFabric,
		value: func(r *report) float64 { return float64(r.sums.maxBacklog) / 1e3 }},

	// core: the protocol.
	{name: "core.build_ms", unit: "ms", better: lower, moves: "pass_s", on: []string{"fabric"}, driver: driveBuild},
	{name: "core.interrupts", unit: "count", better: lower, virtual: true, moves: "genima_gain", on: ladderServe,
		value: acct(func(a stats.SVMAccounting) float64 { return float64(a.Interrupts) })},
	{name: "core.page_fetches", unit: "count", better: lower, virtual: true, moves: "genima_gain", on: ladderServe,
		value: acct(func(a stats.SVMAccounting) float64 { return float64(a.PageFetches) })},
	{name: "core.fetch_retry_frac", unit: "ratio", better: lower, virtual: true, moves: "genima_gain", on: ladderServe,
		value: acct(func(a stats.SVMAccounting) float64 { return ratio(float64(a.FetchRetries), float64(a.PageFetches)) })},
	{name: "core.diff_bytes", unit: "B", better: lower, virtual: true, moves: "genima_gain", on: ladderServe,
		value: acct(func(a stats.SVMAccounting) float64 { return float64(a.DiffBytes) })},
	{name: "core.mprotect_ops", unit: "count", better: lower, virtual: true, moves: "genima_gain", on: ladderServe,
		value: acct(func(a stats.SVMAccounting) float64 { return float64(a.MprotectOps) })},
	{name: "core.lock_ops", unit: "count", better: lower, virtual: true, moves: "genima_gain", on: ladderServe,
		value: acct(func(a stats.SVMAccounting) float64 { return float64(a.LockOps) })},
	{name: "core.barrier_proto_us", unit: "sim_us", better: lower, virtual: true, moves: "genima_gain", on: ladderServe,
		value: acct(func(a stats.SVMAccounting) float64 { return float64(a.BarrierProto) / 1e3 })},

	// app: where processor time goes, and the workloads' own results.
	{name: "app.compute_frac", unit: "ratio", better: higher, virtual: true, moves: "genima_gain", on: ladderServe, value: category(stats.Compute)},
	{name: "app.data_frac", unit: "ratio", better: lower, virtual: true, moves: "genima_gain", on: ladderServe, value: category(stats.Data)},
	{name: "app.lock_frac", unit: "ratio", better: lower, virtual: true, moves: "genima_gain", on: ladderServe, value: category(stats.Lock)},
	{name: "app.barrier_frac", unit: "ratio", better: lower, virtual: true, moves: "genima_gain", on: ladderServe, value: category(stats.Barrier)},
	{name: "app.speedup_genima", unit: "x", better: higher, virtual: true, moves: "genima_gain", on: []string{"ladder"},
		value: func(r *report) float64 { return r.model.speedupGeNIMA }},
	{name: "app.speedup_base", unit: "x", better: higher, virtual: true, moves: "genima_gain", on: []string{"ladder"},
		value: func(r *report) float64 { return r.model.speedupBase }},
	{name: "app.reqs_per_s", unit: "sim_req/s", better: higher, virtual: true, moves: "genima_gain", on: []string{"serve"},
		value: func(r *report) float64 { return r.model.reqsPerS }},
	{name: "app.p50_us", unit: "sim_us", better: lower, virtual: true, moves: "genima_gain", on: []string{"serve"},
		value: func(r *report) float64 { return r.model.p50US }},
	{name: "app.p999_us", unit: "sim_us", better: lower, virtual: true, moves: "genima_gain", on: []string{"serve"},
		value: func(r *report) float64 { return r.model.p999US }},
	{name: "app.p999_us_lossy", unit: "sim_us", better: lower, virtual: true, moves: "genima_gain", on: []string{"serve"},
		value: func(r *report) float64 { return r.model.p999USLossy }},
	{name: "app.capacity_rps", unit: "sim_req/s", better: higher, virtual: true, moves: "genima_gain", on: []string{"serve"},
		value: func(r *report) float64 { return r.model.capacity }},
	{name: "app.capacity_rps_lossy", unit: "sim_req/s", better: higher, virtual: true, moves: "genima_gain", on: []string{"serve"},
		value: func(r *report) float64 { return r.model.capacityLossy }},
	{name: "app.barrier_us_flat", unit: "sim_us", better: lower, virtual: true, moves: "genima_gain", on: []string{"fabric", "pdes"},
		value: func(r *report) float64 { return r.model.barrierFlatUS }},
	{name: "app.barrier_us_tree", unit: "sim_us", better: lower, virtual: true, moves: "genima_gain", on: []string{"fabric", "pdes"},
		value: func(r *report) float64 { return r.model.barrierTreeUS }},

	// The benchmark's own cost: it moves no end-to-end metric, because
	// those are measured untraced.
	{name: "trace_overhead_frac", unit: "ratio", better: lower, on: all,
		value: func(r *report) float64 { return median(r.traceRatios) - 1 }},
})

// withAllocs adds a <name>.allocs metric after every driver metric.
func withAllocs(ms []metric) []metric {
	var out []metric
	for _, m := range ms {
		out = append(out, m)
		if m.driver != nil {
			out = append(out, metric{name: m.name + ".allocs", unit: "allocs/op", better: lower, moves: m.moves, on: m.on})
		}
	}
	return out
}

// layerValue evaluates a layer metric of a traced run.
func layerValue(m metric, r *report) float64 {
	switch {
	case m.value != nil:
		return m.value(r)
	case m.driver != nil:
		res := r.drivers[m.name]
		ns := ratio(float64(res.T.Nanoseconds()), float64(res.N))
		if m.unit == "ms" {
			return ns / 1e6
		}
		return ns
	default: // <driver>.allocs
		res := r.drivers[strings.TrimSuffix(m.name, ".allocs")]
		return ratio(float64(res.MemAllocs), float64(res.N))
	}
}

func stage(s nic.Stage) func(r *report) float64 {
	return func(r *report) float64 { return ratio(float64(r.pkts.stage[s]), float64(r.pkts.packets)) }
}

func acct(f func(stats.SVMAccounting) float64) func(r *report) float64 {
	return func(r *report) float64 { return f(r.sums.acct) }
}

// category is the share of simulated processor time spent in c, over
// every SVM run of the pass.
func category(c stats.Category) func(r *report) float64 {
	return func(r *report) float64 {
		total := 0.0
		for _, t := range r.sums.cats {
			total += t
		}
		return ratio(r.sums.cats[c], total)
	}
}

func intrarunSpeedup(r *report) float64 {
	var rs []float64
	for i, s := range r.serial {
		rs = append(rs, ratio(s, r.passes[i]))
	}
	return median(rs)
}
