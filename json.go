package genima

import (
	"genima/internal/app"
	"genima/internal/nic"
	"genima/internal/stats"
)

// ResultJSON is the machine-readable view of a Result, emitted by
// `genima-run -json` for scripting. Field names are stable snake_case,
// every virtual time is int64 nanoseconds, and the live NI monitor is
// reduced to its per-kind traffic table. The counter sections are the
// stats structs themselves, named by their json tags. The view
// round-trips through encoding/json without loss.
type ResultJSON struct {
	Label     string `json:"label"`
	Procs     int    `json:"procs"`
	ElapsedNs int64  `json:"elapsed_ns"`

	// AvgBreakdown and Breakdowns map execution-time category names
	// (Compute, Data, Lock, Barrier) to nanoseconds; Breakdowns has one
	// entry per processor.
	AvgBreakdown BreakdownJSON   `json:"avg_breakdown"`
	Breakdowns   []BreakdownJSON `json:"breakdowns"`

	Accounting       stats.SVMAccounting `json:"accounting"`
	Events           uint64              `json:"events"`
	PostQueueStalls  uint64              `json:"post_queue_stalls"`
	PostQueueStallNs int64               `json:"post_queue_stall_ns"`

	Faults stats.FaultReport `json:"faults"`
	Util   app.Utilization   `json:"util"`

	// Latency is present only for serving workloads that record
	// per-request latencies (e.g. svmkv).
	Latency *LatencyJSON `json:"latency,omitempty"`

	// Traffic lists per-message-kind packet and byte counts, busiest
	// first (absent for the hardware-DSM and sequential models, which
	// have no NI monitor).
	Traffic []nic.KindRow `json:"traffic,omitempty"`
}

// BreakdownJSON maps execution-time category name to nanoseconds.
type BreakdownJSON map[string]int64

// LatencyJSON is the request-latency summary plus virtual-time
// throughput for serving workloads.
type LatencyJSON struct {
	ReqsPerSec float64 `json:"reqs_per_sec"`
	stats.LatencySummary
}

func breakdownJSON(b stats.Breakdown) BreakdownJSON {
	m := make(BreakdownJSON, stats.NumCategories)
	for c := 0; c < stats.NumCategories; c++ {
		m[stats.Category(c).String()] = b.T[c]
	}
	return m
}

// NewResultJSON builds the scripting view of res.
func NewResultJSON(res *Result) *ResultJSON {
	j := &ResultJSON{
		Label:            res.Label,
		Procs:            res.Procs,
		ElapsedNs:        res.Elapsed,
		AvgBreakdown:     breakdownJSON(res.Avg),
		Accounting:       res.Acct,
		Events:           res.Events,
		PostQueueStalls:  res.PostQueueStalls,
		PostQueueStallNs: res.PostQueueStallTime,
		Faults:           res.Faults,
		Util:             res.Util,
	}
	for _, b := range res.Breakdowns {
		j.Breakdowns = append(j.Breakdowns, breakdownJSON(b))
	}
	if res.Latency.Count() > 0 {
		j.Latency = &LatencyJSON{
			ReqsPerSec:     res.Latency.Throughput(res.Elapsed),
			LatencySummary: res.Latency.Summary(),
		}
	}
	if res.Monitor != nil {
		j.Traffic = res.Monitor.TopKinds(1 << 30)
	}
	return j
}
