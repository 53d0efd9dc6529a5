package genima

import (
	"genima/internal/stats"
)

// ResultJSON is the machine-readable view of a Result, emitted by
// `genima-run -json` for scripting. Field names are stable snake_case,
// every virtual time is int64 nanoseconds, and the live NI monitor is
// reduced to its per-kind traffic table. The view round-trips through
// encoding/json without loss.
type ResultJSON struct {
	Label     string `json:"label"`
	Procs     int    `json:"procs"`
	ElapsedNs int64  `json:"elapsed_ns"`

	// AvgBreakdown and Breakdowns map execution-time category names
	// (compute, data, lock, acqrel, barrier) to nanoseconds; Breakdowns
	// has one entry per processor.
	AvgBreakdown BreakdownJSON   `json:"avg_breakdown"`
	Breakdowns   []BreakdownJSON `json:"breakdowns"`

	Accounting       AccountingJSON `json:"accounting"`
	Events           uint64         `json:"events"`
	PostQueueStalls  uint64         `json:"post_queue_stalls"`
	PostQueueStallNs int64          `json:"post_queue_stall_ns"`

	Faults FaultsJSON `json:"faults"`
	Util   UtilJSON   `json:"util"`

	// Latency is present only for serving workloads that record
	// per-request latencies (e.g. svmkv).
	Latency *LatencyJSON `json:"latency,omitempty"`

	// Traffic lists per-message-kind packet and byte counts, busiest
	// first (absent for the hardware-DSM and sequential models, which
	// have no NI monitor).
	Traffic []TrafficJSON `json:"traffic,omitempty"`
}

// BreakdownJSON maps execution-time category name to nanoseconds.
type BreakdownJSON map[string]int64

// AccountingJSON mirrors stats.SVMAccounting.
type AccountingJSON struct {
	BarrierProtoNs int64  `json:"barrier_proto_ns"`
	MprotectNs     int64  `json:"mprotect_ns"`
	MprotectOps    uint64 `json:"mprotect_ops"`
	DiffComputeNs  int64  `json:"diff_compute_ns"`
	DiffBytes      uint64 `json:"diff_bytes"`
	PageFetches    uint64 `json:"page_fetches"`
	FetchRetries   uint64 `json:"fetch_retries"`
	LockOps        uint64 `json:"lock_ops"`
	Interrupts     uint64 `json:"interrupts"`
}

// FaultsJSON mirrors stats.FaultReport (all zeros with faults off).
type FaultsJSON struct {
	DropsInjected    uint64 `json:"drops_injected"`
	DupsInjected     uint64 `json:"dups_injected"`
	DelaysInjected   uint64 `json:"delays_injected"`
	CorruptsInjected uint64 `json:"corrupts_injected"`
	DownDrops        uint64 `json:"down_drops"`
	RetxSent         uint64 `json:"retx_sent"`
	DupsSuppressed   uint64 `json:"dups_suppressed"`
	OOODropped       uint64 `json:"ooo_dropped"`
	CorruptDropped   uint64 `json:"corrupt_dropped"`
	AcksSent         uint64 `json:"acks_sent"`
	PiggybackAcks    uint64 `json:"piggyback_acks"`
	Recovered        uint64 `json:"recovered"`
	TotalRecoveryNs  int64  `json:"total_recovery_ns"`
	MaxRecoveryNs    int64  `json:"max_recovery_ns"`
}

// UtilJSON mirrors Utilization (busy fractions in [0,1]).
type UtilJSON struct {
	Firmware      float64 `json:"firmware"`
	PCI           float64 `json:"pci"`
	Link          float64 `json:"link"`
	Switch        float64 `json:"switch"`
	SwitchStageNs []int64 `json:"switch_stage_ns,omitempty"`
	MaxBacklogNs  int64   `json:"max_backlog_ns"`
}

// LatencyJSON is the request-latency summary plus virtual-time
// throughput for serving workloads.
type LatencyJSON struct {
	Count      uint64  `json:"count"`
	ReqsPerSec float64 `json:"reqs_per_sec"`
	MeanNs     int64   `json:"mean_ns"`
	P50Ns      int64   `json:"p50_ns"`
	P90Ns      int64   `json:"p90_ns"`
	P99Ns      int64   `json:"p99_ns"`
	P999Ns     int64   `json:"p999_ns"`
	MaxNs      int64   `json:"max_ns"`
}

// TrafficJSON is one message kind's packet and byte totals.
type TrafficJSON struct {
	Kind    string `json:"kind"`
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
}

func breakdownJSON(b stats.Breakdown) BreakdownJSON {
	m := make(BreakdownJSON, stats.NumCategories)
	for c := 0; c < stats.NumCategories; c++ {
		m[stats.Category(c).String()] = int64(b.T[c])
	}
	return m
}

// NewResultJSON builds the scripting view of res.
func NewResultJSON(res *Result) *ResultJSON {
	j := &ResultJSON{
		Label:        res.Label,
		Procs:        res.Procs,
		ElapsedNs:    int64(res.Elapsed),
		AvgBreakdown: breakdownJSON(res.Avg),
		Accounting: AccountingJSON{
			BarrierProtoNs: int64(res.Acct.BarrierProto),
			MprotectNs:     int64(res.Acct.Mprotect),
			MprotectOps:    res.Acct.MprotectOps,
			DiffComputeNs:  int64(res.Acct.DiffCompute),
			DiffBytes:      res.Acct.DiffBytes,
			PageFetches:    res.Acct.PageFetches,
			FetchRetries:   res.Acct.FetchRetries,
			LockOps:        res.Acct.LockOps,
			Interrupts:     res.Acct.Interrupts,
		},
		Events:           res.Events,
		PostQueueStalls:  res.PostQueueStalls,
		PostQueueStallNs: int64(res.PostQueueStallTime),
		Faults: FaultsJSON{
			DropsInjected:    res.Faults.DropsInjected,
			DupsInjected:     res.Faults.DupsInjected,
			DelaysInjected:   res.Faults.DelaysInjected,
			CorruptsInjected: res.Faults.CorruptsInjected,
			DownDrops:        res.Faults.DownDrops,
			RetxSent:         res.Faults.RetxSent,
			DupsSuppressed:   res.Faults.DupsSuppressed,
			OOODropped:       res.Faults.OOODropped,
			CorruptDropped:   res.Faults.CorruptDropped,
			AcksSent:         res.Faults.AcksSent,
			PiggybackAcks:    res.Faults.PiggybackAcks,
			Recovered:        res.Faults.Recovered,
			TotalRecoveryNs:  int64(res.Faults.TotalRecovery),
			MaxRecoveryNs:    int64(res.Faults.MaxRecovery),
		},
		Util: UtilJSON{
			Firmware:     res.Util.Firmware,
			PCI:          res.Util.PCI,
			Link:         res.Util.Link,
			Switch:       res.Util.Switch,
			MaxBacklogNs: int64(res.Util.MaxBacklog),
		},
	}
	for _, b := range res.Breakdowns {
		j.Breakdowns = append(j.Breakdowns, breakdownJSON(b))
	}
	for _, t := range res.Util.SwitchStage {
		j.Util.SwitchStageNs = append(j.Util.SwitchStageNs, int64(t))
	}
	if res.Latency.Count() > 0 {
		s := res.Latency.Summary()
		j.Latency = &LatencyJSON{
			Count:      s.Count,
			ReqsPerSec: res.Latency.Throughput(res.Elapsed),
			MeanNs:     int64(s.Mean),
			P50Ns:      int64(s.P50),
			P90Ns:      int64(s.P90),
			P99Ns:      int64(s.P99),
			P999Ns:     int64(s.P999),
			MaxNs:      int64(s.Max),
		}
	}
	if res.Monitor != nil {
		for _, k := range res.Monitor.TopKinds(1 << 30) {
			j.Traffic = append(j.Traffic, TrafficJSON{Kind: k.Kind, Packets: k.Packets, Bytes: k.Bytes})
		}
	}
	return j
}
