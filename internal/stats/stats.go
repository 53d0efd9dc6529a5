// Package stats collects and formats execution-time statistics for the
// simulated SVM system: per-processor execution-time breakdowns in four
// of the paper's five categories (no workload uses the paper's Acq/Rel
// category, acquires and releases without mutual exclusion), overhead sub-accounting (mprotect, barrier
// protocol time), and simple aggregation helpers used by the benchmark
// harness to regenerate the paper's tables and figures.
package stats

import (
	"fmt"
	"strings"

	"genima/internal/sim"
)

// Category classifies where a simulated processor's time goes, matching
// the execution-time breakdown of Figure 3 in the paper.
type Category int

const (
	// Compute is useful work, including local memory stalls.
	Compute Category = iota
	// Data is time spent on remote memory accesses (page faults).
	Data
	// Lock is time spent in lock synchronization.
	Lock
	// Barrier is time spent in barriers.
	Barrier
	numCategories
)

var categoryNames = [...]string{"Compute", "Data", "Lock", "Barrier"}

// String returns the category's display name.
func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// NumCategories is the number of breakdown categories.
const NumCategories = int(numCategories)

// Breakdown accumulates virtual time per category for one processor.
type Breakdown struct {
	T [NumCategories]sim.Time
}

// Add charges d to category c.
func (b *Breakdown) Add(c Category, d sim.Time) { b.T[c] += d }

// Total returns the sum over all categories.
func (b *Breakdown) Total() sim.Time {
	var t sim.Time
	for _, v := range b.T {
		t += v
	}
	return t
}

// Overhead returns total SVM overhead (everything except Compute).
func (b *Breakdown) Overhead() sim.Time { return b.Total() - b.T[Compute] }

// Merge adds o into b.
func (b *Breakdown) Merge(o Breakdown) {
	for i := range b.T {
		b.T[i] += o.T[i]
	}
}

// Average returns the mean breakdown over procs (empty input yields zero).
func Average(procs []Breakdown) Breakdown {
	var sum Breakdown
	if len(procs) == 0 {
		return sum
	}
	for _, p := range procs {
		sum.Merge(p)
	}
	for i := range sum.T {
		sum.T[i] /= sim.Time(len(procs))
	}
	return sum
}

// Fractions returns each category's share of the total (zeros if empty).
func (b *Breakdown) Fractions() [NumCategories]float64 {
	var f [NumCategories]float64
	tot := b.Total()
	if tot == 0 {
		return f
	}
	for i, v := range b.T {
		f[i] = float64(v) / float64(tot)
	}
	return f
}

// SVMAccounting tracks overhead sub-components the paper's Table 2
// reports: where barrier time goes and how much of all SVM overhead is
// mprotect.
type SVMAccounting struct {
	BarrierProto sim.Time `json:"barrier_proto_ns"` // protocol processing at barriers (incl. mprotect there)
	Mprotect     sim.Time `json:"mprotect_ns"`      // all mprotect time, wherever incurred
	MprotectOps  uint64   `json:"mprotect_ops"`     // number of mprotect system calls (post-coalescing)
	DiffCompute  sim.Time `json:"diff_compute_ns"`  // time spent computing diffs
	DiffBytes    uint64   `json:"diff_bytes"`       // bytes of diff data produced
	PageFetches  uint64   `json:"page_fetches"`     // remote page fetches
	FetchRetries uint64   `json:"fetch_retries"`    // remote-fetch retries due to stale home version
	LockOps      uint64   `json:"lock_ops"`         // remote lock acquires
	Interrupts   uint64   `json:"interrupts"`       // host interrupts taken (Base-style asynchronous handling)
}

// Merge adds o into a.
func (a *SVMAccounting) Merge(o SVMAccounting) {
	a.BarrierProto += o.BarrierProto
	a.Mprotect += o.Mprotect
	a.MprotectOps += o.MprotectOps
	a.DiffCompute += o.DiffCompute
	a.DiffBytes += o.DiffBytes
	a.PageFetches += o.PageFetches
	a.FetchRetries += o.FetchRetries
	a.LockOps += o.LockOps
	a.Interrupts += o.Interrupts
}

// FaultReport aggregates the fault-injection and NI reliable-delivery
// counters for one run: what the fault plan injected into the fabric,
// and what the firmware reliability layer did to mask it. All zeros
// when fault injection is disabled.
type FaultReport struct {
	// Injected by the fault plan, at link granularity.
	DropsInjected    uint64 `json:"drops_injected"`    // packets lost on a link crossing
	DupsInjected     uint64 `json:"dups_injected"`     // packets delivered twice by the in-link
	DelaysInjected   uint64 `json:"delays_injected"`   // packets held for an extra reorder delay
	CorruptsInjected uint64 `json:"corrupts_injected"` // packets with flipped payload bits
	DownDrops        uint64 `json:"down_drops"`        // packets lost to a timed link-down window

	// Masked by the NI reliable-delivery layer.
	RetxSent       uint64 `json:"retx_sent"`       // retransmissions sent (go-back-N bursts)
	DupsSuppressed uint64 `json:"dups_suppressed"` // arrivals below the cumulative ack, discarded
	OOODropped     uint64 `json:"ooo_dropped"`     // out-of-order arrivals discarded (go-back-N)
	CorruptDropped uint64 `json:"corrupt_dropped"` // checksum-failed arrivals discarded
	AcksSent       uint64 `json:"acks_sent"`       // standalone cumulative acks
	PiggybackAcks  uint64 `json:"piggyback_acks"`  // acks carried by reverse data traffic

	// Recovery time: first transmission to cumulative ack, over packets
	// that needed at least one retransmission.
	Recovered     uint64   `json:"recovered"`
	TotalRecovery sim.Time `json:"total_recovery_ns"`
	MaxRecovery   sim.Time `json:"max_recovery_ns"`
}

// Merge adds o into r.
func (r *FaultReport) Merge(o FaultReport) {
	r.DropsInjected += o.DropsInjected
	r.DupsInjected += o.DupsInjected
	r.DelaysInjected += o.DelaysInjected
	r.CorruptsInjected += o.CorruptsInjected
	r.DownDrops += o.DownDrops
	r.RetxSent += o.RetxSent
	r.DupsSuppressed += o.DupsSuppressed
	r.OOODropped += o.OOODropped
	r.CorruptDropped += o.CorruptDropped
	r.AcksSent += o.AcksSent
	r.PiggybackAcks += o.PiggybackAcks
	r.Recovered += o.Recovered
	r.TotalRecovery += o.TotalRecovery
	if o.MaxRecovery > r.MaxRecovery {
		r.MaxRecovery = o.MaxRecovery
	}
}

// Any reports whether the run saw any fault or reliability activity.
func (r *FaultReport) Any() bool {
	return r.DropsInjected+r.DupsInjected+r.DelaysInjected+r.CorruptsInjected+
		r.DownDrops+r.RetxSent+r.DupsSuppressed+r.OOODropped+r.CorruptDropped+
		r.AcksSent+r.PiggybackAcks > 0
}

// MeanRecovery returns the average first-send-to-ack latency of packets
// that needed retransmission (0 when none did).
func (r *FaultReport) MeanRecovery() sim.Time {
	if r.Recovered == 0 {
		return 0
	}
	return r.TotalRecovery / sim.Time(r.Recovered)
}

// DigestInto folds the accounting counters into d.
func (a *SVMAccounting) DigestInto(d *sim.Digest) {
	d.I64(0) // a never-written barrier-wait counter's slot: kept so pinned digests stay stable
	d.I64(a.BarrierProto)
	d.I64(a.Mprotect)
	d.U64(a.MprotectOps)
	d.I64(a.DiffCompute)
	d.U64(a.DiffBytes)
	d.U64(a.PageFetches)
	d.U64(a.FetchRetries)
	d.U64(a.LockOps)
	d.U64(a.Interrupts)
}

// DigestInto folds the fault counters into d.
func (r *FaultReport) DigestInto(d *sim.Digest) {
	d.U64(r.DropsInjected)
	d.U64(r.DupsInjected)
	d.U64(r.DelaysInjected)
	d.U64(r.CorruptsInjected)
	d.U64(r.DownDrops)
	d.U64(r.RetxSent)
	d.U64(r.DupsSuppressed)
	d.U64(r.OOODropped)
	d.U64(r.CorruptDropped)
	d.U64(r.AcksSent)
	d.U64(r.PiggybackAcks)
	d.U64(r.Recovered)
	d.I64(r.TotalRecovery)
	d.I64(r.MaxRecovery)
}

// Seconds renders a virtual time as seconds.
func Seconds(t sim.Time) float64 { return float64(t) / float64(sim.Second) }

// Table is a minimal fixed-width text table writer used by the bench
// harness to print paper-style rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	ncol := len(t.header)
	width := make([]int, ncol)
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < ncol && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range width {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total+2*(ncol-1)))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}
