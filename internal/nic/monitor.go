package nic

import (
	"sort"

	"genima/internal/sim"
)

// StageStats accumulates actual and uncontended time per pipeline stage
// for one message-size class.
type StageStats struct {
	Packets     uint64
	Bytes       uint64
	Actual      [NumStages]sim.Time
	Uncontended [NumStages]sim.Time
}

// Ratio returns actual/uncontended for a stage (1.0 when no traffic).
func (s *StageStats) Ratio(st Stage) float64 {
	if s.Uncontended[st] == 0 {
		return 1
	}
	return float64(s.Actual[st]) / float64(s.Uncontended[st])
}

// KindStats counts traffic for one protocol message kind.
type KindStats struct {
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
}

// TraceEvent is one delivered packet, as seen by the firmware monitor.
type TraceEvent struct {
	Time      sim.Time // delivery completion
	Src, Dst  int
	Size      int
	Kind      string
	Firmware  bool                // serviced in destination NI firmware
	StageTime [NumStages]sim.Time // per-stage elapsed (incl. queueing)
}

// Monitor is the NI firmware performance monitor (the paper's [36]): it
// gathers packet-level data at the firmware level for the whole system.
type Monitor struct {
	ByClass [numClasses]StageStats
	// ByKind breaks traffic down by protocol message kind ("page-req",
	// "diff", "notice", "ni-lock-acq", ...), the view §4 of the paper
	// uses to identify control messages stuck behind data.
	ByKind map[string]*KindStats
	// Tracer, when set before the run, receives every delivered packet
	// (the monitor's packet-level event stream). The SVM runner clears
	// it when the run ends.
	Tracer func(TraceEvent)
}

// monRec is a snapshot of the packet fields the monitor needs. During a
// parallel round, delivery events on different LPs must not mutate the
// shared Monitor concurrently, so record snapshots the packet (which
// may be recycled before the round ends) and defers the commit to the
// barrier, where DeferFlush replays commits in the global serial order
// of the delivery events. monRec implements sim.Handler for exactly
// that replay.
type monRec struct {
	ni       *NI
	size     int
	kind     string
	fw       bool
	noSrcDMA bool
	fwSvc    sim.Time
	src, dst int

	tPost, tSrc, tInject, tArrive, tDone sim.Time
}

func (r *monRec) fill(ni *NI, pkt *Packet) {
	r.ni = ni
	r.size, r.kind = pkt.Size, pkt.Kind
	r.fw, r.noSrcDMA, r.fwSvc = pkt.FwHandler != nil, pkt.noSrcDMA, pkt.FwService
	r.src, r.dst = pkt.Src, pkt.Dst
	r.tPost, r.tSrc, r.tInject, r.tArrive, r.tDone =
		pkt.tPost, pkt.tSrc, pkt.tInject, pkt.tArrive, pkt.tDone
}

// Run commits a deferred record at the round barrier and returns it to
// its NI's pool (the barrier is single-threaded, so touching the NI's
// free list here is safe).
func (r *monRec) Run(_, _ sim.Time) {
	ni := r.ni
	ni.mon.commit(ni, r)
	*r = monRec{}
	ni.monFree.Push(r)
}

// record is called by the pipeline on the delivering NI, in that NI's
// LP context. Serial runs (and lone-mode parallel execution) commit
// inline; parallel rounds defer to the barrier.
func (m *Monitor) record(ni *NI, pkt *Packet) {
	if ni.eng.Deferring() {
		r := sim.Take(&ni.monFree, 1, nil)
		r.fill(ni, pkt)
		ni.eng.DeferFlush(r)
		return
	}
	var r monRec
	r.fill(ni, pkt)
	m.commit(ni, &r)
}

// commit folds one delivered packet into the monitor. The uncontended
// baseline of each stage is the sum of the service times the pipeline
// charges (pciService, fwSendService, fwRecvService, the links and
// switches) with no queueing; with faults on those include the
// reliability surcharge, so contention ratios stay comparable.
func (m *Monitor) commit(ni *NI, r *monRec) {
	fab := ni.fabric
	st := &m.ByClass[ClassOf(r.size)]
	st.Packets++
	st.Bytes += uint64(r.size)

	if m.ByKind == nil {
		m.ByKind = map[string]*KindStats{}
	}
	ks := m.ByKind[r.kind]
	if ks == nil {
		ks = &KindStats{}
		m.ByKind[r.kind] = ks
	}
	ks.Packets++
	ks.Bytes += uint64(r.size)

	st.Actual[StageSource] += r.tSrc - r.tPost
	st.Actual[StageLANai] += r.tInject - r.tSrc
	st.Actual[StageNet] += r.tArrive - r.tSrc
	st.Actual[StageDest] += r.tDone - r.tArrive

	pci := ni.pciService(r.size)
	fwSend := ni.fwSendService(r.size)
	if !r.noSrcDMA {
		st.Uncontended[StageSource] += pci
	}
	st.Uncontended[StageLANai] += fwSend + fab.linkService(r.size)
	st.Uncontended[StageNet] += fwSend + fab.UncontendedNet(r.size)
	st.Uncontended[StageDest] += ni.fwRecvService(r.size) + r.fwSvc
	if !r.fw {
		st.Uncontended[StageDest] += pci
	}

	if m.Tracer != nil {
		m.Tracer(TraceEvent{
			Time: r.tDone, Src: r.src, Dst: r.dst,
			Size: r.size, Kind: r.kind, Firmware: r.fw,
			StageTime: [NumStages]sim.Time{
				r.tSrc - r.tPost, r.tInject - r.tSrc,
				r.tArrive - r.tSrc, r.tDone - r.tArrive,
			},
		})
	}
}

// Ratios returns the four contention ratios for a class, in stage order
// (the rows of Tables 3 and 4 in the paper).
func (m *Monitor) Ratios(c Class) [NumStages]float64 {
	var r [NumStages]float64
	for s := Stage(0); s < NumStages; s++ {
		r[s] = m.ByClass[c].Ratio(s)
	}
	return r
}

// Packets returns the packet count in a class.
func (m *Monitor) Packets(c Class) uint64 { return m.ByClass[c].Packets }

// TotalPackets returns the packet count across classes.
func (m *Monitor) TotalPackets() uint64 {
	return m.ByClass[Small].Packets + m.ByClass[Large].Packets
}

// TotalBytes returns total bytes moved across classes.
func (m *Monitor) TotalBytes() uint64 {
	return m.ByClass[Small].Bytes + m.ByClass[Large].Bytes
}

// KindRow is one message kind's firmware statistics, as TopKinds
// ranks them.
type KindRow struct {
	Kind string `json:"kind"`
	KindStats
}

// TopKinds returns up to n message kinds by packet count, descending.
func (m *Monitor) TopKinds(n int) []KindRow {
	rows := make([]KindRow, 0, len(m.ByKind))
	for k, v := range m.ByKind {
		rows = append(rows, KindRow{k, *v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Packets != rows[j].Packets {
			return rows[i].Packets > rows[j].Packets
		}
		return rows[i].Kind < rows[j].Kind
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows
}
