package nic

import (
	"sort"

	"genima/internal/sim"
)

// DigestInto folds the whole NI subsystem's live state — per-NI queues,
// pools, reliable-delivery flows, collective trees, and the shared
// monitor — into d, for checkpoint verification. Everything folded is a
// pure function of the executed event prefix (pool free-list LENGTHS
// rather than pointer identities, entry contents rather than heap
// addresses), so two runs that executed the same prefix in the same
// mode digest identically.
func (s *System) DigestInto(d *sim.Digest) {
	d.U64(uint64(len(s.NIs)))
	for _, ni := range s.NIs {
		ni.digestInto(d)
	}
	s.Monitor.DigestInto(d)
	if s.Fabric.Faults != nil {
		s.Fabric.Faults.DigestInto(d)
	}
}

func (ni *NI) digestInto(d *sim.Digest) {
	d.U64(ni.Overflows)
	ni.PostQueue.DigestInto(d)
	ni.PCI.DigestInto(d)
	ni.Firmware.DigestInto(d)
	d.U64(uint64(len(ni.pool.pktFree)))
	d.U64(uint64(len(ni.pool.trFree)))
	d.U64(uint64(len(ni.monFree)))
	if ni.rel != nil {
		ni.rel.digestInto(d)
	}
	if ni.col != nil {
		ni.col.digestInto(d)
	}
}

func (r *relState) digestInto(d *sim.Digest) {
	d.U64(uint64(len(r.flows)))
	var zero relFlow
	for _, f := range r.flows {
		if f == nil {
			f = &zero // a peer never contacted digests as the zero flow
		}
		d.U64(f.nextSeq)
		d.I64(f.rto)
		d.I64(f.srtt)
		d.U64(f.recvd)
		d.U64(uint64(f.unacked))
		d.I64(f.retx.deadline)
		d.I64(f.ackT.deadline)
		d.U64(uint64(len(f.pending)))
		for _, e := range f.pending {
			d.U64(e.pkt.Seq)
			d.U64(e.pkt.Ack)
			d.U64(e.pkt.Csum)
			d.U64(uint64(e.pkt.Size))
			d.Str(e.pkt.Kind)
			d.I64(e.firstSent)
			d.I64(e.lastSent)
			d.U64(uint64(e.attempts))
		}
	}
	d.U64(uint64(len(r.entFree)))
	r.Report.DigestInto(d)
}

func (c *colState) digestInto(d *sim.Digest) {
	for i := range c.ops {
		op := &c.ops[i]
		d.U64(uint64(op.seq))
		d.U64(uint64(op.got))
		d.Bool(op.active)
		if op.active {
			for _, v := range op.vec {
				d.U64(v)
			}
		}
	}
	d.U64(uint64(len(c.msgFree)))
	d.U64(uint64(len(c.delFree)))
	d.U64(uint64(len(c.hostFree)))
}

// DigestInto folds the firmware monitor's accumulated statistics. The
// per-kind map is folded in sorted key order so iteration order cannot
// perturb the digest.
func (m *Monitor) DigestInto(d *sim.Digest) {
	for c := Class(0); c < numClasses; c++ {
		st := &m.ByClass[c]
		d.U64(st.Packets)
		d.U64(st.Bytes)
		for s := Stage(0); s < NumStages; s++ {
			d.I64(st.Actual[s])
			d.I64(st.Uncontended[s])
		}
	}
	kinds := make([]string, 0, len(m.ByKind))
	for k := range m.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ks := m.ByKind[k]
		d.Str(k)
		d.U64(ks.Packets)
		d.U64(ks.Bytes)
	}
}
