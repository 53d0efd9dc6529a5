package nic

// NI-firmware reliable delivery: the half of VMMC's contract the fabric
// stops providing once fault injection is on. The firmware keeps
// per-destination sequence numbers, a corruption check (standing in for
// a payload CRC), a pooled retransmission buffer with virtual-time
// timeout + exponential backoff, duplicate suppression, and cumulative
// acks piggybacked on reverse traffic — so everything
// above the firmware line (vmmc, the protocols) still sees reliable,
// per-flow-FIFO delivery and the host never takes an interrupt for a
// lost packet.
//
// Sequence discipline is go-back-N. Sequence numbers are assigned when
// the send-firmware stage completes (transit stSrcFW), which is the
// moment the packet enters the out-link: the firmware resource is FIFO,
// so per-(src,dst) sequence order always equals wire order and the only
// sources of out-of-order arrival are injected faults. The receiver
// accepts exactly the next expected sequence number, suppresses
// duplicates (Seq <= recvd), and discards later packets (go-back-N has
// no reassembly buffer), re-acking in both cases. The sender keeps a
// snapshot of every unacked packet in a pooled retransmission entry;
// on timeout it retransmits the whole window from NI memory
// (startAtFirmware, no host DMA) and doubles the timeout, resetting it
// on cumulative-ack progress.
//
// The timeout adapts to the measured round-trip time: an entry that
// was never retransmitted feeds an EWMA smoothed RTT with the exact
// sample now-firstSent, and the flow's base RTO is max(RetxTimeout,
// 2*srtt). Retransmitted entries are ambiguous (Karn's problem) and
// do not update srtt — sampling them with now-firstSent is divergent,
// not merely noisy: that sample includes the back-off waits the entry
// sat through, each loss episode then inflates srtt, the inflated srtt
// doubles the next wait, and the next sample inflates srtt further, a
// positive-feedback loop that drives virtual time to absurdity (a
// 60-packet unit-test burst reached 10^5 simulated seconds before the
// arithmetic overflowed). The one exception is a flow with no estimate
// at all (srtt == 0): its first retired entry bootstraps srtt with
// now-lastSent, the round trip of the copy that finally got through —
// a sample that contains no back-off waits and so cannot feed back.
//
// The back-off itself is uncapped (up to an overflow guard far beyond
// any run length): consecutive timeouts double the RTO without limit,
// and only cumulative-ack progress resets it to the base. A static cap
// is not a safety net but a collapse mechanism at scale — a flat
// 256-node barrier puts hundreds of multi-KB flag deposits in every
// NI's firmware FIFO at once, the queueing round trip then exceeds any
// static cap by an order of magnitude, and with a capped RTO every
// flow times out forever, each spurious whole-window retransmit (and
// the dup-ack it provokes) growing the queues faster than they drain.
// Uncapped doubling instead halves a stuck flow's retransmission
// pressure each cycle, the fabric drains, the first ack arrives, and
// the flow learns the real (congested) round trip. The full-window
// resend then heals a genuine hole in one round trip (the receiver
// discarded everything behind it).
//
// Corruption is the packet's Csum: zero when the packet is built, it
// accumulates the XOR of every nonzero mask a link injects (transit
// stOutLink/stInLink; the fault plan ORs each mask with 1), and the
// receive gate discards the packet iff it is nonzero. That is the
// verdict a header checksum gave: nothing a checksum would cover
// changes between the send-firmware stamp and the receive gate, so a
// stamped checksum fails to verify exactly when the masks XOR to
// nonzero. The firmware still pays for the check (NICsumPerByte in
// relService).
//
// Pool ownership: a retransmission entry snapshots the Packet by VALUE,
// so the in-flight packet recycles through the normal pipeline pools
// while the entry lives until acked. The snapshot's Payload pointer is
// only ever dereferenced at delivery, and sequence gating delivers each
// number exactly once, so a payload the protocol has already consumed
// (and possibly recycled) is never touched again through a stale entry.
//
// All of this is gated on ni.rel != nil, which is non-nil only when
// cfg.Faults.Enabled — with faults off, not one branch of this file
// runs and the event stream is byte-identical to the pre-faults code
// (see trace_golden_test.go).

import (
	"fmt"

	"genima/internal/sim"
	"genima/internal/stats"
	"genima/internal/topo"
)

// RelFlags bits.
const (
	relHasSeq uint8 = 1 << iota // packet carries a sequence number
	relHasAck                   // packet carries a cumulative ack
	relCtrl                     // standalone ack: consumed by firmware, never delivered
)

const (
	// relAckBytes is the wire size of a standalone cumulative ack.
	relAckBytes = 16
	// relMaxAttempts is a tripwire: a packet retransmitted this many
	// times means the fault plan or backoff logic livelocked.
	relMaxAttempts = 100
	// relRTOCeil bounds the uncapped exponential back-off purely for
	// arithmetic safety: ~9.7 virtual hours, beyond any run length but
	// far enough from the int64 horizon that now+rto cannot overflow.
	// It is not a behavioral cap — a flow that reaches it has long
	// since tripped relMaxAttempts.
	relRTOCeil = sim.Time(1) << 45
)

// retxEntry is one unacked packet in the sender's retransmission
// buffer (modeling the copy VMMC keeps in NI SRAM).
type retxEntry struct {
	pkt       Packet // value snapshot at sequence-stamp time
	firstSent sim.Time
	lastSent  sim.Time
	attempts  int
}

// relTimer is a rearmable virtual-time timer. It schedules through
// Engine.AtTimer, so its events sit on the engine's timer heap rather
// than the hot event heap: under a large flat barrier most flows have
// one pending, far in the future. The queue has no cancellation, so
// disarm/rearm work by deadline: a fired event whose deadline moved
// later reschedules itself, and a disarmed one (deadline 0) drains
// without effect. A timer can therefore fire slightly later than its
// nominal deadline after rapid rearming — harmless for retransmission
// and delayed-ack purposes — but never earlier, and never leaks: every
// queued event either fires or drains.
type relTimer struct {
	rel      *relState
	peer     int
	kind     uint8 // 0 = retransmission, 1 = delayed ack
	deadline sim.Time
	nextFire sim.Time
	queued   int
}

func (t *relTimer) arm(at sim.Time) {
	t.deadline = at
	if t.queued > 0 && t.nextFire <= at {
		return // an already-queued event covers this deadline
	}
	t.queued++
	t.nextFire = at
	t.rel.ni.eng.AtTimer(at, at, t)
}

func (t *relTimer) disarm() { t.deadline = 0 }

// Run implements sim.Handler.
func (t *relTimer) Run(_, now sim.Time) {
	t.queued--
	if t.deadline == 0 || now < t.deadline {
		if t.deadline != 0 && t.queued == 0 {
			t.queued++
			t.nextFire = t.deadline
			t.rel.ni.eng.AtTimer(t.deadline, t.deadline, t)
		}
		return
	}
	t.deadline = 0
	if t.kind == 0 {
		t.rel.retxFire(t.peer, now)
	} else {
		t.rel.ackFire(t.peer, now)
	}
}

// relFlow is the reliability state this NI keeps for one peer: the
// sender side of traffic TO the peer and the receiver side of traffic
// FROM it (cumulative acks for the latter piggyback on the former).
type relFlow struct {
	// Sender side (packets to the peer).
	nextSeq uint64       // last assigned; first packet gets 1
	pending []*retxEntry // unacked, in sequence order
	rto     sim.Time     // current timeout (exponential backoff)
	srtt    sim.Time     // EWMA round-trip estimate; 0 until first sample
	retx    relTimer

	// Receiver side (packets from the peer).
	recvd   uint64 // highest in-order sequence received = cumulative ack
	unacked int    // accepted deliveries not yet acked
	ackT    relTimer
}

// relState is one NI's reliable-delivery engine.
type relState struct {
	ni *NI
	// flows is indexed by peer id and filled on first contact (see
	// flow): a node exchanges packets with a handful of peers — tree
	// neighbours, the barrier master, page homes — so a dense table
	// of flows would be almost all untouched state at scale.
	flows    []*relFlow
	ackEvery int

	// Report counts what this NI's firmware did to mask faults (the
	// reliability fields of stats.FaultReport; injection fields are
	// counted by the fault plan itself).
	Report stats.FaultReport

	entFree sim.FreeList[*retxEntry]
}

func newRelState(ni *NI, ackEvery int) *relState {
	return &relState{ni: ni, flows: make([]*relFlow, len(ni.peers)), ackEvery: ackEvery}
}

// flow returns the flow to peer, creating it on first contact. Every
// caller runs on this NI's own logical process (send-firmware stamp,
// receive gate, its own timers), so creation needs no synchronization.
// A fresh flow is the zero flow, which is exactly what an untouched
// dense entry used to be.
func (r *relState) flow(peer int) *relFlow {
	f := r.flows[peer]
	if f == nil {
		f = &relFlow{}
		f.retx = relTimer{rel: r, peer: peer, kind: 0}
		f.ackT = relTimer{rel: r, peer: peer, kind: 1}
		r.flows[peer] = f
	}
	return f
}

// relService is the extra firmware occupancy reliable delivery charges
// per packet on each side (corruption check + seq/ack bookkeeping).
func (ni *NI) relService(size int) sim.Time {
	if ni.rel == nil {
		return 0
	}
	return ni.cfg.Costs.NIRelFixed + sim.Time(float64(size)*ni.cfg.Costs.NICsumPerByte)
}

// getEntry takes a retransmit entry from this NI's sim.FreeList,
// carving 16 at a time on a miss like the packet pool.
func (r *relState) getEntry() *retxEntry { return sim.Take(&r.entFree, 16, nil) }

func (r *relState) putEntry(e *retxEntry) {
	*e = retxEntry{}
	r.entFree.Push(e)
}

// notePiggyback records that an outgoing packet's cumulative ack also
// settles the receiver side's pending-ack obligation for this peer.
func (r *relState) notePiggyback(f *relFlow) {
	if f.unacked > 0 {
		r.Report.PiggybackAcks++
		f.unacked = 0
		f.ackT.disarm()
	}
}

// stamp assigns reliability headers when the send-firmware stage
// completes and the packet is about to enter the wire. Standalone acks
// get a fresh cumulative ack value; retransmissions (already carrying
// a sequence number) pass through untouched — retxFire restamped them;
// everything else gets the next per-destination sequence number, a
// piggybacked ack, and a retransmission entry.
//
// A broadcast template gets one entry per destination and carries no
// single Seq; its Csum accumulates any corruption injected on the
// shared out-link, and copyFor copies it into every per-destination
// copy, so shared-prefix corruption is detected at every destination.
// A template dropped or corrupted before the fan-out is recovered by
// per-destination unicast retransmissions from these entries.
func (r *relState) stamp(t *transit, now sim.Time) {
	pkt := t.pkt
	if pkt.RelFlags&relCtrl != 0 {
		pkt.Ack = r.flow(pkt.Dst).recvd
		return
	}
	if pkt.RelFlags&relHasSeq != 0 {
		return
	}
	pkt.RelFlags = relHasSeq | relHasAck
	if t.dsts == nil {
		e := r.track(r.flow(pkt.Dst), pkt, now)
		pkt.Seq, pkt.Ack = e.pkt.Seq, e.pkt.Ack
		return
	}
	for _, dst := range t.dsts {
		e := r.track(r.flow(dst), pkt, now)
		e.pkt.Dst = dst
		t.entries = append(t.entries, e)
	}
}

// track snapshots pkt into a new retransmission entry on flow f,
// numbered as the flow's next packet and carrying its cumulative ack,
// which settles the flow's pending-ack obligation.
func (r *relState) track(f *relFlow, pkt *Packet, now sim.Time) *retxEntry {
	f.nextSeq++
	e := r.getEntry()
	e.pkt = *pkt
	e.pkt.Seq, e.pkt.Ack = f.nextSeq, f.recvd
	r.notePiggyback(f)
	e.firstSent, e.lastSent = now, now
	e.attempts = 1
	r.addPending(f, e, now)
	return e
}

// baseRTO is the flow's adaptive initial timeout: twice the smoothed
// RTT (headroom for jitter and ack delay), floored at the static
// RetxTimeout while no sample exists or traffic is genuinely fast.
func (f *relFlow) baseRTO(c *topo.Costs) sim.Time {
	rto := 2 * f.srtt
	if rto < c.RetxTimeout {
		rto = c.RetxTimeout
	}
	return rto
}

func (r *relState) addPending(f *relFlow, e *retxEntry, now sim.Time) {
	f.pending = append(f.pending, e)
	if f.retx.deadline == 0 {
		f.rto = f.baseRTO(&r.ni.cfg.Costs)
		f.retx.arm(now + f.rto)
	}
}

// retxFire retransmits the whole unacked window to one peer
// (go-back-N: the receiver discarded everything after the hole, so the
// successors must travel again for the loss to heal in one round trip)
// from NI memory and backs the timeout off. The adaptive RTO is what
// makes the full-window resend safe at scale: the timer only fires
// when a round trip has genuinely been exceeded, not on a fixed
// schedule a congested barrier burst can never meet.
func (r *relState) retxFire(peer int, now sim.Time) {
	f := r.flow(peer)
	if len(f.pending) == 0 {
		return
	}
	ni := r.ni
	for _, e := range f.pending {
		e.attempts++
		if e.attempts > relMaxAttempts {
			panic(fmt.Sprintf("nic: packet %s %d->%d seq %d exceeded %d transmit attempts (pending %d, rto %dns, srtt %dns, firstSent %dns, now %dns)",
				e.pkt.Kind, e.pkt.Src, e.pkt.Dst, e.pkt.Seq, relMaxAttempts,
				len(f.pending), f.rto, f.srtt, e.firstSent, now))
		}
		e.lastSent = now
		r.Report.RetxSent++

		cp := ni.NewPacket()
		*cp = e.pkt
		cp.Ack = f.recvd   // refresh the piggybacked ack
		cp.FwSendExtra = 0 // data is already packed in NI memory
		ni.FirmwareSend(cp, false)
	}
	f.rto *= 2
	if f.rto > relRTOCeil {
		f.rto = relRTOCeil
	}
	f.retx.arm(now + f.rto)
}

// processAck retires pending entries covered by a cumulative ack from
// peer, resets the backoff on progress, and records recovery time for
// packets that needed retransmission.
func (r *relState) processAck(peer int, ack uint64, now sim.Time) {
	f := r.flow(peer)
	n := 0
	for n < len(f.pending) && f.pending[n].pkt.Seq <= ack {
		e := f.pending[n]
		if e.attempts > 1 {
			r.Report.Recovered++
			d := now - e.firstSent
			r.Report.TotalRecovery += d
			if d > r.Report.MaxRecovery {
				r.Report.MaxRecovery = d
			}
		}
		// RTT sample for the adaptive RTO; EWMA with gain 1/4. Only
		// never-retransmitted entries sample (Karn's rule: their
		// now-firstSent is an exact round trip, free of back-off
		// waits), except that a flow with no estimate yet bootstraps
		// from the last copy's round trip — see the package comment.
		if e.attempts == 1 {
			s := now - e.firstSent
			if f.srtt == 0 {
				f.srtt = s
			} else {
				f.srtt += (s - f.srtt) / 4
			}
		} else if f.srtt == 0 {
			f.srtt = now - e.lastSent
		}
		r.putEntry(e)
		n++
	}
	if n == 0 {
		return
	}
	m := copy(f.pending, f.pending[n:])
	for i := m; i < len(f.pending); i++ {
		f.pending[i] = nil
	}
	f.pending = f.pending[:m]
	f.rto = f.baseRTO(&r.ni.cfg.Costs)
	if m == 0 {
		f.retx.disarm()
	} else {
		f.retx.arm(now + f.rto)
	}
}

// receive is the receiver-side gate, run when the destination firmware
// stage completes and before the packet is delivered (host DMA or
// firmware handler). It returns true iff the packet should be
// delivered; false means the firmware consumed it (ack) or discarded
// it (corrupt, duplicate, out of order).
func (r *relState) receive(pkt *Packet, now sim.Time) bool {
	if pkt.Csum != 0 {
		// Corrupted in flight: indistinguishable from loss. The
		// header (including any ack) cannot be trusted, so nothing
		// else is processed; the sender's timer recovers.
		r.Report.CorruptDropped++
		return false
	}
	if pkt.RelFlags&relHasAck != 0 {
		r.processAck(pkt.Src, pkt.Ack, now)
	}
	if pkt.RelFlags&relCtrl != 0 {
		return false
	}
	f := r.flow(pkt.Src)
	switch {
	case pkt.Seq == f.recvd+1:
		f.recvd++
		f.unacked++
		if f.unacked >= r.ackEvery {
			r.sendAck(pkt.Src)
		} else {
			r.armAck(f, now)
		}
		return true
	case pkt.Seq <= f.recvd:
		r.Report.DupsSuppressed++
		r.sendAck(pkt.Src)
		return false
	default:
		r.Report.OOODropped++
		r.sendAck(pkt.Src)
		return false
	}
}

// sendAck emits a standalone cumulative ack to peer from NI memory.
func (r *relState) sendAck(peer int) {
	f := r.flow(peer)
	f.unacked = 0
	f.ackT.disarm()
	r.Report.AcksSent++
	ni := r.ni
	p := ni.NewPacket()
	p.Src, p.Dst, p.Size = ni.ID, peer, relAckBytes
	p.Kind = "rel-ack"
	p.RelFlags = relCtrl | relHasAck
	p.Ack = f.recvd
	ni.FirmwareSend(p, false)
}

// armAck starts the delayed-ack timer so sparse one-way traffic still
// gets acked within AckDelay even when no reverse packet or ackEvery
// threshold comes along.
func (r *relState) armAck(f *relFlow, now sim.Time) {
	if f.ackT.deadline != 0 {
		return
	}
	f.ackT.arm(now + r.ni.cfg.Costs.AckDelay)
}

func (r *relState) ackFire(peer int, _ sim.Time) {
	if r.flow(peer).unacked > 0 {
		r.sendAck(peer)
	}
}
