package nic

import (
	"genima/internal/sim"
	"genima/internal/topo"
)

// transit is the pooled state machine that carries one packet through
// the seven-stage send/route/receive pipeline:
//
//	src PCI -> src firmware -> out-link -> switch -> in-link
//	        -> dst firmware -> dst PCI
//
// Each stage completion is scheduled on the owning sim.Resource via
// EnqueueHandler, so advancing a packet costs zero heap allocations:
// the transit record itself is the sim.Handler, and its stage counter
// says which boundary just completed. A broadcast uses one template
// transit for the shared prefix (PCI, firmware, out-link, switch) and
// fans out per-destination transits at the switch, each carrying its
// own pooled Packet copy.
//
// This is the only walk of a packet across the fabric (fabric.go): it
// reserves every link and switch resource itself, with the link's
// linkService or the switch's SwitchFixed, and sequences every route,
// hop, and broadcast fan-out here. A packet's route is computed once,
// by the topology's routing rule, into the transit's own array.
type transit struct {
	ni        *NI // source NI: fabric, peer table, config
	pkt       *Packet
	stage     int8
	holdsSlot bool // release the post-queue slot when the source DMA ends

	// route holds the packet's switch path in its first hops entries,
	// filled once when the packet reaches the fabric, and hop is the
	// index of the switch whose crossing is underway or just completed.
	// On the single crossbar every route is [0] and the pipeline is
	// call-for-call identical to the one-switch model.
	route     [topo.MaxRoute]int16
	hops, hop int8

	// eng is the logical process currently carrying the packet and pool
	// the free lists owned by that LP (the transit and packet recycle
	// into the pool of the LP they finish on). Both start at the source
	// NI and are advanced at the two LP-crossing boundaries — out-link
	// completion (node -> fabric) and switch completion (fabric ->
	// destination node). In a serial run they never change, so recycling
	// stays at the origin NI exactly as before.
	eng  *sim.Engine
	pool *pktPool

	// Broadcast template's destination set (nil on unicast and
	// per-destination copies).
	dsts []int

	// Broadcast retransmission entries, parallel to dsts, filled at
	// sequence-stamp time when reliable delivery is on (reliable.go).
	// The slice's capacity survives pooling so steady-state broadcasts
	// allocate nothing.
	entries []*retxEntry
}

// Stage values: the boundary that just completed when Run is invoked.
const (
	stSrcPCI  int8 = iota // source DMA into NI memory done
	stSrcFW               // send-side firmware done -> enter the network
	stOutLink             // last byte on the out-link (the inject point)
	stSwitch              // crossbar arbitration done
	stInLink              // last byte at the receiving NI
	stDstFW               // receive-side firmware done
	stDstPCI              // deposit DMA into destination host memory done

	// stFaultDelay holds a packet the fault plan chose to reorder-delay
	// after its in-link crossing; only reachable with faults enabled.
	stFaultDelay
)

// start begins the pipeline at the source DMA stage.
func (t *transit) start() {
	t.stage = stSrcPCI
	t.ni.PCI.EnqueueHandler(t.ni.pciService(t.pkt.Size), t)
}

// startAtFirmware begins the pipeline at the send-firmware stage, for
// firmware-originated packets whose data already lives in NI memory.
func (t *transit) startAtFirmware() {
	t.stage = stSrcFW
	t.ni.Firmware.EnqueueHandler(t.ni.fwSendService(t.pkt.Size)+t.pkt.FwSendExtra, t)
}

// Run advances the packet one stage. It implements sim.Handler; end is
// the current virtual time (the completed reservation's end).
func (t *transit) Run(_, end sim.Time) {
	pkt := t.pkt
	switch t.stage {
	case stSrcPCI:
		if t.holdsSlot {
			t.ni.PostQueue.Release()
		}
		pkt.tSrc = end
		t.stage = stSrcFW
		t.ni.Firmware.EnqueueHandler(t.ni.fwSendService(pkt.Size)+pkt.FwSendExtra, t)

	case stSrcFW:
		if r := t.ni.rel; r != nil {
			// Sequence numbers are assigned here, at network entry:
			// the firmware resource is FIFO, so per-flow sequence
			// order always equals wire order.
			r.stamp(t, end)
		}
		t.stage = stOutLink
		fab := t.ni.fabric
		if fl := t.ni.fab; fl != nil {
			// Node -> fabric LP crossing: the out-link is owned by the
			// source node, its completion runs on the fabric.
			fab.Out[pkt.Src].EnqueueHandlerCross(t.eng, fl.eng, fab.linkService(pkt.Size), t)
			t.eng, t.pool = fl.eng, &fl.pool
		} else {
			fab.Out[pkt.Src].EnqueueHandler(fab.linkService(pkt.Size), t)
		}

	case stOutLink:
		pkt.tInject = end
		if F := t.ni.fabric.Faults; F != nil {
			v := F.JudgeOut(pkt.Src, end)
			if v.Drop {
				t.recycle()
				return
			}
			// A broadcast template's mask reaches every copy
			// (copyFor copies the template by value).
			pkt.Csum ^= v.CorruptMask
		}
		t.stage = stSwitch
		if t.dsts != nil {
			// Broadcast template: traverse the source's first (leaf)
			// switch once; fanOut/parFanOut replicate from there.
			if fl := t.ni.fab; fl != nil {
				t.parFanOut(fl)
				return
			}
			fab := t.ni.fabric
			fab.Switches[fab.Desc.FirstSwitch(pkt.Src)].EnqueueHandler(fab.costs.SwitchFixed, t)
			return
		}
		t.hops = int8(t.ni.fabric.Desc.Route(pkt.Src, pkt.Dst, &t.route))
		t.enterSwitch()

	case stSwitch:
		if t.dsts != nil {
			t.fanOut()
			return
		}
		if t.hop+1 < t.hops {
			// Multi-stage fabric: more switch hops before the
			// destination's in-link. Intermediate hops stay on the
			// fabric LP.
			t.hop++
			t.enterSwitch()
			return
		}
		t.stage = stInLink
		t.ni.fabric.In[pkt.Dst].EnqueueHandler(t.ni.fabric.linkService(pkt.Size), t)

	case stInLink:
		pkt.tArrive = end
		if F := t.ni.fabric.Faults; F != nil {
			v := F.JudgeIn(pkt.Dst, end)
			if v.Drop {
				t.recycle()
				return
			}
			pkt.Csum ^= v.CorruptMask
			if v.Dup {
				t.dupArrival()
			}
			if v.Delay > 0 {
				t.stage = stFaultDelay
				t.eng.AtHandler(end+v.Delay, end, t)
				return
			}
		}
		t.toDstFirmware()

	case stFaultDelay:
		t.toDstFirmware()

	case stDstFW:
		dst := t.ni.peers[pkt.Dst]
		if r := dst.rel; r != nil && !r.receive(pkt, end) {
			// Consumed (ack) or discarded (corrupt/dup/out-of-order)
			// by the receive firmware: never delivered, never seen by
			// the monitor.
			t.recycle()
			return
		}
		if pkt.FwHandler != nil {
			pkt.tDone = end
			dst.mon.record(dst, pkt)
			pkt.FwHandler(dst, pkt)
			t.recycle()
			return
		}
		t.stage = stDstPCI
		dst.PCI.EnqueueHandler(dst.pciService(pkt.Size), t)

	case stDstPCI:
		dst := t.ni.peers[pkt.Dst]
		pkt.tDone = end
		dst.mon.record(dst, pkt)
		if pkt.DeliverTo != nil {
			pkt.DeliverTo.Deliver(pkt)
		}
		t.recycle()
	}
}

// enterSwitch reserves the route's hop-indexed switch. The final hop's
// completion is the fabric -> destination-LP crossing in a parallel
// run (the switch is owned by the fabric, its completion runs at the
// destination); intermediate hops complete fabric-locally.
func (t *transit) enterSwitch() {
	fab := t.ni.fabric
	sw := fab.Switches[t.route[t.hop]]
	if t.ni.fab != nil && t.hop == t.hops-1 {
		de := t.ni.peers[t.pkt.Dst]
		sw.EnqueueHandlerCross(t.eng, de.eng, fab.costs.SwitchFixed, t)
		t.eng, t.pool = de.eng, &de.pool
		return
	}
	sw.EnqueueHandler(fab.costs.SwitchFixed, t)
}

// toDstFirmware enqueues the arrived packet on the destination NI's
// firmware processor (factored out of Run so the fault-delay stage can
// share it).
func (t *transit) toDstFirmware() {
	pkt := t.pkt
	t.stage = stDstFW
	dst := t.ni.peers[pkt.Dst]
	dst.Firmware.EnqueueHandler(dst.fwRecvService(pkt.Size)+pkt.FwService, t)
}

// dupArrival models link-level duplication: a second copy of the packet
// crosses the in-link again and presents itself to the destination
// firmware. The copy is the whole packet, reliability header and
// origin included, so the receive gate suppresses whichever of the two
// arrives second and the monitor sees the same packet either way.
func (t *transit) dupArrival() {
	pkt := t.pkt
	cp := t.pool.getPacket()
	*cp = *pkt
	td := t.pool.getTransit()
	td.ni = t.ni
	td.pkt = cp
	td.stage = stInLink
	td.eng, td.pool = t.eng, t.pool
	t.ni.fabric.In[pkt.Dst].EnqueueHandler(t.ni.fabric.linkService(cp.Size), td)
}

// fanOut replicates a broadcast template onto every destination (the
// template's first-switch stage just completed). Each destination gets
// its own pooled Packet copy and transit; a copy whose route has more
// switch hops continues at hop 1, a same-leaf copy goes straight to the
// destination's in-link (on the crossbar, every copy). The template is
// recycled here, so the caller's dsts slice is never retained past the
// switch stage.
func (t *transit) fanOut() {
	fab := t.ni.fabric
	for i, dst := range t.dsts {
		td := t.copyFor(i, t.pool)
		td.eng, td.pool = t.eng, t.pool
		if td.hops = int8(fab.Desc.Route(t.pkt.Src, dst, &td.route)); td.hops > 1 {
			td.stage = stSwitch
			td.hop = 1
			fab.Switches[td.route[1]].EnqueueHandler(fab.costs.SwitchFixed, td)
			continue
		}
		td.stage = stInLink
		fab.In[dst].EnqueueHandler(fab.linkService(td.pkt.Size), td)
	}
	t.recycle()
}

// copyFor builds the transit of the broadcast template's i-th
// per-destination copy, drawing the packet and transit from pool. The
// copy is the template by value (its Csum carries any corruption from
// the shared prefix) with its own destination and, under reliable
// delivery, the stamp-time entry's header. The caller sets the copy's
// stage, route and owning LP.
func (t *transit) copyFor(i int, pool *pktPool) *transit {
	cp := pool.getPacket()
	*cp = *t.pkt
	cp.Dst = t.dsts[i]
	if len(t.entries) > 0 {
		e := t.entries[i]
		cp.Seq, cp.Ack, cp.RelFlags = e.pkt.Seq, e.pkt.Ack, e.pkt.RelFlags
	}
	td := pool.getTransit()
	td.ni = t.ni
	td.pkt = cp
	return td
}

// parFanOut is the parallel run's broadcast fan-out, executed on the
// fabric LP when the template's out-link crossing completes. The serial
// engine routes the template through the switch once and replicates it
// onto every in-link in a single switch-completion event; here the
// in-links are owned by the destination LPs, so the fabric reserves the
// switch occupancy itself and sends each destination its own pooled
// copy as a switch-completion (stSwitch) event at the routing end time.
// Each copy then reserves its in-link at the destination at exactly the
// time the serial fan-out would have, and the per-destination events
// inherit consecutive action indices of the same out-link event that
// keyed the serial switch event, so the global event order is
// preserved. One serial event became len(dsts) events; the count
// adjustment keeps reported totals identical.
func (t *transit) parFanOut(fl *fabLP) {
	fab := t.ni.fabric
	start, routeEnd := fab.Switches[fab.Desc.FirstSwitch(t.pkt.Src)].Reserve(fab.costs.SwitchFixed)
	for i, dst := range t.dsts {
		td := t.copyFor(i, &fl.pool)
		td.stage = stSwitch
		td.hops = int8(fab.Desc.Route(t.pkt.Src, dst, &td.route))
		if td.hops > 1 {
			// The copy has more switch hops: it stays on the fabric LP
			// (which owns every switch) and crosses to the destination
			// at its final hop, like a unicast would.
			td.eng, td.pool = fl.eng, &fl.pool
			t.eng.AtHandler(routeEnd, start, td)
			continue
		}
		de := t.ni.peers[dst]
		td.eng, td.pool = de.eng, &de.pool
		t.eng.Send(de.eng, routeEnd, start, td)
	}
	t.eng.AdjustEventCount(1 - int64(len(t.dsts)))
	t.recycle()
}

// pktPool holds one logical process's packet and transit free lists.
// Each pool is touched only by its owning LP (or by the single-threaded
// barrier), so sim.FreeList's plain LIFO keeps reuse order
// deterministic run to run with no locks. A miss carves 16 records at
// once, so a growing in-flight window costs one allocation per 16
// packets, not one per packet.
type pktPool struct {
	pktFree sim.FreeList[*Packet]
	trFree  sim.FreeList[*transit]
}

// getPacket returns a zeroed Packet from the free list, or a fresh one.
func (pl *pktPool) getPacket() *Packet { return sim.Take(&pl.pktFree, 16, nil) }

func (pl *pktPool) putPacket(p *Packet) {
	*p = Packet{} // drop payload/handler references before pooling
	pl.pktFree.Push(p)
}

func (pl *pktPool) getTransit() *transit { return sim.Take(&pl.trFree, 16, nil) }

func (pl *pktPool) putTransit(t *transit) {
	ents := t.entries
	for i := range ents {
		ents[i] = nil // entries are owned by the rel layer until acked
	}
	*t = transit{}
	t.entries = ents[:0]
	pl.trFree.Push(t)
}

// NewPacket hands callers a pooled Packet for a subsequent Post /
// FirmwareSend / PostBroadcast. The pipeline owns the
// packet once posted and recycles it after delivery, so callers must
// not retain or reuse it; fields are zeroed. It draws from this NI's
// own pool (its LP's free lists).
func (ni *NI) NewPacket() *Packet { return ni.pool.getPacket() }

// recycle returns a finished transit and its packet to the pool of the
// LP it finished on (in a serial run, always the origin NI's pool).
func (t *transit) recycle() {
	pl := t.pool
	pl.putPacket(t.pkt)
	pl.putTransit(t)
}

// newTransit builds a transit for pkt originating at this NI.
func (ni *NI) newTransit(pkt *Packet) *transit {
	t := ni.pool.getTransit()
	t.ni = ni
	t.pkt = pkt
	t.eng = ni.eng
	t.pool = &ni.pool
	return t
}
