package nic

import (
	"genima/internal/sim"
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
// This is the only walk of a packet across the fabric: the network
// package reserves links and switches, and every route, hop, and
// broadcast fan-out is sequenced here.
type transit struct {
	ni        *NI // source NI: fabric, peer table, config
	pkt       *Packet
	stage     int8
	holdsSlot bool // release the post-queue slot when the source DMA ends

	// route is the packet's compiled switch path (aliases the topology's
	// flat table — never mutated) and hop the index of the switch whose
	// crossing is underway or just completed. On the single crossbar
	// every route is [0] and the pipeline is call-for-call identical to
	// the one-switch model.
	route []int16
	hop   int8

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
		if fl := t.ni.fab; fl != nil {
			// Node -> fabric LP crossing: the out-link is owned by the
			// source node, its completion runs on the fabric.
			t.ni.fabric.Out[pkt.Src].TransferCross(pkt.Size, t.eng, fl.eng, t)
			t.eng, t.pool = fl.eng, &fl.pool
		} else {
			t.ni.fabric.Out[pkt.Src].TransferHandler(pkt.Size, t)
		}

	case stOutLink:
		pkt.tInject = end
		if F := t.ni.fabric.Faults; F != nil {
			v := F.JudgeOut(pkt.Src, end)
			if v.Drop {
				t.recycle()
				return
			}
			// For a broadcast template Csum is zero here, so the mask
			// accumulates and fanOut folds it into every copy.
			pkt.Csum ^= v.CorruptMask
		}
		t.stage = stSwitch
		t.hop = 0
		if t.dsts != nil {
			// Broadcast template: traverse the source's first (leaf)
			// switch once; fanOut/parFanOut replicate from there.
			if fl := t.ni.fab; fl != nil {
				t.parFanOut(fl)
				return
			}
			t.ni.fabric.Switches[t.ni.fabric.Desc.FirstSwitch(pkt.Src)].RouteHandler(t)
			return
		}
		t.route = t.ni.fabric.Route(pkt.Src, pkt.Dst)
		t.enterSwitch()

	case stSwitch:
		if t.dsts != nil {
			t.fanOut()
			return
		}
		if int(t.hop)+1 < len(t.route) {
			// Multi-stage fabric: more switch hops before the
			// destination's in-link. Intermediate hops stay on the
			// fabric LP.
			t.hop++
			t.enterSwitch()
			return
		}
		t.stage = stInLink
		t.ni.fabric.In[pkt.Dst].TransferHandler(pkt.Size, t)

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
	sw := t.ni.fabric.Switches[t.route[t.hop]]
	if fl := t.ni.fab; fl != nil && int(t.hop) == len(t.route)-1 {
		de := t.ni.peers[t.pkt.Dst]
		sw.RouteCross(t.eng, de.eng, t)
		t.eng, t.pool = de.eng, &de.pool
		return
	}
	sw.RouteHandler(t)
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
// firmware. The copy shares the original's reliability header, so the
// receive gate suppresses whichever of the two arrives second.
func (t *transit) dupArrival() {
	pkt := t.pkt
	cp := t.pool.getPacket()
	cp.Src, cp.Dst, cp.Size, cp.Kind = pkt.Src, pkt.Dst, pkt.Size, pkt.Kind
	cp.Payload = pkt.Payload
	cp.Meta, cp.Meta2 = pkt.Meta, pkt.Meta2
	cp.FwHandler, cp.FwService = pkt.FwHandler, pkt.FwService
	cp.DeliverTo = pkt.DeliverTo
	cp.Seq, cp.Ack, cp.Csum, cp.RelFlags = pkt.Seq, pkt.Ack, pkt.Csum, pkt.RelFlags
	cp.tPost, cp.tSrc, cp.tInject = pkt.tPost, pkt.tSrc, pkt.tInject
	td := t.pool.getTransit()
	td.ni = t.ni
	td.pkt = cp
	td.stage = stInLink
	td.eng, td.pool = t.eng, t.pool
	t.ni.fabric.In[pkt.Dst].TransferHandler(cp.Size, td)
}

// fanOut replicates a broadcast template onto every destination (the
// template's first-switch stage just completed). Each destination gets
// its own pooled Packet copy and transit; a copy whose route has more
// switch hops continues at hop 1, a same-leaf copy goes straight to the
// destination's in-link (on the crossbar, every copy). The template is
// recycled here, so the caller's dsts slice is never retained past the
// switch stage.
func (t *transit) fanOut() {
	tmpl := t.pkt
	for i, dst := range t.dsts {
		td := t.copyFor(i, t.pool)
		td.eng, td.pool = t.eng, t.pool
		if route := t.ni.fabric.Route(tmpl.Src, dst); len(route) > 1 {
			td.stage = stSwitch
			td.route = route
			td.hop = 1
			t.ni.fabric.Switches[route[1]].RouteHandler(td)
			continue
		}
		td.stage = stInLink
		t.ni.fabric.In[dst].TransferHandler(td.pkt.Size, td)
	}
	t.recycle()
}

// copyFor builds the transit of the broadcast template's i-th
// per-destination copy, drawing the packet and transit from pool. The
// caller sets the copy's stage, route and owning LP.
func (t *transit) copyFor(i int, pool *pktPool) *transit {
	tmpl := t.pkt
	cp := pool.getPacket()
	cp.Src, cp.Dst, cp.Size, cp.Kind = tmpl.Src, t.dsts[i], tmpl.Size, tmpl.Kind
	cp.Payload = tmpl.Payload
	cp.Meta, cp.Meta2 = tmpl.Meta, tmpl.Meta2
	cp.DeliverTo = tmpl.DeliverTo
	cp.FwService = tmpl.FwService
	cp.tPost, cp.tSrc, cp.tInject = tmpl.tPost, tmpl.tSrc, tmpl.tInject
	if len(t.entries) > 0 {
		// Per-destination reliability header from the stamp-time
		// entry; tmpl.Csum carries corruption accumulated on the
		// shared prefix (zero otherwise).
		e := t.entries[i]
		cp.Seq, cp.Ack, cp.RelFlags = e.pkt.Seq, e.pkt.Ack, e.pkt.RelFlags
		cp.Csum = e.pkt.Csum ^ tmpl.Csum
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
	tmpl := t.pkt
	start, routeEnd := t.ni.fabric.Switches[t.ni.fabric.Desc.FirstSwitch(tmpl.Src)].Reserve()
	for i, dst := range t.dsts {
		td := t.copyFor(i, &fl.pool)
		td.stage = stSwitch
		td.route = t.ni.fabric.Route(tmpl.Src, dst)
		td.hop = 0
		if len(td.route) > 1 {
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

// getPacket draws from this NI's own pool (its LP's free lists).
func (ni *NI) getPacket() *Packet { return ni.pool.getPacket() }

// NewPacket hands callers a pooled Packet for a subsequent Post /
// FirmwareSend / PostBroadcast. The pipeline owns the
// packet once posted and recycles it after delivery, so callers must
// not retain or reuse it; fields are zeroed.
func (ni *NI) NewPacket() *Packet { return ni.getPacket() }

func (ni *NI) putPacket(p *Packet) { ni.pool.putPacket(p) }

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
