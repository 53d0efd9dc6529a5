package core

import (
	"slices"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/vmmc"
)

// Interval close and diff propagation.
//
// In Base/DW/DW+RF an interval closes lazily at the first incoming
// remote acquire (or at a barrier); diffs for the interval's dirty
// pages are then packed and sent to each page's home, where a host
// interrupt + the protocol process applies them. With DD (direct
// diffs), the interval closes eagerly at release and each contiguous
// run of modified words is deposited straight into the home copy as the
// diff is computed, followed by a version marker — no home processor
// involvement (which is why DD requires remote fetch with retry).

// diffMsg is the diff storage for one page: pooled, with the run list
// and the copied run bytes reused across flushes. On the packed (Base)
// path it travels whole and the home frees it after application; on the
// DD path the per-run deposits alias buf and the version marker (which
// per-pair FIFO delivers last) frees it.
type diffMsg struct {
	page int
	src  int
	seq  uint64
	runs []memory.Run
	buf  []byte // backing storage for the runs' data
}

func (d *diffMsg) wireSize() int {
	return diffMsgOverhead + memory.RunsBytes(d.runs) + runHeader*len(d.runs)
}

// runDep is one direct-diff run deposit (pooled, freed at delivery).
// Its run data aliases the owning flush's diffMsg buffer.
type runDep struct {
	owner *Node // origin node (Space access)
	pg    int
	run   memory.Run
}

// verMark is a direct-diff version marker (pooled, freed at delivery);
// it carries the diffMsg to release once all runs have landed.
type verMark struct {
	origin *Node
	home   *Node
	pg     int
	seq    uint64
	d      *diffMsg // nil when the flush had no twin (version-only)
}

// sgDep is a pooled scatter-gather diff deposit: its ApplySG hook runs
// in the home NI's firmware when the last fragment lands, replacing the
// per-flush closure.
type sgDep struct {
	origin *Node
	home   *Node
	pg     int
	src    int
	seq    uint64
	d      *diffMsg
}

// ApplySG implements vmmc.SGApplier (engine context, home NI firmware —
// the home's logical process, so the consumed records go to the home's
// LP pool).
func (m *sgDep) ApplySG() {
	memory.ApplyRuns(m.origin.sys.Space.HomeCopy(m.pg), m.d.runs)
	m.home.bumpVersion(m.pg, m.src, m.seq)
	m.home.pool.putDiff(m.d)
	m.home.pool.putSGDep(m)
}

// closeInterval closes the node's open write interval: computes diffs
// for dirty pages, propagates them to homes, logs the interval, and (in
// DW and later) eagerly broadcasts the write notice to every node. It
// returns the new interval, or nil if nothing was written.
//
// p is the process doing the work: an application processor at a
// release/barrier (DD, NIL, barriers) or the Base protocol process at
// an incoming acquire.
func (n *Node) closeInterval(p *sim.Proc) *interval {
	// Serialize interval closes within the node: two processors (e.g. a
	// lock release and a barrier leader, or the Base protocol process
	// granting a lock) must not close overlapping intervals, and write
	// notices must leave the node in sequence order.
	n.ivGate.Acquire(p)
	if len(n.dirtyList) == 0 {
		n.ivGate.Release()
		return nil
	}
	// Snapshot and reset the dirty set before any yield: writes during
	// the flush start a fresh interval.
	slices.Sort(n.dirtyList)
	for _, pg := range n.dirtyList {
		n.dirtySet[pg] = false
	}
	pages := n.dirtyList
	n.dirtyList = n.dirtyList[:0]
	iv := n.closePages(p, pages)
	n.ivGate.Release()
	return iv
}

// closePages closes one interval over pages, already taken out of the
// dirty set under ivGate: own sequence number, log entry, a flush of
// each page and (DW) the write notice. pages is copied before the
// first yield, so it may alias storage reused by writes in the flush.
func (n *Node) closePages(p *sim.Proc, pages []int32) *interval {
	seq := n.vc[n.ID] + 1
	n.vc[n.ID] = seq
	iv := n.newInterval(seq, len(pages))
	copy(iv.Pages, pages)
	n.recordInterval(iv)
	for _, pg32 := range iv.Pages {
		n.flushPage(p, int(pg32), seq)
	}
	if n.sys.Feat.DW {
		n.broadcastNotice(p, iv)
	}
	return iv
}

// flushPage diffs one dirty page against its twin and propagates the
// changes to the page's home.
func (n *Node) flushPage(p *sim.Proc, pg int, seq uint64) {
	c := &n.sys.Cfg.Costs
	home := n.sys.Space.Home(pg)

	// A later fetch of this page (if our copy gets invalidated by some
	// other writer's notice) must not return a home version predating
	// this flush, or we would lose our own writes: record the
	// requirement against ourselves too.
	if n.need.row(pg)[n.ID] < seq {
		n.need.writeRow(pg)[n.ID] = seq
	}

	if home == n.ID {
		// Home writes go directly to the home copy; only the version
		// advances (visible to fetchers immediately after).
		n.bumpVersion(pg, n.ID, seq)
		return
	}
	var d *diffMsg
	if n.Mem.HasTwin(pg) {
		// Word-by-word comparison of the page against its twin.
		p.Sleep(sim.Time(float64(n.sys.Cfg.PageSize) * c.DiffPerByte))
		n.Acct.DiffCompute += sim.Time(float64(n.sys.Cfg.PageSize) * c.DiffPerByte)
		d = n.pool.getDiff()
		d.page, d.src, d.seq = pg, n.ID, seq
		d.runs, d.buf = n.Mem.DiffCopy(pg, d.runs[:0], d.buf)
		n.Mem.DropTwin(pg)
		n.Acct.DiffBytes += uint64(memory.RunsBytes(d.runs))
	}
	// No twin: the page's modifications were already flushed (e.g. an
	// early flush when a notice invalidated a concurrently written
	// page); only the version needs to advance for this interval.

	if n.sys.Feat.DD {
		if d != nil && n.sys.Cfg.ScatterGather && len(d.runs) > 1 {
			// The scatter-gather extension (paper §3.3, not adopted
			// there): all runs travel as one gathered message that the
			// home NI scatters itself — one message instead of many, at
			// extra NI occupancy on both sides.
			sg := n.pool.getSGDep()
			sg.origin, sg.home, sg.pg, sg.src, sg.seq, sg.d = n, n.sys.Nodes[home], pg, n.ID, seq, d
			n.ep.DepositGatheredTo(p, home, d.wireSize(), "sg-diff", sg)
			return
		}
		// Direct diffs: one remote deposit per contiguous run, applied
		// into the home copy by the home NI, then a version marker that
		// releases the diff storage (FIFO: it lands after every run).
		if d != nil {
			for i := range d.runs {
				rd := n.pool.getRunDep()
				rd.owner, rd.pg, rd.run = n, pg, d.runs[i]
				n.ep.DepositTo(p, home, runHeader+len(rd.run.Data), "direct-diff", rd, runDepDel)
			}
		}
		n.sendVersionMarker(p, home, pg, seq, d)
		return
	}

	// Packed diff: single message, interrupt + protocol process applies
	// (sent even when empty so the home's version row advances under
	// protocol-process control and queued page requests are retried).
	if d == nil {
		d = n.pool.getDiff()
		d.page, d.src, d.seq = pg, n.ID, seq
	}
	n.ep.SendInterrupt(p, home, d.wireSize(), vmmc.MsgDiff, d)
}

// closePageEarly closes a one-page interval for a dirty page that is
// about to be invalidated by an incoming write notice (a concurrent
// writer on the same page). It is a full interval close — own sequence
// number, log entry, and (DW) write notice — so that waiters keyed to
// any other interval's sequence are not satisfied prematurely and other
// nodes still learn about the flushed writes.
func (n *Node) closePageEarly(p *sim.Proc, pg int) {
	n.ivGate.Acquire(p)
	if !n.dirtySet[pg] || !n.Mem.HasTwin(pg) {
		n.ivGate.Release()
		return // a concurrent close already flushed it
	}
	n.dirtySet[pg] = false
	for i, v := range n.dirtyList {
		if int(v) == pg {
			last := len(n.dirtyList) - 1
			n.dirtyList[i] = n.dirtyList[last]
			n.dirtyList = n.dirtyList[:last]
			break
		}
	}
	n.closePages(p, []int32{int32(pg)})
	n.ivGate.Release()
}

// sendVersionMarker deposits the "diffs for (pg, src, seq) are all
// ahead of this message" marker; per-pair FIFO ordering guarantees the
// run deposits land first. d (if any) is the diff storage the marker's
// delivery releases.
func (n *Node) sendVersionMarker(p *sim.Proc, home, pg int, seq uint64, d *diffMsg) {
	vm := n.pool.getVerMark()
	vm.origin, vm.home, vm.pg, vm.seq, vm.d = n, n.sys.Nodes[home], pg, seq, d
	n.ep.DepositTo(p, home, 16, "diff-done", vm, verMarkDel)
}

// applyPackedDiff applies a packed diff at the home (Base path,
// protocol process), then retries the page requests queued on it.
func (n *Node) applyPackedDiff(p *sim.Proc, d *diffMsg) {
	p.Sleep(sim.Time(float64(d.wireSize()) * n.sys.Cfg.Costs.HandlerPerByte))
	memory.ApplyRuns(n.sys.Space.HomeCopy(d.page), d.runs)
	page, src, seq := d.page, d.src, d.seq
	n.pool.putDiff(d) // consumed; free before the retry path yields
	n.bumpVersion(page, src, seq)
	n.retryPending(p, page)
}

// bumpVersion advances the applied-version row for a page homed here
// and wakes local accessors waiting on the home copy. Queued Base page
// requests are retried only after a packed diff (applyPackedDiff) —
// the sole context where they can become answerable.
func (n *Node) bumpVersion(pg, src int, seq uint64) {
	if n.homeVer.row(pg)[src] < seq {
		n.homeVer.writeRow(pg)[src] = seq
	}
	n.homeWaitQ[pg].WakeAll()
}

// broadcastNotice eagerly deposits the interval's write notice into
// every other node's protocol data structures (the DW mechanism). With
// the NI-broadcast extension (paper §5), the host posts once and the
// fabric replicates.
func (n *Node) broadcastNotice(p *sim.Proc, iv *interval) {
	if n.sys.tree {
		// NI-firmware tree broadcast. Once collectives are on, EVERY
		// notice from every source takes the tree, regardless of size
		// (large intervals are fragmented inside the collective layer):
		// the arrival counters in depositNotice require per-source FIFO
		// order, which holds within the flat resource chain and within a
		// source's fixed tree, but not across a mix of the two.
		n.ep.NI().ColBroadcast(p, iv.wireSize(), "notice", iv, &n.sys.noticeDel)
		return
	}
	if n.sys.Cfg.NIBroadcast && iv.wireSize() <= n.sys.Cfg.MaxPacket {
		n.ep.DepositBroadcastTo(p, iv.wireSize(), "notice", iv, &n.sys.noticeDel)
		return
	}
	for dst := 0; dst < n.sys.Cfg.Nodes; dst++ {
		if dst == n.ID {
			continue
		}
		n.ep.DepositTo(p, dst, iv.wireSize(), "notice", iv, &n.sys.noticeDel)
	}
}

// depositNotice records an eagerly deposited write notice (engine
// context, NI deposit: no host time).
func (n *Node) depositNotice(iv *interval) {
	n.recordInterval(iv)
	// Per-pair FIFO delivery means notices from one source arrive in
	// seq order, so the arrival counter equals the highest arrived seq.
	n.arrivedFrom(iv.Src).Add(1)
}

// waitNotices blocks until every source's notices up to target have
// been deposited locally (the protocol "flags" of §2). A zero target
// is met by any counter, so it neither waits nor creates one.
func (n *Node) waitNotices(p *sim.Proc, target []uint64) {
	for src, want := range target {
		if src == n.ID || want == 0 {
			continue
		}
		n.arrivedFrom(src).WaitFor(p, want)
	}
}

// applyUpTo applies invalidations for all logged intervals with
// seq <= target[src] that this node has not yet applied, batching the
// mprotect cost. Dirty pages being invalidated are flushed first
// (concurrent-writer case). Returns the mprotect time charged.
func (n *Node) applyUpTo(p *sim.Proc, target []uint64) sim.Time {
	invalidate := n.pool.getInv()
	for src := range target {
		if src == n.ID {
			continue
		}
		for seq := n.vc[src] + 1; seq <= target[src]; seq++ {
			iv := n.loggedInterval(src, seq)
			if iv == nil {
				panic("core: applying unknown interval")
			}
			// Flush concurrent local modifications before invalidating
			// (skipped when the copy-version check will keep the copy
			// valid anyway).
			for _, pg32 := range iv.Pages {
				pg := int(pg32)
				if n.copyVerSet[pg] && n.copyVer.row(pg)[iv.Src] >= seq {
					continue
				}
				if n.dirtySet[pg] && n.sys.Space.Home(pg) != n.ID && n.Mem.HasTwin(pg) {
					n.closePageEarly(p, pg)
				}
			}
			n.applyIntervalMeta(iv, &invalidate)
		}
	}
	if len(invalidate) == 0 {
		n.pool.inv.Push(invalidate)
		return 0
	}
	c := &n.sys.Cfg.Costs
	cost, calls := memory.MprotectCost(invalidate, c.MprotectBase, c.MprotectPerPage)
	n.mprotect(p, cost, calls)
	n.pool.inv.Push(invalidate)
	return cost
}

// mprotect charges p for calls protection changes that take cost in
// all.
func (n *Node) mprotect(p *sim.Proc, cost sim.Time, calls int) {
	p.Sleep(cost)
	n.Acct.Mprotect += cost
	n.Acct.MprotectOps += uint64(calls)
}
