package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Conservative parallel discrete-event execution (intra-run parallelism).
//
// A Cluster partitions one simulation into logical processes (LPs):
// shard LPs, each owning a contiguous block of simulated nodes, plus
// one LP for the network fabric. Each LP is a full Engine — its own
// typed 4-ary heap, clock, and Handler dispatch — and LPs exchange
// timestamped events only through Engine.Send, never by scheduling
// into each other's heaps directly. Sharding (NewCluster's shards
// argument; a run uses one shard per worker) is what makes big runs
// cheap: traffic between nodes of the same shard never crosses an LP
// boundary, and every per-round cost (horizon computation, barrier
// merge, key rewrite) scales with the number of shards, not the number
// of nodes.
//
// # One horizon, one commit
//
// Synchronization is barrier-window conservative PDES. Every round
// each LP executes its events below the horizon
//
//	H = min over non-empty LPs (peek + lookahead)
//
// in parallel, with no rollback. Lookaheads come from the topology's
// fixed costs: a shard LP cannot affect another LP sooner than nodeLA
// (the fixed cost of an outbound link) after its current event, the
// fabric LP not sooner than fabricLA (the fixed switch cost). An event
// an LP executes this round is at or after that LP's peek, so every
// cross-LP send it makes lands at or above H: nothing another LP could
// still receive falls below the horizon, and every send of the round
// is deliverable once the round ends. The barrier therefore commits
// the whole round — it orders every executed event, replays every
// deferred side effect, and delivers every outbox message — and no
// state survives it but the heaps. Every lookahead is positive
// (NewCluster panics otherwise), so H lies above the earliest peek and
// the LP holding that event always runs it: a round cannot stall.
//
// # Determinism
//
// The serial engine orders same-time events by a global scheduling
// sequence number; the parallel engine must reproduce that order
// exactly (byte-identical traces) for ANY (workers, shards) choice,
// without a shared counter on the hot path. The event `seq` word is
// reused as a structured key:
//
//	setup key        [1, 2^44)           shared counter, pre-Run only
//	resolved key     ord<<20 | act       ord >= 2^24, act in [0, 2^20)
//	provisional key  1<<63 | pos<<20 | act
//
// where `ord` is the global execution ordinal of the event's parent
// (the event that scheduled it), `act` counts the parent's scheduling
// actions (local and cross-LP through one shared counter, so child
// order equals call order equals serial order), and `pos` is the
// parent's position in its LP's log of the current round. Ordering by
// (time, parent ordinal, action index) is order-isomorphic to the
// serial (time, seq) order. Node-to-LP mapping cannot change any key:
// an intra-shard Send takes the same action index the outbox path
// would have, and position order within an LP is execution order.
//
// A provisional key sorts after every resolved one, which is right:
// its parent runs in the current round, after every event that has an
// ordinal. The barrier K-way merges the round logs by (time, key),
// resolving provisional keys on the fly (a parent always merges no
// later than its children: child time >= parent time, and within an
// LP the log is execution-ordered), replays deferred work in ordinal
// order, rewrites every provisional key left in the round's heaps —
// pairwise order-preserving, since ordinals are monotone in position
// and above every earlier key, so heaps need no re-heapify — and only
// then delivers the outboxes with resolved keys. Round logs, ordinal
// arrays, merge cursors, outboxes, and the round list all reuse pooled
// backing storage: the steady-state barrier path is allocation-free. A
// run has at most workers+1 LPs, so the round is chosen by a linear
// scan.
//
// # Lone mode and failure
//
// When exactly one LP has pending events, the cluster drops into lone
// mode: that LP executes directly on the caller's goroutine, ordinals
// are assigned as events pop, children get resolved keys immediately,
// and deferred work runs inline — no logs, merges, or rewrites, and
// the worker pool is not woken. A cross-LP send ends lone mode after
// the current event. Quiescent phases (one shard computing, barrier
// stragglers) therefore run at near-serial speed regardless of cluster
// size.
//
// A panic inside an LP's window is caught on the executing worker,
// recorded (first one wins), and re-raised from Run on the caller's
// goroutine with the failing LP identified — the round WaitGroup is
// always released, so a crashing handler surfaces as a panic, not a
// deadlock.
const (
	actBits  = 20
	actMask  = uint64(1)<<actBits - 1
	posMask  = uint64(1)<<43 - 1 // pos field of a provisional key (bits 20..62)
	provBit  = uint64(1) << 63
	firstOrd = uint64(1) << 24
	maxSetup = firstOrd << actBits
)

// horizonInf is the "no constraint" horizon; far above any simulated
// timestamp, with headroom so adding a lookahead cannot overflow.
const horizonInf = Time(1) << 62

// logRec records one executed event: its timestamp and the key it was
// popped with (possibly still provisional).
type logRec struct {
	at  Time
	key uint64
}

// crossMsg is an event addressed to another LP, parked in the sender's
// outbox until the barrier resolves its key and delivers it.
type crossMsg struct {
	to    *Engine
	at    Time
	start Time
	key   uint64
	h     Handler
}

// deferRec is a unit of work postponed to the barrier (see
// Engine.DeferFlush): pos is the round-log position of the deferring
// event, so the barrier can replay defers in global ordinal order.
type deferRec struct {
	pos uint64
	at  Time
	h   Handler
}

// Cluster couples the LP engines of one parallel run. Construct with
// NewCluster, wire the simulation against Main() (per-LP engines are
// reached through Engine.LPNode/LPFabric), then call Run.
type Cluster struct {
	all    []*Engine // shard LPs 0..S-1, fabric at index S
	fabric *Engine
	nodeLP []int32 // node id -> shard LP index

	workers int
	exec    bool // Run is active: keys are provisional/resolved, not setup

	// Lone mode: the single non-empty LP currently executing, and
	// whether its current event has sent cross-LP (which ends the run).
	lone        *Engine
	loneCrossed bool

	setupSeq uint64 // shared pre-Run scheduling counter
	nextOrd  uint64 // next global execution ordinal

	h      Time      // this round's horizon
	round  []*Engine // LPs executing this round
	heads  []int     // merge cursors, one per round LP
	dheads []int     // defer-replay cursors

	// Introspection (tests, bench): counters of executed round kinds.
	loneRounds  uint64 // lone-mode runs
	parRounds   uint64 // parallel (window+barrier) rounds
	workerWakes uint64 // worker-pool channel signals sent

	stop bool // Stop was called: Run returns at the next round boundary

	workerCh []chan struct{}
	wg       sync.WaitGroup
	widx     int32

	panicMu    sync.Mutex
	panicVal   any
	panicLP    int
	panicStack []byte
}

// NewCluster builds shards+1 LP engines — nodes are block-partitioned
// onto `shards` shard LPs, plus one fabric LP — executed by up to
// `workers` OS threads. nodeLA and fabricLA are the lookahead bounds:
// the minimum virtual-time delta between an event on a shard (resp.
// fabric) LP and anything it schedules cross-LP. Callers derive them
// from the topology's fixed link and switch costs; they must be
// positive or conservative synchronization cannot make progress.
// shards is clamped to [1, nodes]; the event trace is byte-identical
// for every choice.
func NewCluster(nodes, shards, workers int, nodeLA, fabricLA Time) *Cluster {
	if nodes < 1 {
		panic("sim: NewCluster needs at least one node")
	}
	if nodeLA <= 0 || fabricLA <= 0 {
		panic("sim: NewCluster needs positive lookahead")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	if workers < 1 {
		workers = 1
	}
	cl := &Cluster{workers: workers, nextOrd: firstOrd}
	cl.all = make([]*Engine, shards+1)
	for i := range cl.all {
		e := NewEngine()
		e.cl = cl
		e.lp = i
		e.la = nodeLA
		cl.all[i] = e
	}
	cl.fabric = cl.all[shards]
	cl.fabric.la = fabricLA
	per := (nodes + shards - 1) / shards
	cl.nodeLP = make([]int32, nodes)
	for i := range cl.nodeLP {
		cl.nodeLP[i] = int32(i / per)
	}
	cl.round = make([]*Engine, 0, shards+1)
	cl.heads = make([]int, 0, shards+1)
	cl.dheads = make([]int, 0, shards+1)
	return cl
}

// Stop makes Run return at the next round boundary (or at the end of
// the current lone run). It must be called from simulation context on
// the Run goroutine — an event handler, a deferred flush, or a barrier
// callback — never from another OS thread. The cluster's state stays
// consistent; the run simply does not finish.
func (cl *Cluster) Stop() { cl.stop = true }

// Shards returns the number of shard LPs (excluding the fabric LP).
func (cl *Cluster) Shards() int { return len(cl.all) - 1 }

// Main returns the LP of node 0, the engine a parallel run is wired
// against: construction code holds it and reaches sibling LPs through
// LPNode/LPFabric (which on a standalone engine return the engine
// itself, so serial construction paths are unchanged).
func (cl *Cluster) Main() *Engine { return cl.all[0] }

// Now returns the cluster's virtual time: the clock of the LP that has
// advanced furthest (the time of the last event executed anywhere).
func (cl *Cluster) Now() Time {
	var t Time
	for _, e := range cl.all {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Events returns the total number of events executed, corrected by the
// per-LP count adjustments (see Engine.AdjustEventCount) so the total
// matches the serial engine's count event-for-event.
func (cl *Cluster) Events() uint64 {
	var n int64
	for _, e := range cl.all {
		n += int64(e.nEvents) + e.countAdj
	}
	return uint64(n)
}

// Run executes the simulation to quiescence: lone mode while a single
// LP has events, otherwise rounds of barrier-window parallel execution
// below the horizon, done when no LP has events left. It must be
// called exactly once, after setup.
func (cl *Cluster) Run() {
	cl.exec = true
	for !cl.stop {
		h, nonEmpty := horizonInf, 0
		var last *Engine
		for _, e := range cl.all {
			if e.events.len() == 0 {
				continue
			}
			nonEmpty++
			last = e
			if t := e.events.peek().at + e.la; t < h {
				h = t
			}
		}
		if nonEmpty == 0 {
			break
		}
		if nonEmpty == 1 {
			// Lone fast path: sound only when every other LP is
			// completely empty, since runLone has no horizon and
			// assigns ordinals as events pop.
			cl.loneRounds++
			last.runLone()
			continue
		}
		cl.h = h
		round := cl.round[:0]
		for _, e := range cl.all {
			if e.events.len() > 0 && e.events.peek().at < h {
				round = append(round, e)
			}
		}
		cl.round = round
		cl.parRounds++
		cl.runRound()
		cl.barrier()
	}
	cl.shutdown()
}

// shutdown releases the worker pool.
func (cl *Cluster) shutdown() {
	cl.exec = false
	for _, ch := range cl.workerCh {
		close(ch)
	}
	cl.workerCh = nil
}

// runRound executes every round LP's events below the horizon,
// fanning the LPs out over the worker pool. Workers are persistent
// goroutines spawned lazily; the calling goroutine participates as one
// of them, and single-LP rounds wake no workers at all. LP indices are
// claimed via an atomic cursor, so the assignment of LPs to threads is
// load-balanced and — because each LP runs single-threaded and the
// barrier is serial — has no effect on the simulation's result.
func (cl *Cluster) runRound() {
	nw := cl.workers
	if nw > len(cl.round) {
		nw = len(cl.round)
	}
	atomic.StoreInt32(&cl.widx, 0)
	for len(cl.workerCh) < nw-1 {
		ch := make(chan struct{}, 1)
		cl.workerCh = append(cl.workerCh, ch)
		go cl.workerLoop(ch)
	}
	cl.wg.Add(nw - 1)
	for i := 0; i < nw-1; i++ {
		cl.workerWakes++
		cl.workerCh[i] <- struct{}{}
	}
	cl.drain()
	cl.wg.Wait()
	if cl.panicVal != nil {
		// Surface a worker's panic from Run with the LP identified;
		// the pool is shut down first so the goroutines don't leak.
		name := fmt.Sprintf("shard LP %d", cl.panicLP)
		if cl.panicLP == len(cl.all)-1 {
			name = "fabric LP"
		}
		cl.shutdown()
		panic(fmt.Sprintf("sim: %s panicked during a parallel round: %v\n%s", name, cl.panicVal, cl.panicStack))
	}
}

func (cl *Cluster) workerLoop(ch chan struct{}) {
	for range ch {
		cl.drain()
		cl.wg.Done()
	}
}

// drain claims unexecuted LPs of the current round until none remain.
func (cl *Cluster) drain() {
	for {
		i := int(atomic.AddInt32(&cl.widx, 1)) - 1
		if i >= len(cl.round) {
			return
		}
		cl.runLP(cl.round[i])
	}
}

// runLP runs one LP's window, converting a handler panic into a
// recorded failure (first one wins) so the round barrier is never
// deadlocked by a missing wg.Done.
func (cl *Cluster) runLP(e *Engine) {
	defer func() {
		if r := recover(); r != nil {
			cl.panicMu.Lock()
			if cl.panicVal == nil {
				cl.panicVal, cl.panicLP, cl.panicStack = r, e.lp, debug.Stack()
			}
			cl.panicMu.Unlock()
		}
	}()
	e.runWindow(cl.h)
}

// barrier globally orders the round's execution and releases its
// cross-LP effects. It runs single-threaded on the Run goroutine.
func (cl *Cluster) barrier() {
	lps := cl.round

	// 1. Assign global ordinals: K-way merge of the round logs by
	// (time, key), resolving provisional keys against ordinals already
	// assigned in this merge (a parent always merges before its
	// children; keys from earlier rounds are already resolved).
	cur := cl.heads[:0]
	for _, e := range lps {
		cur = append(cur, 0)
		if cap(e.ord) < len(e.roundLog) {
			e.ord = make([]uint64, len(e.roundLog))
		} else {
			e.ord = e.ord[:len(e.roundLog)]
		}
	}
	cl.heads = cur[:0]
	for {
		best := -1
		var bAt Time
		var bKey uint64
		for i, e := range lps {
			c := cur[i]
			if c >= len(e.roundLog) {
				continue
			}
			r := e.roundLog[c]
			k := e.effKey(r.key)
			if best < 0 || r.at < bAt || (r.at == bAt && k < bKey) {
				best, bAt, bKey = i, r.at, k
			}
		}
		if best < 0 {
			break
		}
		lps[best].ord[cur[best]] = cl.nextOrd
		cl.nextOrd++
		cur[best]++
	}

	// 2. Replay deferred work in global ordinal order. Each LP's defer
	// list is sorted by log position (hence by ordinal), so another
	// K-way merge reproduces the serial interleaving of side effects
	// that must not run concurrently (monitor commits).
	dcur := cl.dheads[:0]
	for range lps {
		dcur = append(dcur, 0)
	}
	cl.dheads = dcur[:0]
	for {
		best := -1
		var bOrd uint64
		for i, e := range lps {
			c := dcur[i]
			if c >= len(e.defers) {
				continue
			}
			if o := e.ord[e.defers[c].pos]; best < 0 || o < bOrd {
				best, bOrd = i, o
			}
		}
		if best < 0 {
			break
		}
		d := lps[best].defers[dcur[best]]
		dcur[best]++
		d.h.Run(d.at, d.at)
	}

	// 3. Rewrite every provisional key in the round's heaps, then
	// deliver the outboxes. Delivery comes second so each push is
	// ordered against resolved keys only.
	for _, e := range lps {
		for i := range e.events.a {
			if ev := &e.events.a[i]; ev.seq&provBit != 0 {
				ev.seq = e.effKey(ev.seq)
			}
		}
		e.roundLog = e.roundLog[:0]
		clear(e.defers)
		e.defers = e.defers[:0]
	}
	for _, e := range lps {
		for i := range e.outbox {
			m := &e.outbox[i]
			m.to.events.push(event{at: m.at, seq: e.effKey(m.key), start: m.start, h: m.h})
		}
		clear(e.outbox)
		e.outbox = e.outbox[:0]
	}
}

// ClusterStats describes the execution shape of a finished (or
// running) cluster, for benchmarks and tests.
type ClusterStats struct {
	LoneRounds  uint64 // lone-mode fast-path runs
	ParRounds   uint64 // parallel window+barrier rounds
	WorkerWakes uint64 // worker-pool wakeup signals sent
}

// Stats returns execution-shape counters: how often the cluster used
// each synchronization path. Purely informational; reading it does not
// perturb the run.
func (cl *Cluster) Stats() ClusterStats {
	return ClusterStats{
		LoneRounds:  cl.loneRounds,
		ParRounds:   cl.parRounds,
		WorkerWakes: cl.workerWakes,
	}
}
