// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock (int64 nanoseconds) by executing
// events in timestamp order. Two styles of simulated activity coexist:
//
//   - Events: Handler values scheduled with AtHandler (or AtTimer, or
//     through a Resource reservation, or Send across logical processes),
//     executed inline by the engine loop. Used for message deliveries,
//     DMA completions, timers, etc.
//   - Processes: runtime coroutines (iter.Pull) that model sequential
//     agents (simulated processors). Exactly one of the engine loop or a
//     single process runs at any instant; a dispatch switches straight
//     to the process's coroutine and a blocking call switches straight
//     back, on one thread and without the Go scheduler, so simulations
//     are deterministic and race-free without locks. A panic in a
//     process body is re-raised by the dispatch and reaches the caller
//     of Run. Engine.Release unwinds processes a run left unfinished.
//
// Ties between events at the same timestamp are broken by scheduling
// order, which makes runs bit-reproducible.
package sim

import (
	"fmt"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time = int64

// Common durations in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micro returns d microseconds as a Time duration.
func Micro(d float64) Time { return Time(d * float64(Microsecond)) }

// Handler is an event: a pre-built object whose Run method the engine
// invokes directly from the event queue. start carries the reservation's
// begin time when the event was scheduled by a Resource (see
// Resource.EnqueueHandler) and is whatever the scheduler passed
// otherwise; end is the event's own timestamp, equal to Engine.Now() at
// dispatch. Hot paths (the NI packet pipeline) implement Handler on
// pooled records, so scheduling one costs no allocation.
type Handler interface {
	Run(start, end Time)
}

// event is one queue entry: the handler and the start word handed to
// its Run.
type event struct {
	at    Time
	seq   uint64
	start Time
	h     Handler
}

// eventBefore orders events by timestamp, then by scheduling order, so
// runs stay bit-reproducible.
func eventBefore(x, y *event) bool {
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

// eventQueue is a typed 4-ary min-heap over a flat []event. It replaces
// container/heap, which boxes every event through `any` (one allocation
// per push) and dispatches Less/Swap through an interface. The 4-ary
// shape halves the tree depth, so pops touch fewer cache lines than a
// binary heap on the deep queues the protocol simulations build.
// Vacated slots are zeroed on pop so executed handlers (and everything
// they reference) become garbage-collectable immediately.
type eventQueue struct {
	a []event
}

func (q *eventQueue) len() int     { return len(q.a) }
func (q *eventQueue) peek() *event { return &q.a[0] }

// after reports whether every queued event is due strictly after t.
func (q *eventQueue) after(t Time) bool { return len(q.a) == 0 || q.a[0].at > t }

func (q *eventQueue) push(e event) {
	q.a = append(q.a, e)
	a := q.a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventBefore(&a[i], &a[parent]) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	a := q.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = event{} // release the handler to the GC
	q.a = a[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if eventBefore(&a[j], &a[m]) {
				m = j
			}
		}
		if !eventBefore(&a[m], &a[i]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
//
// A standalone engine keeps its pending events in three places, each
// event behind its own (at, seq) key: the event heap; one FIFO lane per
// backlogged Resource, which the heap reaches through a single proxy
// entry keyed by the lane's head (see lane); and a second heap for
// timers (AtTimer). Run pops whichever heap top has the smaller key, so
// the split changes how deep the heaps get, never which event runs
// next.
type Engine struct {
	now    Time
	seq    uint64
	events eventQueue // handlers, process wakes and lane proxies
	timers eventQueue // AtTimer events

	procs    []*Proc // every process spawned by Go, for Release
	stopped  bool
	deadline Time // the running Run's deadline (0: none), for Proc.Sleep

	nEvents uint64

	// Parallel (cluster) state; all zero for standalone engines, in
	// which case every field below is dead and the engine behaves
	// exactly as before. See plp.go for the synchronization scheme.
	cl       *Cluster
	lp       int    // this LP's index in cl.all
	la       Time   // lookahead: min cross-LP scheduling delta
	inRound  bool   // runWindow is executing this LP
	curPos   uint64 // round-log position of the executing event
	curOrd   uint64 // lone mode: resolved ordinal of the executing event
	actIdx   uint64 // scheduling actions taken by the executing event
	roundLog []logRec
	ord      []uint64 // barrier-assigned ordinal per round-log index
	outbox   []crossMsg
	defers   []deferRec
	countAdj int64 // correction added to nEvents by Cluster.Events
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.nEvents }

// nextKey returns the ordering key for the next scheduled event. For a
// standalone engine it is the plain scheduling sequence number; for an
// LP engine it is a setup, resolved, or provisional structured key (see
// plp.go) that reproduces the serial tie-break order without a shared
// hot-path counter.
func (e *Engine) nextKey() uint64 {
	cl := e.cl
	if cl == nil {
		e.seq++
		return e.seq
	}
	if !cl.exec {
		cl.setupSeq++
		if cl.setupSeq >= maxSetup {
			panic("sim: setup scheduling sequence overflow")
		}
		return cl.setupSeq
	}
	if cl.lone != e && !e.inRound {
		panic("sim: scheduling on an LP engine that is not executing (cross-LP event must use Send)")
	}
	a := e.actIdx
	e.actIdx++
	if a > actMask {
		panic("sim: too many events scheduled by a single event")
	}
	if cl.lone == e {
		return e.curOrd<<actBits | a
	}
	if e.curPos > posMask {
		panic("sim: round-log position overflow")
	}
	return provBit | e.curPos<<actBits | a
}

// AtHandler schedules h.Run(start, t) at virtual time t. The handler
// value is stored in the event queue slot directly, so scheduling a
// pooled record costs zero heap allocations. Scheduling in the past
// panics: it would make the clock non-monotonic.
func (e *Engine) AtHandler(t, start Time, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.events.push(event{at: t, seq: e.nextKey(), start: start, h: h})
}

// AtTimer is AtHandler for timers: events that are rearmed often and
// usually fire far in the future (retransmission and delayed-ack
// timeouts), kept on a heap of their own so they do not deepen the hot
// one. Order is the same as if they shared one heap. On an LP engine
// of a parallel cluster it is AtHandler.
func (e *Engine) AtTimer(t, start Time, h Handler) {
	if e.cl != nil {
		e.AtHandler(t, start, h)
		return
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling timer at %d before now %d", t, e.now))
	}
	e.seq++
	e.timers.push(event{at: t, seq: e.seq, start: start, h: h})
}

// next returns the heap whose top runs next, or nil when both are
// empty.
func (e *Engine) next() *eventQueue {
	q := &e.events
	if len(e.timers.a) > 0 && (len(q.a) == 0 || eventBefore(&e.timers.a[0], &q.a[0])) {
		return &e.timers
	}
	if len(q.a) == 0 {
		return nil
	}
	return q
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the event queue is empty, Stop is called, or
// the optional deadline (>0) is reached. It returns the final virtual time.
func (e *Engine) Run(deadline Time) Time {
	e.deadline = deadline
	for !e.stopped {
		q := e.next()
		if q == nil {
			break
		}
		if deadline > 0 && q.peek().at > deadline {
			e.now = deadline
			break
		}
		ev := q.pop()
		e.now = ev.at
		e.nEvents++
		ev.h.Run(ev.start, ev.at)
	}
	return e.now
}

// RunUntilQuiet is Run with no deadline.
func (e *Engine) RunUntilQuiet() Time { return e.Run(0) }

// LPNode returns the logical-process engine of node i: in a parallel
// run the LP of the shard the node is mapped to (several nodes may
// share one LP, see Cluster sharding), on a standalone engine the
// engine itself. Code that constructs per-node devices calls this so
// the same construction path serves serial and parallel runs.
func (e *Engine) LPNode(i int) *Engine {
	if e.cl == nil {
		return e
	}
	return e.cl.all[e.cl.nodeLP[i]]
}

// LPFabric returns the network fabric's logical-process engine (the
// engine itself when standalone); the shared switch lives there.
func (e *Engine) LPFabric() *Engine {
	if e.cl == nil {
		return e
	}
	return e.cl.fabric
}

// Parallel reports whether this engine is an LP of a parallel cluster.
func (e *Engine) Parallel() bool { return e.cl != nil }

// Send schedules h.Run(start, at) on the engine `to`, which may belong
// to a different LP. On a standalone engine — or between setup-phase
// cluster engines, or when to is the sender itself — it is exactly
// to.AtHandler. During parallel execution a cross-LP send is parked in
// the sender's outbox and delivered at the round barrier (or pushed
// directly in lone mode, ending the lone run); either way it burns one
// action index on the sending event, so the child-order the serial
// engine would have produced is preserved.
func (e *Engine) Send(to *Engine, at, start Time, h Handler) {
	cl := e.cl
	if cl == nil || !cl.exec || to == e {
		to.AtHandler(at, start, h)
		return
	}
	if at < e.now+e.la {
		panic(fmt.Sprintf("sim: cross-LP send at %d violates lookahead (now %d + la %d)", at, e.now, e.la))
	}
	key := e.nextKey()
	if cl.lone == e {
		cl.loneCrossed = true
		to.events.push(event{at: at, seq: key, start: start, h: h})
		return
	}
	e.outbox = append(e.outbox, crossMsg{to: to, at: at, start: start, key: key, h: h})
}

// Deferring reports whether side effects flushed through DeferFlush
// will be postponed to the round barrier (true only during a parallel
// round). Callers use it to decide between committing shared-state
// mutations inline and snapshotting them for deferred commit.
func (e *Engine) Deferring() bool {
	cl := e.cl
	return cl != nil && cl.exec && cl.lone != e
}

// DeferFlush runs h at the round barrier, after all LPs have finished
// the round, in the global serial order of the deferring events. Use it
// for side effects on state shared across LPs (statistics, trace
// emission) that must not run concurrently but do not influence the
// simulation itself. Outside a parallel round it runs h inline.
func (e *Engine) DeferFlush(h Handler) {
	if !e.Deferring() {
		h.Run(e.now, e.now)
		return
	}
	e.defers = append(e.defers, deferRec{pos: e.curPos, at: e.now, h: h})
}

// AdjustEventCount corrects this LP's executed-event count as reported
// by Cluster.Events. The parallel fabric path turns one serial fan-out
// event into one arrival event per destination; the site records the
// difference here so serial and parallel runs report identical totals.
func (e *Engine) AdjustEventCount(d int64) { e.countAdj += d }

// effKey resolves a provisional key against the ordinals the barrier
// assigned to this LP's round log; setup and resolved keys pass through
// unchanged. Callers guarantee the referenced position has an ordinal.
func (e *Engine) effKey(k uint64) uint64 {
	if k&provBit == 0 {
		return k
	}
	return e.ord[k>>actBits&posMask]<<actBits | k&actMask
}

// runWindow executes this LP's events with timestamp below the round
// horizon h, logging each so the barrier can assign global ordinals.
func (e *Engine) runWindow(h Time) {
	e.inRound = true
	for e.events.len() > 0 && e.events.peek().at < h {
		ev := e.events.pop()
		e.now = ev.at
		e.nEvents++
		e.curPos = uint64(len(e.roundLog))
		e.actIdx = 0
		e.roundLog = append(e.roundLog, logRec{at: ev.at, key: ev.seq})
		ev.h.Run(ev.start, ev.at)
	}
	e.inRound = false
}

// runLone executes this LP while it is the only one with events:
// ordinals are assigned as events pop (heap order is the global order
// when every other LP is empty), so no logging or merging is needed.
// The run ends when the heap drains or an event sends cross-LP — past
// that point the receiver could react back into this LP, so the
// cluster must recompute the horizon.
func (e *Engine) runLone() {
	cl := e.cl
	cl.lone = e
	cl.loneCrossed = false
	for e.events.len() > 0 && !cl.loneCrossed {
		ev := e.events.pop()
		e.now = ev.at
		e.nEvents++
		e.curOrd = cl.nextOrd
		cl.nextOrd++
		e.actIdx = 0
		ev.h.Run(ev.start, ev.at)
	}
	cl.lone = nil
}
