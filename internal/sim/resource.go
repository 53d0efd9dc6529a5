package sim

// Resource models a FIFO-served, single-server device: a DMA engine, an
// I/O bus, a network link, or a firmware processor. Work is admitted in
// arrival order; each job occupies the server for its service time.
//
// Because the engine is sequential, "arrival order" is simply the order of
// reservation calls, so a running-tail timestamp (busyUntil) is a complete
// FIFO model: a job arriving at time t starts at max(t, busyUntil).
//
// The resource keeps utilization and queueing statistics so callers can
// compute contention ratios (actual time / uncontended time).
type Resource struct {
	q lane // completions queued behind a busy server

	busyUntil Time

	// Statistics.
	Jobs      uint64 // jobs served
	BusyTime  Time   // total service time
	WaitTime  Time   // total time jobs spent queued before service
	MaxQueued Time   // maximum backlog (busyUntil - now) seen at enqueue
}

// NewResource creates a FIFO resource on the engine.
func NewResource(eng *Engine) *Resource {
	return &Resource{q: lane{eng: eng}}
}

// lane is a Resource's FIFO of completions scheduled while the server
// was busy. A job ends no earlier than the job before it and was
// scheduled after it, so the ring is already in (at, seq) order: the
// engine's event heap holds one proxy entry per non-empty lane, keyed
// by the head's own (at, seq), instead of one entry per completion.
// Every pending completion keeps its key, so events run in exactly the
// order one heap holding all of them would give.
type lane struct {
	eng  *Engine
	ring []event // power-of-two circular buffer; doubles, never shrinks
	head uint32
	n    uint32
}

// push appends a completion; the first one into an empty lane puts the
// lane's proxy on the heap.
func (l *lane) push(ev event) {
	if int(l.n) == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&uint32(len(l.ring)-1)] = ev
	l.n++
	if l.n == 1 {
		l.eng.events.push(event{at: ev.at, seq: ev.seq, h: l})
	}
}

func (l *lane) grow() {
	ring := make([]event, max(4, 2*len(l.ring)))
	l.appendTo(ring[:0])
	l.ring, l.head = ring, 0
}

// appendTo appends the queued completions to out in FIFO order.
func (l *lane) appendTo(out []event) []event {
	for i := uint32(0); i < l.n; i++ {
		out = append(out, l.ring[(l.head+i)&uint32(len(l.ring)-1)])
	}
	return out
}

// Run implements Handler for the lane's proxy entry: it takes the head
// completion, puts the proxy back on the heap under the next head's
// key, and runs the completion. It is not meant to be called directly.
func (l *lane) Run(_, _ Time) {
	ev := l.ring[l.head]
	l.ring[l.head] = event{} // release the handler to the GC
	l.head = (l.head + 1) & uint32(len(l.ring)-1)
	l.n--
	if l.n > 0 {
		next := &l.ring[l.head]
		l.eng.events.push(event{at: next.at, seq: next.seq, h: l})
	}
	ev.h.Run(ev.start, ev.at)
}

// reserve claims the next FIFO slot for a job with the given service
// time, updates the statistics, and returns the job's (start, end).
func (r *Resource) reserve(service Time) (start, end Time) {
	now := r.q.eng.now
	start = now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	end = start + service
	r.busyUntil = end
	r.Jobs++
	r.BusyTime += service
	r.WaitTime += start - now
	if q := start - now; q > r.MaxQueued {
		r.MaxQueued = q
	}
	return start, end
}

// EnqueueHandler reserves the next FIFO slot for a job with the given
// service time, schedules the completion h.Run(start, end), and returns
// the job's (start, end) times. It may be called from any context. A
// completion scheduled while the server is busy queues in the
// resource's lane rather than on the event heap, except on an LP engine
// of a parallel cluster.
func (r *Resource) EnqueueHandler(service Time, h Handler) (start, end Time) {
	e := r.q.eng
	busy := e.cl == nil && r.busyUntil > e.now
	start, end = r.reserve(service)
	if !busy {
		e.AtHandler(end, start, h)
		return start, end
	}
	e.seq++
	r.q.push(event{at: end, seq: e.seq, start: start, h: h})
	return start, end
}

// Reserve claims the next FIFO slot without scheduling any completion
// and returns the job's (start, end); the caller delivers the
// completion itself (e.g. fanning one reservation out to several
// logical processes).
func (r *Resource) Reserve(service Time) (start, end Time) {
	return r.reserve(service)
}

// EnqueueHandlerCross is EnqueueHandler for completions that belong to
// a different logical process: the reservation is made on this resource
// (which must be owned by the LP `from`, the caller's engine), and the
// completion h.Run(start, end) is delivered to the LP `to` through
// from.Send. With a standalone engine (from == to) it is byte-identical
// to EnqueueHandler, so serial pipelines can call it unconditionally.
func (r *Resource) EnqueueHandlerCross(from, to *Engine, service Time, h Handler) (start, end Time) {
	if from.cl == nil {
		return r.EnqueueHandler(service, h)
	}
	start, end = r.reserve(service)
	from.Send(to, end, start, h)
	return start, end
}

// Gate is a counting-semaphore admission control used to model a bounded
// queue (e.g. the NI post queue): at most Depth jobs may be outstanding;
// producers block in Acquire when the queue is full and are released in
// FIFO order as Release is called.
type Gate struct {
	Depth int
	inUse int
	q     WaitQ

	Blocked     uint64 // number of Acquire calls that had to wait
	BlockedTime Time   // total time spent blocked in Acquire
}

// NewGate returns a gate admitting up to depth concurrent holders.
func NewGate(depth int) *Gate { return &Gate{Depth: depth} }

// Acquire blocks p until a slot is free, then claims it.
func (g *Gate) Acquire(p *Proc) {
	if g.inUse >= g.Depth {
		g.Blocked++
		t0 := p.Now()
		for g.inUse >= g.Depth {
			g.q.Wait(p)
		}
		g.BlockedTime += p.Now() - t0
	}
	g.inUse++
}

// Release frees a slot and wakes one blocked producer. May be called from
// any context.
func (g *Gate) Release() {
	if g.inUse <= 0 {
		panic("sim: Gate.Release without Acquire")
	}
	g.inUse--
	g.q.WakeOne()
}

// InUse returns the number of currently held slots.
func (g *Gate) InUse() int { return g.inUse }
