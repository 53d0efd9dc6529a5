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
	eng *Engine

	busyUntil Time

	// Statistics.
	Jobs      uint64 // jobs served
	BusyTime  Time   // total service time
	WaitTime  Time   // total time jobs spent queued before service
	MaxQueued Time   // maximum backlog (busyUntil - now) seen at enqueue
}

// NewResource creates a FIFO resource on the engine.
func NewResource(eng *Engine) *Resource {
	return &Resource{eng: eng}
}

// reserve claims the next FIFO slot for a job with the given service
// time, updates the statistics, and returns the job's (start, end).
func (r *Resource) reserve(service Time) (start, end Time) {
	now := r.eng.now
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
// the job's (start, end) times. It may be called from any context.
func (r *Resource) EnqueueHandler(service Time, h Handler) (start, end Time) {
	start, end = r.reserve(service)
	r.eng.AtHandler(end, start, h)
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
