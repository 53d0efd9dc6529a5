package sim

// WaitQ is a FIFO queue of blocked processes, the simulation analogue
// of a condition variable. Wait must be called from process context;
// WakeOne and WakeAll may be called from any context (they schedule the
// resumption as a zero-delay event).
// The oldest waiter lives in the inline slot w0 (the common case is a
// single waiter, and there are many thousands of WaitQ instances —
// per page, per lock, per pooled record — so the inline slot avoids
// ever materializing a backing array for most of them); the next few
// live in the inline ring wn (enough for every processor of a node to
// park at once), and only deeper queues spill to the heap-allocated
// waiters slice. FIFO order across the tiers is w0, wn[:n], waiters.
// Invariant: w0 is nil only when the queue is empty, and waiters is
// non-empty only when n == len(wn).
type WaitQ struct {
	w0      *Proc
	n       int8 // occupied slots of wn
	wn      [3]*Proc
	waiters []*Proc
}

// Len returns the number of waiters currently blocked on the queue.
func (q *WaitQ) Len() int {
	if q.w0 == nil {
		return 0
	}
	return 1 + int(q.n) + len(q.waiters)
}

// Wait blocks the calling process until it is woken.
func (q *WaitQ) Wait(p *Proc) {
	switch {
	case q.w0 == nil:
		q.w0 = p
	case int(q.n) < len(q.wn):
		q.wn[q.n] = p
		q.n++
	default:
		if q.waiters == nil {
			// First heap overflow: start at a capacity that never
			// regrows 1->2->4->8 on hot queues.
			q.waiters = make([]*Proc, 0, 8)
		}
		q.waiters = append(q.waiters, p)
	}
	p.Park()
}

// WakeOne wakes the longest-waiting waiter, if any, and reports whether
// one was woken. The overflow queue compacts in place rather than
// re-slicing off the front, so the backing array is reused and a steady
// block/wake cycle allocates nothing.
func (q *WaitQ) WakeOne() bool {
	w := q.w0
	if w == nil {
		return false
	}
	if q.n > 0 {
		q.w0 = q.wn[0]
		copy(q.wn[:], q.wn[1:q.n])
		q.n--
		q.wn[q.n] = nil
		if n := len(q.waiters); n > 0 {
			// Refill the inline ring from the heap overflow, keeping
			// FIFO order across the tiers.
			q.wn[q.n] = q.waiters[0]
			q.n++
			copy(q.waiters, q.waiters[1:])
			q.waiters[n-1] = nil
			q.waiters = q.waiters[:n-1]
		}
	} else {
		q.w0 = nil
	}
	w.Unpark()
	return true
}

// WakeAll wakes every waiter (in FIFO order) and returns how many were
// woken.
func (q *WaitQ) WakeAll() int {
	if q.w0 == nil {
		return 0
	}
	q.w0.Unpark()
	q.w0 = nil
	n := 1 + int(q.n) + len(q.waiters)
	for i := int8(0); i < q.n; i++ {
		q.wn[i].Unpark()
		q.wn[i] = nil
	}
	q.n = 0
	for i, w := range q.waiters {
		w.Unpark()
		q.waiters[i] = nil // release, but keep the backing array
	}
	q.waiters = q.waiters[:0]
	return n
}

// Flag is a one-shot level-triggered condition: processes that Wait before
// Set block until Set; Waits after Set return immediately.
type Flag struct {
	set bool
	q   WaitQ
}

// Set raises the flag and wakes all waiters.
func (f *Flag) Set() {
	if f.set {
		return
	}
	f.set = true
	f.q.WakeAll()
}

// IsSet reports whether the flag has been raised.
func (f *Flag) IsSet() bool { return f.set }

// Reset lowers the flag for reuse, keeping the wait queue's backing
// array. It must only be called when no waiter is still parked (every
// woken waiter has resumed), e.g. when recycling a pooled record whose
// single waiter has consumed the result.
func (f *Flag) Reset() {
	if f.q.Len() != 0 {
		panic("sim: Flag.Reset with parked waiters")
	}
	f.set = false
}

// Wait blocks p until the flag is set.
func (f *Flag) Wait(p *Proc) {
	for !f.set {
		f.q.Wait(p)
	}
}

// Counter is a monotonically increasing counter processes can wait on,
// used to model spinning on a protocol flag word deposited by a remote NI.
type Counter struct {
	val uint64
	q   WaitQ
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.val }

// Add increases the counter and wakes all waiters (they re-check their
// thresholds).
func (c *Counter) Add(n uint64) {
	c.val += n
	c.q.WakeAll()
}

// WaitFor blocks p until the counter reaches at least target.
func (c *Counter) WaitFor(p *Proc, target uint64) {
	for c.val < target {
		c.q.Wait(p)
	}
}

// Reset zeroes the counter for reuse, keeping the wait queue's backing
// array. It must only be called when no waiter is still parked.
func (c *Counter) Reset() {
	if c.q.Len() != 0 {
		panic("sim: Counter.Reset with parked waiters")
	}
	c.val = 0
}
