package sim

// Mailbox is an unbounded FIFO message queue between simulated activities.
// Send may be called from any context; Recv must be called from process
// context and blocks until a message is available.
type Mailbox[T any] struct {
	items []T
	q     WaitQ
}

// Send enqueues an item and wakes one waiting receiver.
func (m *Mailbox[T]) Send(v T) {
	m.items = append(m.items, v)
	m.q.WakeOne()
}

// Recv dequeues the oldest item, blocking p until one is available.
func (m *Mailbox[T]) Recv(p *Proc) T {
	for len(m.items) == 0 {
		m.q.Wait(p)
	}
	return m.pop()
}

// pop removes the head, compacting in place so the backing array is
// reused instead of re-sliced away (a steady send/recv cycle then
// allocates nothing).
func (m *Mailbox[T]) pop() T {
	n := len(m.items)
	v := m.items[0]
	var zero T
	copy(m.items, m.items[1:])
	m.items[n-1] = zero // release references held by the vacated slot
	m.items = m.items[:n-1]
	return v
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) }
