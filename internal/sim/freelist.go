package sim

// FreeList is the one pool discipline of the simulator: a plain LIFO
// stack of recycled records. Every pool belongs to one logical process
// (or one node) and is touched only from its events, so it needs no
// locks, and reuse order is a pure function of the event order. That
// keeps runs bit-deterministic, which sync.Pool (with its per-P caches
// and GC-time clearing) would not. Its length is part of the state
// digests, so push order is behaviour.
type FreeList[T any] []T

// Pop removes and returns the most recently pushed record, clearing the
// vacated slot so the list keeps no stale reference. It reports false
// on an empty list.
func (f *FreeList[T]) Pop() (T, bool) {
	var zero T
	n := len(*f)
	if n == 0 {
		return zero, false
	}
	r := (*f)[n-1]
	(*f)[n-1] = zero
	*f = (*f)[:n-1]
	return r, true
}

// Push returns a record to the list.
func (f *FreeList[T]) Push(r T) { *f = append(*f, r) }

// Take returns a pooled record. On a hit it pops one. On a miss it
// carves n records out of one backing array, so a growing in-flight
// window costs one allocation per n records; init (if non-nil) runs
// once over the fresh chunk to wire per-record storage, then
// &chunk[n-1] … &chunk[1] are pushed and &chunk[0] is returned, so the
// following pops hand out chunk[1], chunk[2], … in order.
func Take[R any](f *FreeList[*R], n int, init func([]R)) *R {
	if r, ok := f.Pop(); ok {
		return r
	}
	chunk := make([]R, n)
	if init != nil {
		init(chunk)
	}
	for i := n - 1; i > 0; i-- {
		f.Push(&chunk[i])
	}
	return &chunk[0]
}
