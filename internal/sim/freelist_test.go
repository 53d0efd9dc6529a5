package sim

import "testing"

type pooled struct {
	id  int
	buf []int
}

// A miss carves one chunk and returns its first record; the following
// pops hand out chunk[1], chunk[2], … in order, and only then does the
// next miss carve a fresh chunk. Digests fold free-list lengths, so
// this order is part of the simulator's behaviour.
func TestTakeChunkOrder(t *testing.T) {
	var f FreeList[*pooled]
	inits := 0
	init := func(c []pooled) {
		inits++
		for i := range c {
			c[i].id = 10*inits + i
		}
	}
	first := Take(&f, 4, init)
	if first.id != 10 || inits != 1 || len(f) != 3 {
		t.Fatalf("miss: id %d, inits %d, free %d; want 10, 1, 3", first.id, inits, len(f))
	}
	for want := 11; want <= 13; want++ {
		if r := Take(&f, 4, init); r.id != want {
			t.Fatalf("pop returned id %d, want %d", r.id, want)
		}
	}
	if inits != 1 || len(f) != 0 {
		t.Fatalf("after draining the chunk: inits %d, free %d; want 1, 0", inits, len(f))
	}
	if r := Take(&f, 4, init); r.id != 20 || inits != 2 || len(f) != 3 {
		t.Fatalf("second miss: id %d, inits %d, free %d; want 20, 2, 3", r.id, inits, len(f))
	}
	f.Push(first)
	if r := Take(&f, 4, init); r != first {
		t.Fatalf("hit returned id %d, want the last pushed record (id 10)", r.id)
	}
}

// Take with a nil init hands out zero records.
func TestTakeNilInit(t *testing.T) {
	var f FreeList[*pooled]
	if r := Take(&f, 2, nil); r.id != 0 || r.buf != nil || len(f) != 1 {
		t.Fatalf("got %+v with %d free, want a zero record and 1 free", *r, len(f))
	}
}

// Pop clears the slot it vacates, so the list's backing array keeps no
// reference to a record it has handed out, and reports empty lists.
func TestFreeListPopClearsSlot(t *testing.T) {
	var f FreeList[*pooled]
	a, b := &pooled{id: 1}, &pooled{id: 2}
	f.Push(a)
	f.Push(b)
	back := f[:2]
	if r, ok := f.Pop(); !ok || r != b {
		t.Fatalf("Pop = %v, %v; want the last pushed record", r, ok)
	}
	if back[1] != nil {
		t.Fatal("Pop left the vacated slot pointing at the record it returned")
	}
	if r, ok := f.Pop(); !ok || r != a {
		t.Fatalf("Pop = %v, %v; want the first pushed record", r, ok)
	}
	if r, ok := f.Pop(); ok || r != nil {
		t.Fatalf("Pop on an empty list = %v, %v; want nil, false", r, ok)
	}

	var vecs FreeList[[]uint64]
	vecs.Push(make([]uint64, 4))
	vback := vecs[:1]
	if _, ok := vecs.Pop(); !ok || vback[0] != nil {
		t.Fatal("Pop left a slice-valued slot holding its buffer")
	}
}

// takeWide takes a record whose init captures width, the way the
// simulator's pools capture their node count and page size.
func takeWide(f *FreeList[*pooled], width int) *pooled {
	return Take(f, 4, func(c []pooled) {
		back := make([]int, len(c)*width)
		for i := range c {
			c[i].buf = back[i*width : (i+1)*width : (i+1)*width]
		}
	})
}

// A hit allocates nothing, even when init captures its environment:
// the closure does not escape, so building it costs no heap.
func TestTakeHitAllocatesNothing(t *testing.T) {
	var f FreeList[*pooled]
	if r := takeWide(&f, 8); len(r.buf) != 8 || cap(r.buf) != 8 {
		t.Fatalf("init wired a buffer of len %d cap %d, want 8 and 8", len(r.buf), cap(r.buf))
	}
	allocs := testing.AllocsPerRun(100, func() { f.Push(takeWide(&f, 8)) })
	if allocs != 0 {
		t.Fatalf("a pool hit allocated %.1f times per call, want 0", allocs)
	}
}
