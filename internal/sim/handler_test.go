package sim

// Tests for Handler dispatch and for the queueing statistics the suite
// reports: Gate.Blocked/BlockedTime and Resource.MaxQueued.

import "testing"

// handlerFunc adapts a function to Handler, so tests can schedule
// one-off events without declaring a type for each.
type handlerFunc func(start, end Time)

func (f handlerFunc) Run(start, end Time) { f(start, end) }

// schedule runs fn at virtual time t on e.
func schedule(e *Engine, t Time, fn func()) {
	e.AtHandler(t, t, handlerFunc(func(_, _ Time) { fn() }))
}

// recordingHandler records every (start, end) pair it is dispatched with.
type recordingHandler struct {
	starts, ends []Time
}

func (h *recordingHandler) Run(start, end Time) {
	h.starts = append(h.starts, start)
	h.ends = append(h.ends, end)
}

func TestEnqueueHandlerPassesReservationBounds(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	h := &recordingHandler{}
	schedule(e, 0, func() {
		r.EnqueueHandler(50, h) // idle: starts now
		r.EnqueueHandler(30, h) // queued behind the first
	})
	e.RunUntilQuiet()
	if len(h.starts) != 2 {
		t.Fatalf("dispatched %d times, want 2", len(h.starts))
	}
	if h.starts[0] != 0 || h.ends[0] != 50 {
		t.Errorf("first job = (%d,%d), want (0,50)", h.starts[0], h.ends[0])
	}
	if h.starts[1] != 50 || h.ends[1] != 80 {
		t.Errorf("second job = (%d,%d), want (50,80)", h.starts[1], h.ends[1])
	}
}

// orderHandler appends its tag to a shared log when dispatched.
type orderHandler struct {
	log *[]string
	tag string
}

func (h *orderHandler) Run(_, _ Time) { *h.log = append(*h.log, h.tag) }

// Events that land on the same timestamp fire in scheduling order, no
// matter which of the three scheduling calls queued them: AtHandler,
// a Resource completion, and Send all draw from one seq counter.
func TestSameTimestampFIFOAcrossSchedulers(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var log []string
	tag := func(s string) Handler { return &orderHandler{log: &log, tag: s} }
	r.EnqueueHandler(10, tag("res-1")) // idle: completes at 10
	e.AtHandler(10, 0, tag("at-1"))
	e.Send(e, 10, 0, tag("send-1"))
	e.AtHandler(10, 0, tag("at-2"))
	e.Send(e, 10, 0, tag("send-2"))
	r.EnqueueHandler(0, tag("res-2")) // queued behind res-1: also at 10
	e.RunUntilQuiet()
	want := []string{"res-1", "at-1", "send-1", "at-2", "send-2", "res-2"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestAtHandlerPastPanics(t *testing.T) {
	e := NewEngine()
	schedule(e, 100, func() {
		defer func() {
			if recover() == nil {
				t.Error("AtHandler in the past did not panic")
			}
		}()
		e.AtHandler(50, 0, &recordingHandler{})
	})
	e.RunUntilQuiet()
}

// Every dispatched event counts toward Events().
func TestHandlerEventsCounted(t *testing.T) {
	e := NewEngine()
	h := &recordingHandler{}
	e.AtHandler(1, 0, h)
	e.AtHandler(2, 0, h)
	e.AtHandler(3, 0, h)
	e.RunUntilQuiet()
	if got := e.Events(); got != 3 {
		t.Fatalf("Events() = %d, want 3", got)
	}
}

func TestGateBlockedTimeAccounting(t *testing.T) {
	e := NewEngine()
	g := NewGate(1)
	e.Go("holder", func(p *Proc) {
		g.Acquire(p)
		p.Sleep(100)
		g.Release()
	})
	e.Go("waiter", func(p *Proc) {
		g.Acquire(p) // full until t=100
		g.Release()
	})
	e.RunUntilQuiet()
	if g.Blocked != 1 {
		t.Errorf("Blocked = %d, want 1", g.Blocked)
	}
	if g.BlockedTime != 100 {
		t.Errorf("BlockedTime = %d, want 100", g.BlockedTime)
	}
	if g.InUse() != 0 {
		t.Errorf("InUse = %d after all releases", g.InUse())
	}
}

func TestGateUncontendedAcquireNotCounted(t *testing.T) {
	e := NewEngine()
	g := NewGate(2)
	e.Go("p", func(p *Proc) {
		g.Acquire(p)
		g.Release()
	})
	e.RunUntilQuiet()
	if g.Blocked != 0 || g.BlockedTime != 0 {
		t.Errorf("uncontended acquire counted: Blocked=%d BlockedTime=%d", g.Blocked, g.BlockedTime)
	}
}

func TestResourceMaxQueuedTracksWorstBacklog(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	schedule(e, 0, func() {
		r.Reserve(100) // starts at 0, backlog 0
		r.Reserve(100) // backlog 100
		r.Reserve(100) // backlog 200
	})
	schedule(e, 250, func() {
		r.Reserve(100) // backlog 50: must not lower the max
	})
	e.RunUntilQuiet()
	if r.MaxQueued != 200 {
		t.Errorf("MaxQueued = %d, want 200", r.MaxQueued)
	}
	if r.WaitTime != 0+100+200+50 {
		t.Errorf("WaitTime = %d, want 350", r.WaitTime)
	}
	if r.Jobs != 4 {
		t.Errorf("Jobs = %d, want 4", r.Jobs)
	}
}

// EnqueueHandler must feed the same statistics as Reserve.
func TestEnqueueHandlerUpdatesStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	h := &recordingHandler{}
	schedule(e, 0, func() {
		r.EnqueueHandler(100, h)
		r.EnqueueHandler(100, h)
	})
	e.RunUntilQuiet()
	if r.Jobs != 2 || r.BusyTime != 200 || r.WaitTime != 100 || r.MaxQueued != 100 {
		t.Errorf("stats = {Jobs:%d Busy:%d Wait:%d MaxQueued:%d}, want {2 200 100 100}",
			r.Jobs, r.BusyTime, r.WaitTime, r.MaxQueued)
	}
}
