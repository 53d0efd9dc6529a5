package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	schedule(e, 30, func() { got = append(got, 3) })
	schedule(e, 10, func() { got = append(got, 1) })
	schedule(e, 20, func() { got = append(got, 2) })
	end := e.RunUntilQuiet()
	if end != 30 {
		t.Fatalf("end time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		schedule(e, 5, func() { got = append(got, i) })
	}
	e.RunUntilQuiet()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order = %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	schedule(e, 100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		schedule(e, 50, func() {})
	})
	e.RunUntilQuiet()
}

func TestDeadline(t *testing.T) {
	e := NewEngine()
	fired := false
	schedule(e, 1000, func() { fired = true })
	end := e.Run(500)
	if fired {
		t.Error("event beyond deadline fired")
	}
	if end != 500 {
		t.Errorf("end = %d, want 500", end)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var depth int
	var ping func()
	ping = func() {
		depth++
		if depth < 100 {
			schedule(e, e.Now()+7, ping)
		}
	}
	schedule(e, 7, ping)
	end := e.RunUntilQuiet()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if end != 700 {
		t.Fatalf("end = %d, want 700", end)
	}
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			trace = append(trace, p.Now())
		}
	})
	e.RunUntilQuiet()
	for i, at := range trace {
		if want := Time(10 * (i + 1)); at != want {
			t.Fatalf("wakeup %d at %d, want %d", i, at, want)
		}
	}
}

func TestTwoProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		e.Go("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				log = append(log, "a")
			}
		})
		e.Go("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(10)
				log = append(log, "b")
			}
		})
		e.RunUntilQuiet()
		return log
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine()
	var woke Time
	var target *Proc
	target = e.Go("sleeper", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	schedule(e, 123, func() { target.Unpark() })
	e.RunUntilQuiet()
	if woke != 123 {
		t.Fatalf("woke at %d, want 123", woke)
	}
}

func TestWaitQFIFO(t *testing.T) {
	e := NewEngine()
	var q WaitQ
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(Time(i + 1)) // stagger arrival: 1,2,3,4
			q.Wait(p)
			order = append(order, i)
		})
	}
	schedule(e, 100, func() {
		for q.WakeOne() {
		}
	})
	e.RunUntilQuiet()
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order = %v, want FIFO", order)
		}
	}
}

// TestFlag: a one-shot flag is a Counter raised by Add(1) and awaited
// with WaitFor(p, 1); a wait on a flag already set returns at once.
func TestFlag(t *testing.T) {
	e := NewEngine()
	var f Counter
	var at Time
	e.Go("waiter", func(p *Proc) {
		f.WaitFor(p, 1)
		at = p.Now()
		// A second wait after set returns immediately.
		f.WaitFor(p, 1)
		if p.Now() != at {
			t.Error("wait on set flag blocked")
		}
	})
	schedule(e, 55, func() { f.Add(1) })
	e.RunUntilQuiet()
	if at != 55 {
		t.Fatalf("flag wait released at %d, want 55", at)
	}
	if f.Value() != 1 {
		t.Error("flag not set")
	}
}

func TestCounterThresholds(t *testing.T) {
	e := NewEngine()
	var c Counter
	var releasedAt [3]Time
	for i, target := range []uint64{1, 3, 5} {
		i, target := i, target
		e.Go("w", func(p *Proc) {
			c.WaitFor(p, target)
			releasedAt[i] = p.Now()
		})
	}
	for i := 1; i <= 5; i++ {
		at := Time(i * 10)
		schedule(e, at, func() { c.Add(1) })
	}
	e.RunUntilQuiet()
	want := [3]Time{10, 30, 50}
	if releasedAt != want {
		t.Fatalf("released at %v, want %v", releasedAt, want)
	}
}

// TestWaitQMessageHandoff: a receiver parked on a WaitQ drains a
// message queue in FIFO order, however many messages arrive between
// its wakeups.
func TestWaitQMessageHandoff(t *testing.T) {
	e := NewEngine()
	var q WaitQ
	var items, got []int
	send := func(v int) {
		items = append(items, v)
		q.WakeOne()
	}
	e.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			for len(items) == 0 {
				q.Wait(p)
			}
			got = append(got, items[0])
			items = items[1:]
		}
	})
	schedule(e, 10, func() { send(1) })
	schedule(e, 20, func() { send(2); send(3) })
	e.RunUntilQuiet()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var ends []Time
	schedule(e, 0, func() {
		r.EnqueueHandler(100, handlerFunc(func(_, en Time) { ends = append(ends, en) }))
		r.EnqueueHandler(50, handlerFunc(func(_, en Time) { ends = append(ends, en) }))
	})
	schedule(e, 10, func() {
		r.EnqueueHandler(10, handlerFunc(func(_, en Time) { ends = append(ends, en) }))
	})
	e.RunUntilQuiet()
	want := []Time{100, 150, 160}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.Jobs != 3 || r.BusyTime != 160 {
		t.Fatalf("jobs=%d busy=%d", r.Jobs, r.BusyTime)
	}
	// Job 2 waited 100, job 3 waited 140.
	if r.WaitTime != 240 {
		t.Fatalf("wait=%d, want 240", r.WaitTime)
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var starts []Time
	record := handlerFunc(func(s, _ Time) { starts = append(starts, s) })
	schedule(e, 0, func() { r.EnqueueHandler(10, record) })
	schedule(e, 100, func() { r.EnqueueHandler(10, record) })
	e.RunUntilQuiet()
	if starts[0] != 0 || starts[1] != 100 {
		t.Fatalf("starts = %v; idle resource must start immediately", starts)
	}
}

func TestGateBlocksAtDepth(t *testing.T) {
	e := NewEngine()
	g := NewGate(2)
	var acquired []Time
	for i := 0; i < 4; i++ {
		e.Go("p", func(p *Proc) {
			g.Acquire(p)
			acquired = append(acquired, p.Now())
			p.Sleep(100)
			g.Release()
		})
	}
	e.RunUntilQuiet()
	want := []Time{0, 0, 100, 100}
	for i := range want {
		if acquired[i] != want[i] {
			t.Fatalf("acquire times = %v, want %v", acquired, want)
		}
	}
	if g.Blocked != 2 {
		t.Fatalf("blocked = %d, want 2", g.Blocked)
	}
}

// Property: for any set of event times, the engine executes them in
// nondecreasing time order and ends at the max time.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var seen []Time
		var last Time
		for _, d := range delays {
			at := Time(d)
			if at > last {
				last = at
			}
			schedule(e, at, func() { seen = append(seen, e.Now()) })
		}
		end := e.RunUntilQuiet()
		if end != last {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO resource never starts a job before the previous one
// ends, and actual time >= uncontended time.
func TestResourceFIFOProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		r := NewResource(e)
		type span struct{ s, e Time }
		var spans []span
		jobs := int(n%20) + 1
		for i := 0; i < jobs; i++ {
			at := Time(rng.Intn(1000))
			svc := Time(rng.Intn(100) + 1)
			schedule(e, at, func() {
				r.EnqueueHandler(svc, handlerFunc(func(s, en Time) { spans = append(spans, span{s, en}) }))
			})
		}
		e.RunUntilQuiet()
		for i := 1; i < len(spans); i++ {
			if spans[i].s < spans[i-1].e {
				return false
			}
		}
		return len(spans) == jobs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMicroConversion(t *testing.T) {
	if Micro(18) != 18000 {
		t.Fatalf("Micro(18) = %d", Micro(18))
	}
	if Micro(0.5) != 500 {
		t.Fatalf("Micro(0.5) = %d", Micro(0.5))
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	schedule(e, 10, func() { ran++; e.Stop() })
	schedule(e, 20, func() { ran++ })
	e.RunUntilQuiet()
	if ran != 1 {
		t.Fatalf("ran %d events after Stop, want 1", ran)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative sleep did not panic")
			}
		}()
		p.Sleep(-1)
	})
	e.RunUntilQuiet()
}

// TestEventQueueOrderProperty cross-checks the typed 4-ary heap against
// a sort-based oracle under random interleaved pushes and pops, with
// many timestamp ties to exercise the seq tie-break.
func TestEventQueueOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var q eventQueue
		var oracle []event
		seq := uint64(0)
		var popped, want []uint64
		for op := 0; op < 400; op++ {
			if q.len() == 0 || rng.Intn(3) > 0 {
				seq++
				ev := event{at: Time(rng.Intn(16)), seq: seq}
				q.push(ev)
				oracle = append(oracle, ev)
				continue
			}
			popped = append(popped, q.pop().seq)
			// Oracle: minimum by (at, seq).
			m := 0
			for i := range oracle {
				if eventBefore(&oracle[i], &oracle[m]) {
					m = i
				}
			}
			want = append(want, oracle[m].seq)
			oracle = append(oracle[:m], oracle[m+1:]...)
		}
		for q.len() > 0 {
			popped = append(popped, q.pop().seq)
			m := 0
			for i := range oracle {
				if eventBefore(&oracle[i], &oracle[m]) {
					m = i
				}
			}
			want = append(want, oracle[m].seq)
			oracle = append(oracle[:m], oracle[m+1:]...)
		}
		for i := range want {
			if popped[i] != want[i] {
				t.Fatalf("trial %d: pop order differs from oracle at %d: got %v want %v",
					trial, i, popped[i], want[i])
			}
		}
	}
}

// TestDrainedEngineHoldsNoEvents is the regression test for the event
// retention leak: after the queues drain, every slot of the event
// heap's and the timer heap's backing arrays, and of a backlogged
// resource's lane, must be zeroed so executed handlers are collectable.
func TestDrainedEngineHoldsNoEvents(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var ran int
	count := handlerFunc(func(_, _ Time) { ran++ })
	for i := 0; i < 1000; i++ {
		d := Time(i % 37)
		schedule(e, d, func() { ran++ })
		e.AtTimer(d+5, 0, count)
		r.EnqueueHandler(d, count)
	}
	if r.q.n == 0 {
		t.Fatal("the resource never backlogged: the test covers no lane")
	}
	e.RunUntilQuiet()
	if ran != 3000 {
		t.Fatalf("ran %d events, want 3000", ran)
	}
	if e.events.len() != 0 || e.timers.len() != 0 || r.q.n != 0 {
		t.Fatalf("queues not drained: %d events, %d timers, %d in the lane left",
			e.events.len(), e.timers.len(), r.q.n)
	}
	for _, q := range []struct {
		name    string
		backing []event
	}{
		{"event heap", e.events.a[:cap(e.events.a)]},
		{"timer heap", e.timers.a[:cap(e.timers.a)]},
		{"lane", r.q.ring},
	} {
		for i, ev := range q.backing {
			if ev.h != nil {
				t.Fatalf("drained %s retains a handler at slot %d of %d", q.name, i, len(q.backing))
			}
		}
	}
}

// backlogJob is a resource completion that queues its successor on the
// same resource left more times, so the resource keeps a standing FIFO
// backlog.
type backlogJob struct {
	r    *Resource
	left int
}

func (j *backlogJob) Run(_, _ Time) {
	if j.left > 0 {
		j.left--
		j.r.EnqueueHandler(1, j)
	}
}

// TestResourceBacklogAllocatesNothing: once a lane has grown to hold a
// resource's backlog, a steady cycle of completions that each queue a
// successor allocates nothing.
func TestResourceBacklogAllocatesNothing(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	jobs := make([]backlogJob, 64)
	for i := range jobs {
		jobs[i] = backlogJob{r: r, left: 1 << 30}
		r.EnqueueHandler(1, &jobs[i])
	}
	e.Run(1000)
	if int(r.q.n) != len(jobs) {
		t.Fatalf("lane holds %d completions, want %d", r.q.n, len(jobs))
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Run(e.Now() + 64) }); allocs != 0 {
		t.Fatalf("a backlog cycle allocates %.1f times, want 0", allocs)
	}
}

// TestEventSlotSize pins the heap slot at five words (at, seq, start,
// and the two-word Handler interface): every queued event pays this,
// and the 4-ary heap moves whole slots on every push and pop.
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("event slot is %d bytes, want 40", got)
	}
}

// Two engines that execute the same schedule must produce the same
// digest; diverging by one event must change it.
func TestEngineDigestDeterminism(t *testing.T) {
	build := func(extra bool) uint64 {
		e := NewEngine()
		schedule(e, 5, func() { schedule(e, e.Now()+7, func() {}) })
		schedule(e, 9, func() {})
		e.Run(6) // leave events in the heap so the digest covers them
		if extra {
			schedule(e, 11, func() {})
		}
		d := NewDigest()
		e.DigestInto(d)
		return d.Sum()
	}
	a, b := build(false), build(false)
	if a != b {
		t.Fatalf("identical runs digest differently: %#x vs %#x", a, b)
	}
	if c := build(true); c == a {
		t.Fatalf("divergent run digests equal: %#x", c)
	}
}
