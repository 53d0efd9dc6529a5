package sim

// FuzzEngineOrder drives an engine from a byte script that mixes every
// way an event can be queued: AtHandler, AtTimer, EnqueueHandler on
// three resources (zero service times included, so backlogged lanes
// hold ties), and processes that Sleep (in place or through a
// scheduled wake) and Park until a handler unparks them. Each event it
// queues is recorded with its (at, seq) key and start word, and each
// one that runs is recorded again, so the test checks the engine
// against a sort-based oracle: the executed keys must be exactly the
// sorted scheduled keys. At digest steps, and after each slice of a
// deadline-bounded run, the engine — its events split across the
// heap, the lanes and the timer heap — must digest the same as a
// plain-heap engine holding the same pending events.

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// orderKey is one event's identity: its key and the start word it is
// dispatched with.
type orderKey struct {
	at    Time
	seq   uint64
	start Time
}

func (k orderKey) String() string { return fmt.Sprintf("(%d,%d,%d)", k.at, k.seq, k.start) }

// orderRun is one script's execution state.
type orderRun struct {
	t      *testing.T
	e      *Engine
	res    [3]*Resource
	script []byte
	next   int
	sched  []orderKey // every event queued, in scheduling order
	ran    []orderKey // every event run, in execution order
	procs  []*orderProc
}

// orderProc is a scripted process and the key of its pending wake.
type orderProc struct {
	p      *Proc
	parked bool
	wake   orderKey
}

// orderEvent is a scripted handler: when it runs it records itself and
// takes one step of the script.
type orderEvent struct {
	r *orderRun
	k orderKey
}

func (h *orderEvent) Run(start, end Time) {
	r := h.r
	if start != h.k.start || end != h.k.at {
		r.fail("event %v dispatched with start %d end %d", h.k, start, end)
	}
	r.ran = append(r.ran, h.k)
	r.step(false)
}

// byte returns the script's next byte, or 0 once it is used up.
func (r *orderRun) byte() byte {
	if r.next >= len(r.script) {
		return 0
	}
	r.next++
	return r.script[r.next-1]
}

func (r *orderRun) done() bool { return r.next >= len(r.script) }

// fail reports a mismatch and ends the script, so the engine drains.
// It may run in a process, where Fatal cannot.
func (r *orderRun) fail(format string, args ...any) {
	r.t.Errorf(format, args...)
	r.next = len(r.script)
}

// queued records the event the engine has just keyed.
func (r *orderRun) queued(at, start Time) orderKey {
	k := orderKey{at, r.e.seq, start}
	r.sched = append(r.sched, k)
	return k
}

func (r *orderRun) atHandler(t Time) {
	h := &orderEvent{r: r}
	r.e.AtHandler(t, t, h)
	h.k = r.queued(t, t)
}

func (r *orderRun) atTimer(t Time) {
	h := &orderEvent{r: r}
	r.e.AtTimer(t, t, h)
	h.k = r.queued(t, t)
}

func (r *orderRun) enqueue(res *Resource, service Time) {
	h := &orderEvent{r: r}
	start, end := res.EnqueueHandler(service, h)
	h.k = r.queued(end, start)
}

// step performs one script operation. Processes take the same steps
// except for unparking, which belongs in event context.
func (r *orderRun) step(inProc bool) {
	if r.done() {
		return
	}
	e := r.e
	switch op := r.byte(); op % 8 {
	case 0:
		r.atHandler(e.now + Time(r.byte()%8))
	case 1:
		r.atTimer(e.now + Time(r.byte()%32))
	case 2:
		res := r.res[r.byte()%3]
		n, service := int(r.byte()%4)+1, Time(r.byte()%4)
		for i := 0; i < n; i++ {
			r.enqueue(res, service)
		}
	case 3:
		if len(r.procs) < 4 {
			r.spawn()
		}
	case 4:
		if !inProc {
			r.unpark()
		}
	case 5:
		r.checkDigest("digest step")
	case 6:
		r.res[r.byte()%3].Reserve(Time(r.byte() % 8))
	case 7:
		r.atHandler(e.now)
		r.atTimer(e.now)
	}
}

// spawn starts a scripted process; Go queues its first dispatch.
func (r *orderRun) spawn() {
	op := &orderProc{}
	r.procs = append(r.procs, op)
	op.p = r.e.Go(fmt.Sprintf("p%d", len(r.procs)), func(p *Proc) { r.procBody(op) })
	op.wake = r.queued(r.e.now, r.e.now)
}

func (r *orderRun) unpark() {
	for _, op := range r.procs {
		if op.parked {
			op.parked = false
			op.p.Unpark()
			op.wake = r.queued(r.e.now, r.e.now)
			return
		}
	}
}

// procBody runs a process's share of the script. Every wake it takes,
// in place or scheduled, is recorded as one event: a Sleep keys its
// wake with the next sequence number either way.
func (r *orderRun) procBody(op *orderProc) {
	e, p := r.e, op.p
	for {
		if e.now != op.wake.at {
			r.fail("process woke at %d for wake %v", e.now, op.wake)
		}
		r.ran = append(r.ran, op.wake)
		for {
			if r.done() {
				return
			}
			b := r.byte()
			if b%4 == 3 {
				r.step(true)
				continue
			}
			if b%4 == 2 {
				op.parked = true
				p.Park()
				break
			}
			d := Time(r.byte() % 8)
			if d == 0 {
				p.Sleep(0) // no event at all
				continue
			}
			t := e.now + d
			op.wake = orderKey{t, e.seq + 1, t}
			r.sched = append(r.sched, op.wake)
			p.Sleep(d)
			break
		}
	}
}

// pending returns the events queued and not yet run, in scheduling
// order.
func (r *orderRun) pending() []orderKey {
	ran := make(map[uint64]bool, len(r.ran))
	for _, k := range r.ran {
		ran[k.seq] = true
	}
	var out []orderKey
	for _, k := range r.sched {
		if !ran[k.seq] {
			out = append(out, k)
		}
	}
	return out
}

// checkDigest compares the engine's digest with that of a plain engine
// whose one heap holds the same pending events.
func (r *orderRun) checkDigest(where string) {
	e := r.e
	plain := &Engine{now: e.now, seq: e.seq, nEvents: e.nEvents}
	for _, k := range r.pending() {
		plain.events.push(event{at: k.at, seq: k.seq, start: k.start, h: handlerFunc(func(_, _ Time) {})})
	}
	got, want := NewDigest(), NewDigest()
	e.DigestInto(got)
	plain.DigestInto(want)
	if got.Sum() != want.Sum() {
		r.fail("%s at %d: digest %#x, plain heap with the same %d pending events %#x",
			where, e.now, got.Sum(), len(r.pending()), want.Sum())
	}
}

// runOrderScript executes one script: its first byte picks the Run
// deadline slice (0: one Run to quiescence), two root events start it.
func runOrderScript(t *testing.T, script []byte) {
	r := &orderRun{t: t, e: NewEngine()}
	defer r.e.Release()
	for i := range r.res {
		r.res[i] = NewResource(r.e)
	}
	var slice Time
	if len(script) > 0 {
		slice = Time(script[0] % 4 * 5)
		r.script = script[1:]
	}
	r.atHandler(0)
	r.atHandler(0)
	if slice == 0 {
		r.e.RunUntilQuiet()
	} else {
		for r.e.events.len()+r.e.timers.len() > 0 {
			r.e.Run(r.e.Now() + slice)
			r.checkDigest("deadline")
		}
	}

	want := slices.Clone(r.sched)
	slices.SortFunc(want, func(x, y orderKey) int {
		return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.seq, y.seq))
	})
	if !slices.Equal(r.ran, want) {
		t.Fatalf("executed %v\nsorted schedule %v", r.ran, want)
	}
	if r.e.Events() != uint64(len(r.ran)) {
		t.Fatalf("engine counted %d events, %d ran", r.e.Events(), len(r.ran))
	}
	r.checkDigest("end")
}

func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		runOrderScript(t, script)
	})
}
