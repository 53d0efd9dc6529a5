package sim

// Tests for the process lifecycle on the coroutine hand-off: spawning
// from process and event context, dispatch of a finished process, a
// zero-allocation Sleep round trip, Release unwinding unfinished
// processes, a body's panic reaching the caller of Run (serial) or
// Cluster.Run (parallel, with the LP named), and the in-place Sleep
// fast path (exact against scheduled wakes; ties, Stop and Run's
// deadline fall back to the heap).

import (
	"fmt"
	"strings"
	"testing"
)

func TestProcSpawnFromProcAndHandler(t *testing.T) {
	e := NewEngine()
	var ran []string
	e.Go("parent", func(p *Proc) {
		p.Sleep(3)
		e.Go("child", func(c *Proc) {
			c.Sleep(2)
			ran = append(ran, fmt.Sprintf("child@%d", c.Now()))
		})
		p.Sleep(10)
		ran = append(ran, fmt.Sprintf("parent@%d", p.Now()))
	})
	schedule(e, 7, func() {
		e.Go("evchild", func(c *Proc) {
			c.Sleep(1)
			ran = append(ran, fmt.Sprintf("evchild@%d", c.Now()))
		})
	})
	e.RunUntilQuiet()
	want := "[child@5 evchild@8 parent@13]"
	if got := fmt.Sprint(ran); got != want {
		t.Fatalf("ran %s, want %s", got, want)
	}
}

func TestDispatchFinishedProcPanics(t *testing.T) {
	e := NewEngine()
	p := e.Go("shortlived", func(p *Proc) {})
	e.RunUntilQuiet()
	p.Unpark()
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "shortlived") {
			t.Fatalf("dispatch of a finished process: recovered %v, want a panic naming it", r)
		}
	}()
	e.RunUntilQuiet()
}

func TestProcSleepAllocatesNothing(t *testing.T) {
	e := NewEngine()
	defer e.Release()
	e.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	e.Run(1) // first dispatch and one wakeup: the queue slot exists
	allocs := testing.AllocsPerRun(1000, func() { e.Run(e.Now() + 1) })
	if allocs != 0 {
		t.Fatalf("Sleep(1) round trip allocates %v times, want 0", allocs)
	}
}

func TestReleaseUnwindsUnfinishedProcs(t *testing.T) {
	e := NewEngine()
	var unwound []string
	parked := e.Go("parked", func(p *Proc) {
		defer func() { unwound = append(unwound, "parked") }()
		p.Park()
		t.Error("parked process resumed after Release")
	})
	e.Go("sleeper", func(p *Proc) {
		defer func() { unwound = append(unwound, "sleeper") }()
		p.Sleep(1000)
		t.Error("sleeping process resumed after Release")
	})
	e.Go("finished", func(p *Proc) {})
	e.Run(10)
	e.Go("unstarted", func(p *Proc) { t.Error("never-dispatched process ran on Release") })
	e.Release()
	if got := fmt.Sprint(unwound); got != "[parked sleeper]" {
		t.Fatalf("Release ran the deferred calls of %s, want [parked sleeper]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dispatching a released process did not panic")
		}
	}()
	parked.Unpark()
	e.RunUntilQuiet()
}

func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	defer e.Release()
	e.Go("bystander", func(p *Proc) { p.Park() })
	e.Go("faulty", func(p *Proc) {
		p.Sleep(5)
		panic("proc-boom")
	})
	defer func() {
		if r := recover(); r != "proc-boom" {
			t.Fatalf("RunUntilQuiet recovered %v, want the body's panic value", r)
		}
		if e.Now() != 5 {
			t.Errorf("panic surfaced at %d, want 5", e.Now())
		}
	}()
	e.RunUntilQuiet()
}

func TestProcPanicInRoundNamesLP(t *testing.T) {
	cl := NewCluster(2, 2, 2, 10, 10)
	defer cl.Release()
	main := cl.Main()
	// Both shards busy so rounds are parallel (worker pool engaged).
	main.AtHandler(0, 0, &tick{e: main, step: 4, left: 50})
	main.LPNode(1).Go("faulty", func(p *Proc) {
		for p.Now() < 40 {
			p.Sleep(4)
		}
		panic("proc-kaboom")
	})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "shard LP 1") || !strings.Contains(msg, "proc-kaboom") {
			t.Errorf("Cluster.Run panic %q, want the failing LP and cause identified", msg)
		}
	}()
	cl.Run()
}

// countDispatches wraps p's resume so the test can tell a Sleep that
// stayed in place (no dispatch) from one that took a scheduled wake.
func countDispatches(p *Proc) *int {
	n := new(int)
	resume := p.resume
	p.resume = func() (struct{}, bool) {
		*n++
		return resume()
	}
	return n
}

// stepper is the heap-path reference for a sleeping process: a handler
// that reschedules itself after each delay.
type stepper struct {
	e      *Engine
	delays []Time
	log    *[]string
}

func (s *stepper) Run(_, _ Time) {
	*s.log = append(*s.log, fmt.Sprintf("@%d events=%d", s.e.Now(), s.e.Events()))
	if len(s.delays) > 0 {
		d := s.delays[0]
		s.delays = s.delays[1:]
		s.e.AtHandler(s.e.Now()+d, s.e.Now()+d, s)
	}
}

// TestSleepFastPathMatchesScheduledWake: a process whose wakes are
// always the next event runs its sleeps in place — one dispatch in all —
// and the engine's clock, event count and digest match a handler that
// schedules the same wakes through the heap, with a later event queued
// throughout. In the second leg a timer falls due before one wake, so
// that sleep must go through the queue (two dispatches) and the timer
// must run first; everything else still matches.
func TestSleepFastPathMatchesScheduledWake(t *testing.T) {
	delays := []Time{10, 20, 5}
	for _, leg := range []struct {
		name       string
		timer      Time // a timer due at this time (0: none)
		dispatches int
	}{
		{"later event only", 0, 1},
		{"timer due before a wake", 15, 2},
	} {
		var fast, ref []string
		setup := func(e *Engine, log *[]string) {
			schedule(e, 100, func() {})
			if leg.timer > 0 {
				e.AtTimer(leg.timer, leg.timer, handlerFunc(func(_, now Time) {
					*log = append(*log, fmt.Sprintf("timer@%d events=%d", now, e.Events()))
				}))
			}
		}

		e := NewEngine()
		setup(e, &fast)
		p := e.Go("sleeper", func(p *Proc) {
			fast = append(fast, fmt.Sprintf("@%d events=%d", e.Now(), e.Events()))
			for _, d := range delays {
				p.Sleep(d)
				fast = append(fast, fmt.Sprintf("@%d events=%d", e.Now(), e.Events()))
			}
		})
		dispatches := countDispatches(p)
		e.RunUntilQuiet()

		r := NewEngine()
		setup(r, &ref)
		r.AtHandler(0, 0, &stepper{e: r, delays: delays, log: &ref})
		r.RunUntilQuiet()

		if fmt.Sprint(fast) != fmt.Sprint(ref) {
			t.Fatalf("%s: process saw %v, scheduled wakes saw %v", leg.name, fast, ref)
		}
		if *dispatches != leg.dispatches {
			t.Fatalf("%s: process dispatched %d times, want %d", leg.name, *dispatches, leg.dispatches)
		}
		de, dr := NewDigest(), NewDigest()
		e.DigestInto(de)
		r.DigestInto(dr)
		if e.Now() != r.Now() || e.Events() != r.Events() || de.Sum() != dr.Sum() {
			t.Fatalf("%s: engine now=%d events=%d digest %x, reference now=%d events=%d digest %x",
				leg.name, e.Now(), e.Events(), de.Sum(), r.Now(), r.Events(), dr.Sum())
		}
	}
}

// TestSleepTieTakesSlowPath: an event already queued at the wake time
// was scheduled first, so it must run before the process resumes.
func TestSleepTieTakesSlowPath(t *testing.T) {
	e := NewEngine()
	var order []string
	p := e.Go("sleeper", func(p *Proc) {
		p.Sleep(10)
		order = append(order, fmt.Sprintf("proc@%d", p.Now()))
	})
	schedule(e, 10, func() { order = append(order, fmt.Sprintf("event@%d", e.Now())) })
	dispatches := countDispatches(p)
	e.RunUntilQuiet()
	if got, want := fmt.Sprint(order), "[event@10 proc@10]"; got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	if *dispatches != 2 {
		t.Fatalf("process dispatched %d times, want 2 (the tied wake goes through the heap)", *dispatches)
	}
}

// TestSleepFastPathHonoursStop: after Stop, a sleep must not advance
// the clock in place; Run returns with the wake still queued.
func TestSleepFastPathHonoursStop(t *testing.T) {
	e := NewEngine()
	defer e.Release()
	resumed := false
	e.Go("stopper", func(p *Proc) {
		p.Sleep(5)
		e.Stop()
		p.Sleep(5)
		resumed = true
	})
	e.RunUntilQuiet()
	if resumed || e.Now() != 5 || e.Events() != 2 || e.events.len() != 1 {
		t.Fatalf("after Stop: resumed=%v now=%d events=%d queued=%d, want false 5 2 1",
			resumed, e.Now(), e.Events(), e.events.len())
	}
}

// TestSleepFastPathHonoursDeadline: a wake past Run's deadline is
// queued for a later Run, not taken in place.
func TestSleepFastPathHonoursDeadline(t *testing.T) {
	e := NewEngine()
	var woke []Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10) // within the deadline: in place
		woke = append(woke, p.Now())
		p.Sleep(10) // past it: queued
		woke = append(woke, p.Now())
	})
	if now := e.Run(15); now != 15 || fmt.Sprint(woke) != "[10]" || e.events.len() != 1 {
		t.Fatalf("Run(15) = %d with wakes %v and %d queued, want 15 [10] 1", now, woke, e.events.len())
	}
	e.RunUntilQuiet()
	if fmt.Sprint(woke) != "[10 20]" || e.Events() != 3 {
		t.Fatalf("wakes %v after %d events, want [10 20] after 3", woke, e.Events())
	}
}
