package sim

// Tests for the process lifecycle on the coroutine hand-off: spawning
// from process and event context, dispatch of a finished process, a
// zero-allocation Sleep round trip, Release unwinding unfinished
// processes, and a body's panic reaching the caller of Run (serial) or
// Cluster.Run (parallel, with the LP named).

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
