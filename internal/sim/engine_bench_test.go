package sim

// Wall-clock micro-benchmarks for the simulation hot paths: event
// scheduling/dispatch (the typed 4-ary heap, resource lanes and the
// timer heap) and process switching (two coroutine switches per
// dispatch). `make bench-smoke` runs these once; compare before/after
// with `go test -bench . -benchmem ./internal/sim`.

import (
	"testing"
)

// tick is a self-rescheduling local event: left more firings, step
// apart, on a fixed engine.
type tick struct {
	e    *Engine
	step Time
	left int
}

func (t *tick) Run(_, now Time) {
	if t.left == 0 {
		return
	}
	t.left--
	t.e.AtHandler(now+t.step, now, t)
}

// BenchmarkEngineAtRun measures schedule+dispatch throughput: depth
// self-rescheduling ticks hold a standing queue, so each iteration pops
// one event and pushes one, the steady-state mix of a protocol
// simulation.
func BenchmarkEngineAtRun(b *testing.B) {
	e := NewEngine()
	const depth = 1024
	ticks := make([]tick, depth)
	for i := range ticks {
		n := b.N / depth // firings of this tick; they sum to b.N
		if i < b.N%depth {
			n++
		}
		if n == 0 {
			continue
		}
		ticks[i] = tick{e: e, step: depth, left: n - 1}
		e.AtHandler(Time(i), 0, &ticks[i])
	}
	b.ResetTimer()
	e.RunUntilQuiet()
	b.ReportMetric(float64(e.Events())/float64(b.N), "events/op")
}

// BenchmarkEventQueuePushPop measures raw heap operations on a deep
// queue with heavy timestamp ties (the tie-break path).
func BenchmarkEventQueuePushPop(b *testing.B) {
	var q eventQueue
	for i := 0; i < 4096; i++ {
		q.push(event{at: Time(i % 64), seq: uint64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		e.seq = uint64(4096 + i)
		e.at += 64
		q.push(e)
	}
}

// BenchmarkEventCascade measures a self-rescheduling event chain: the
// pattern of timers and resource completions in the NI model.
func BenchmarkEventCascade(b *testing.B) {
	e := NewEngine()
	e.AtHandler(10, 0, &tick{e: e, step: 10, left: b.N - 1})
	b.ResetTimer()
	e.RunUntilQuiet()
	if got := e.Events(); got != uint64(b.N) {
		b.Fatalf("ran %d ticks, want %d", got, b.N)
	}
}

// BenchmarkResourceBacklog measures one resource with a standing FIFO
// backlog of 4096 jobs, in ns per completion: each completion queues
// its successor, the pattern of a congested link or switch under a
// large flat barrier.
func BenchmarkResourceBacklog(b *testing.B) {
	e := NewEngine()
	r := NewResource(e)
	const backlog = 4096
	jobs := make([]backlogJob, backlog)
	for i := range jobs {
		n := b.N / backlog // completions of this job; they sum to b.N
		if i < b.N%backlog {
			n++
		}
		if n == 0 {
			continue
		}
		jobs[i] = backlogJob{r: r, left: n - 1}
		r.EnqueueHandler(1, &jobs[i])
	}
	b.ResetTimer()
	e.RunUntilQuiet()
	if got := e.Events(); got != uint64(b.N) {
		b.Fatalf("ran %d completions, want %d", got, b.N)
	}
}

// churnTimer is a far timer rearmed by moving its deadline, in the
// style of the NI's retransmit timer: a queued event that fires before
// the deadline puts itself back at the deadline.
type churnTimer struct {
	e        *Engine
	deadline Time
}

func (t *churnTimer) Run(_, now Time) {
	if now < t.deadline {
		t.e.AtTimer(t.deadline, 0, t)
	}
}

// churnTick is one of a few self-rescheduling hot events; each firing
// rearms the next far timer, and the firing that finds no work left
// stops the engine.
type churnTick struct {
	e      *Engine
	timers []churnTimer
	left   *int
}

func (h *churnTick) Run(_, now Time) {
	if *h.left == 0 {
		h.e.Stop()
		return
	}
	*h.left--
	h.timers[*h.left%len(h.timers)].deadline = now + 4096
	h.e.AtHandler(now+8, now, h)
}

// BenchmarkTimerChurn measures 1024 rearmed far timers beside a
// shallow hot queue of 8 self-rescheduling events, in ns per hot
// event; the timers refire about once per four hot events.
func BenchmarkTimerChurn(b *testing.B) {
	e := NewEngine()
	timers := make([]churnTimer, 1024)
	for i := range timers {
		timers[i] = churnTimer{e: e, deadline: 4096}
		e.AtTimer(4096, 0, &timers[i])
	}
	left := b.N
	ticks := make([]churnTick, 8)
	for i := range ticks {
		ticks[i] = churnTick{e: e, timers: timers, left: &left}
		e.AtHandler(Time(i), 0, &ticks[i])
	}
	b.ResetTimer()
	e.RunUntilQuiet()
}

// BenchmarkProcSleepInPlace measures a lone process's 1-tick Sleep.
// Its wake is always the next event, so Sleep advances the clock in
// place and never switches coroutines; BenchmarkProcPingPong measures
// the switch.
func BenchmarkProcSleepInPlace(b *testing.B) {
	e := NewEngine()
	e.Go("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.RunUntilQuiet()
}

// BenchmarkProcPingPong measures two processes handing a token back
// and forth through a pair of wait queues.
func BenchmarkProcPingPong(b *testing.B) {
	e := NewEngine()
	var qA, qB WaitQ
	var toA, toB int
	e.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			toB++
			qB.WakeOne()
			for toA == 0 {
				qA.Wait(p)
			}
			toA--
		}
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			for toB == 0 {
				qB.Wait(p)
			}
			toB--
			toA++
			qA.WakeOne()
		}
	})
	b.ResetTimer()
	e.RunUntilQuiet()
}
