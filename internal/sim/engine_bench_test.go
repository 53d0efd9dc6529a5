package sim

// Wall-clock micro-benchmarks for the simulation hot paths: event
// scheduling/dispatch (the typed 4-ary heap) and process switching (the
// two channel handoffs per dispatch). `make bench-smoke` runs these once;
// compare before/after with `go test -bench Engine -benchmem ./internal/sim`.

import (
	"testing"
)

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

// BenchmarkProcSwitch measures a full process dispatch round trip
// (engine -> goroutine -> engine) via 1-tick sleeps.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	e.Go("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.RunUntilQuiet()
}

// BenchmarkProcPingPong measures two processes alternating through a
// mailbox, the protocol-process communication pattern.
func BenchmarkProcPingPong(b *testing.B) {
	e := NewEngine()
	var mbA, mbB Mailbox[int]
	e.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mbB.Send(1)
			mbA.Recv(p)
		}
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			mbB.Recv(p)
			mbA.Send(1)
		}
	})
	b.ResetTimer()
	e.RunUntilQuiet()
}
