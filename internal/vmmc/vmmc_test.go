package vmmc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"genima/internal/nic"
	"genima/internal/sim"
	"genima/internal/topo"
)

func newLayer(nodes int) (*sim.Engine, *Layer, topo.Config) {
	eng := sim.NewEngine()
	cfg := topo.Default()
	cfg.Nodes = nodes
	return eng, New(eng, &cfg), cfg
}

func TestDepositDelivers(t *testing.T) {
	eng, l, _ := newLayer(4)
	var got any
	eng.Go("s", func(p *sim.Proc) {
		l.Endpoint(0).Deposit(p, 2, 64, "notice", "hello", func() { got = "hello" })
	})
	eng.RunUntilQuiet()
	if got != "hello" {
		t.Fatal("deposit not delivered")
	}
}

func TestDepositSplitsLargeMessages(t *testing.T) {
	eng, l, _ := newLayer(2)
	delivered := false
	eng.Go("s", func(p *sim.Proc) {
		l.Endpoint(0).Deposit(p, 1, 10000, "big", nil, func() { delivered = true })
	})
	eng.RunUntilQuiet()
	if !delivered {
		t.Fatal("large deposit not delivered")
	}
	// 10000 bytes over 4096-byte packets = 3 packets, all large except the tail.
	if got := l.Monitor().TotalPackets(); got != 3 {
		t.Fatalf("packets = %d, want 3", got)
	}
}

// sinkFunc adapts a test closure to MsgSink.
type sinkFunc func(Msg)

func (f sinkFunc) HandleMsg(m Msg) { f(m) }

func TestInterruptDelivery(t *testing.T) {
	eng, l, cfg := newLayer(2)
	var sunk Msg
	var sunkAt, deliveredAt sim.Time
	perturbs := 0
	l.Endpoint(1).Sink = sinkFunc(func(m Msg) { sunk = m; sunkAt = eng.Now() })
	l.Endpoint(1).Perturb = func() { perturbs++; deliveredAt = eng.Now() }
	eng.Go("s", func(p *sim.Proc) {
		l.Endpoint(0).SendInterrupt(p, 1, 32, MsgPageReq, 42)
	})
	eng.RunUntilQuiet()
	if sunk.Payload != 42 || sunk.Src != 0 || sunk.Kind != MsgPageReq {
		t.Fatalf("sunk = %+v", sunk)
	}
	if got := sunkAt - deliveredAt; got != cfg.Costs.Interrupt {
		t.Errorf("interrupt dispatch delay = %d, want %d", got, cfg.Costs.Interrupt)
	}
	if perturbs != 1 {
		t.Errorf("perturbs = %d, want 1", perturbs)
	}
	if l.Endpoint(1).Interrupts != 1 {
		t.Errorf("interrupt count = %d", l.Endpoint(1).Interrupts)
	}
}

func TestRemoteFetchRoundTrip(t *testing.T) {
	eng, l, _ := newLayer(2)
	l.Endpoint(1).FetchServer = func(req FetchReq) FetchReply {
		if req.Tag != 7 || req.Src != 0 {
			t.Errorf("req = %+v", req)
		}
		return FetchReply{Payload: "data", Size: 4096}
	}
	var got FetchReply
	var at sim.Time
	eng.Go("s", func(p *sim.Proc) {
		got = l.Endpoint(0).RemoteFetch(p, 1, 4096, "page-req", "page-reply", 7)
		at = p.Now()
	})
	eng.RunUntilQuiet()
	if got.Payload != "data" {
		t.Fatalf("fetch reply = %+v", got)
	}
	// The paper measures ~110 µs for a 4 KB remote-fetch page operation.
	lo, hi := sim.Micro(90), sim.Micro(140)
	if at < lo || at > hi {
		t.Errorf("remote fetch of 4KB took %.1f µs, want ~110 µs", float64(at)/1000)
	}
}

func TestRemoteFetchOneWord(t *testing.T) {
	eng, l, _ := newLayer(2)
	l.Endpoint(1).FetchServer = func(req FetchReq) FetchReply {
		return FetchReply{Payload: uint64(7), Size: 8}
	}
	var at sim.Time
	eng.Go("s", func(p *sim.Proc) {
		l.Endpoint(0).RemoteFetch(p, 1, 8, "word-req", "word-reply", 0)
		at = p.Now()
	})
	eng.RunUntilQuiet()
	// Paper: ~40 µs for a one-word remote fetch.
	lo, hi := sim.Micro(30), sim.Micro(55)
	if at < lo || at > hi {
		t.Errorf("one-word remote fetch took %.1f µs, want ~40 µs", float64(at)/1000)
	}
}

func TestNILockBasicAcquireRelease(t *testing.T) {
	eng, l, _ := newLayer(4)
	var got any
	eng.Go("n1", func(p *sim.Proc) {
		ep := l.Endpoint(1)
		pl := ep.NILockAcquire(p, 5) // lock 5 homed at node 1
		if pl != nil {
			t.Errorf("first acquire payload = %v, want nil", pl)
		}
		ep.NILockRelease(p, 5, "ts-1", 32)
		got = ep.NILockAcquire(p, 5)
		ep.NILockRelease(p, 5, "ts-2", 32)
	})
	eng.RunUntilQuiet()
	if got != "ts-1" {
		t.Fatalf("reacquire payload = %v, want ts-1", got)
	}
}

func TestNILockHandoffBetweenNodes(t *testing.T) {
	eng, l, _ := newLayer(4)
	var order []int
	var payloads []any
	for n := 0; n < 4; n++ {
		n := n
		eng.Go("node", func(p *sim.Proc) {
			p.Sleep(sim.Time(n) * sim.Micro(10)) // stagger arrival
			ep := l.Endpoint(n)
			pl := ep.NILockAcquire(p, 9)
			order = append(order, n)
			payloads = append(payloads, pl)
			p.Sleep(sim.Micro(50)) // critical section
			ep.NILockRelease(p, 9, n, 8)
		})
	}
	eng.RunUntilQuiet()
	if len(order) != 4 {
		t.Fatalf("only %d acquires completed: %v", len(order), order)
	}
	// Each grant carries the previous holder's payload.
	for i := 1; i < 4; i++ {
		if payloads[i] != order[i-1] {
			t.Errorf("acquire %d payload = %v, want %v (prev holder)", i, payloads[i], order[i-1])
		}
	}
}

func TestNILockNoHostInterrupts(t *testing.T) {
	eng, l, _ := newLayer(4)
	for n := 0; n < 4; n++ {
		n := n
		eng.Go("node", func(p *sim.Proc) {
			ep := l.Endpoint(n)
			for i := 0; i < 5; i++ {
				ep.NILockAcquire(p, 3)
				p.Sleep(sim.Micro(5))
				ep.NILockRelease(p, 3, nil, 8)
			}
		})
	}
	eng.RunUntilQuiet()
	for n := 0; n < 4; n++ {
		if l.Endpoint(n).Interrupts != 0 {
			t.Errorf("node %d took %d interrupts during NI locking", n, l.Endpoint(n).Interrupts)
		}
	}
}

// Property: NI locks provide mutual exclusion and every acquire
// eventually completes, for random nodes/hold times.
func TestNILockMutualExclusionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(6)
		eng := sim.NewEngine()
		cfg := topo.Default()
		cfg.Nodes = nodes
		l := New(eng, &cfg)
		inCS := 0
		violations := 0
		completed := 0
		total := 0
		for n := 0; n < nodes; n++ {
			n := n
			iters := 1 + rng.Intn(4)
			hold := sim.Time(rng.Intn(100)+1) * sim.Microsecond
			delay := sim.Time(rng.Intn(50)) * sim.Microsecond
			total += iters
			eng.Go("node", func(p *sim.Proc) {
				ep := l.Endpoint(n)
				p.Sleep(delay)
				for i := 0; i < iters; i++ {
					ep.NILockAcquire(p, 1)
					inCS++
					if inCS > 1 {
						violations++
					}
					p.Sleep(hold)
					inCS--
					ep.NILockRelease(p, 1, nil, 8)
				}
				completed += iters
			})
		}
		eng.RunUntilQuiet()
		return violations == 0 && completed == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNILockCheaperThanInterruptPath(t *testing.T) {
	// An NI lock round trip (acquire from a different node than home)
	// must beat two interrupt costs — that is the whole point.
	eng, l, cfg := newLayer(4)
	var took sim.Time
	eng.Go("n2", func(p *sim.Proc) {
		t0 := p.Now()
		l.Endpoint(2).NILockAcquire(p, 1) // homed at node 1
		took = p.Now() - t0
	})
	eng.RunUntilQuiet()
	if took == 0 {
		t.Fatal("acquire did not complete")
	}
	if took > 2*cfg.Costs.Interrupt {
		t.Errorf("NI lock acquire took %.1f µs, slower than 2 interrupts (%.1f µs)",
			float64(took)/1000, float64(2*cfg.Costs.Interrupt)/1000)
	}
}

// countDeliver is a typed deliverer that counts deliveries.
type countDeliver struct{ n *int }

func (d countDeliver) Deliver(*nic.Packet) { *d.n++ }

// TestDepositPathsAllocateNothing: once the packet, transit and
// interrupt pools are warm, every send path allocates nothing per
// message from post to delivery, the closure adapters included.
func TestDepositPathsAllocateNothing(t *testing.T) {
	eng, l, _ := newLayer(4)
	defer eng.Release()
	delivered := 0
	count := func() { delivered++ }
	countDst := func(int) { delivered++ }
	typed := countDeliver{&delivered}
	l.Endpoint(1).Sink = sinkFunc(func(Msg) { delivered++ })
	ep := l.Endpoint(0)

	var op func(p *sim.Proc)
	sender := eng.Go("sender", func(p *sim.Proc) {
		for {
			p.Park()
			op(p)
		}
	})
	eng.RunUntilQuiet()
	for _, c := range []struct {
		name   string
		op     func(p *sim.Proc)
		copies int
	}{
		{"Deposit", func(p *sim.Proc) { ep.Deposit(p, 1, 64, "d", nil, count) }, 1},
		{"DepositTo", func(p *sim.Proc) { ep.DepositTo(p, 1, 64, "d", nil, typed) }, 1},
		{"DepositBroadcast", func(p *sim.Proc) { ep.DepositBroadcast(p, 64, "b", countDst) }, 3},
		{"SendInterrupt", func(p *sim.Proc) { ep.SendInterrupt(p, 1, 64, MsgDiff, nil) }, 1},
	} {
		op = c.op
		before := delivered
		const runs = 50
		allocs := testing.AllocsPerRun(runs, func() {
			sender.Unpark()
			eng.RunUntilQuiet()
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per message, want 0", c.name, allocs)
		}
		// AllocsPerRun makes one warm-up call before the measured runs.
		if got, want := delivered-before, (runs+1)*c.copies; got != want {
			t.Errorf("%s: %d deliveries, want %d", c.name, got, want)
		}
	}
}
