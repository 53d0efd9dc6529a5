package vmmc

import (
	"testing"

	"genima/internal/nic"
	"genima/internal/sim"
)

func TestDepositBroadcastReachesEveryNode(t *testing.T) {
	eng, l, _ := newLayer(6)
	var got []int
	eng.Go("s", func(p *sim.Proc) {
		l.Endpoint(2).DepositBroadcast(p, 64, "notice", func(dst int) {
			got = append(got, dst)
		})
	})
	eng.RunUntilQuiet()
	if len(got) != 5 {
		t.Fatalf("delivered to %d nodes, want 5 (%v)", len(got), got)
	}
	seen := map[int]bool{}
	for _, d := range got {
		if d == 2 {
			t.Error("broadcast delivered to its own sender")
		}
		if seen[d] {
			t.Errorf("duplicate delivery to %d", d)
		}
		seen[d] = true
	}
}

func TestDepositBroadcastCheaperForSender(t *testing.T) {
	// One post instead of N-1: the sender-side cost must not scale
	// with the node count.
	cost := func(nodes int, broadcast bool) sim.Time {
		eng, l, _ := newLayer(nodes)
		var dt sim.Time
		eng.Go("s", func(p *sim.Proc) {
			t0 := p.Now()
			if broadcast {
				l.Endpoint(0).DepositBroadcast(p, 64, "n", nil)
			} else {
				for d := 1; d < nodes; d++ {
					l.Endpoint(0).Deposit(p, d, 64, "n", nil, nil)
				}
			}
			dt = p.Now() - t0
		})
		eng.RunUntilQuiet()
		return dt
	}
	if b, u := cost(8, true), cost(8, false); b >= u {
		t.Errorf("broadcast sender cost %d not below unicast %d", b, u)
	}
}

// sgFunc adapts a plain function to SGApplier.
type sgFunc func()

func (f sgFunc) ApplySG() { f() }

// TestDepositGatheredHandledInFirmware installs no Sink at the
// destination, so a host interrupt there would panic.
func TestDepositGatheredHandledInFirmware(t *testing.T) {
	eng, l, _ := newLayer(2)
	applied := false
	eng.Go("s", func(p *sim.Proc) {
		l.Endpoint(0).DepositGatheredTo(p, 1, 600, "sg", sgFunc(func() { applied = true }))
	})
	eng.RunUntilQuiet()
	if !applied {
		t.Fatal("gathered deposit never applied")
	}
}

func TestDepositGatheredMultiPacket(t *testing.T) {
	eng, l, _ := newLayer(2)
	applied := 0
	eng.Go("s", func(p *sim.Proc) {
		l.Endpoint(0).DepositGatheredTo(p, 1, 10000, "sg", sgFunc(func() { applied++ }))
	})
	eng.RunUntilQuiet()
	if applied != 1 {
		t.Fatalf("apply ran %d times, want exactly once", applied)
	}
	if got := l.Monitor().TotalPackets(); got != 3 {
		t.Errorf("packets = %d, want 3 (10000 B / 4 KB)", got)
	}
}

func TestDepositGatheredSlowerPerByteThanPlain(t *testing.T) {
	// Scatter-gather charges NI occupancy per byte: a single gathered
	// message must take longer end-to-end than a plain deposit of the
	// same size (its win is in message count, not latency).
	timeOf := func(gathered bool) sim.Time {
		eng, l, _ := newLayer(2)
		var done sim.Time
		eng.Go("s", func(p *sim.Proc) {
			if gathered {
				l.Endpoint(0).DepositGatheredTo(p, 1, 4096, "x", sgFunc(func() { done = eng.Now() }))
			} else {
				l.Endpoint(0).Deposit(p, 1, 4096, "x", nil, func() { done = eng.Now() })
			}
		})
		eng.RunUntilQuiet()
		return done
	}
	if g, pl := timeOf(true), timeOf(false); g <= pl {
		t.Errorf("gathered latency %d not above plain %d (SG must cost NI occupancy)", g, pl)
	}
}

func TestRemoteFetchFromSelfPanics(t *testing.T) {
	eng, l, _ := newLayer(2)
	eng.Go("s", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("self-fetch did not panic")
			}
		}()
		l.Endpoint(1).RemoteFetch(p, 1, 64, "x-req", "x-reply", 0)
	})
	eng.RunUntilQuiet()
}

func TestInterruptWithoutSinkPanics(t *testing.T) {
	eng, l, _ := newLayer(2)
	defer func() {
		if recover() == nil {
			t.Error("interrupt without sink did not panic")
		}
	}()
	eng.Go("s", func(p *sim.Proc) {
		l.Endpoint(0).SendInterrupt(p, 1, 16, MsgKind(99), nil)
	})
	eng.RunUntilQuiet()
}

// splitAll expands the arithmetic nic.SplitStep iteration into the
// full packet-size list, the way every send loop walks it.
func splitAll(size, max int) []int {
	var out []int
	for rem := size; ; rem -= max {
		sz, last := nic.SplitStep(rem, max)
		out = append(out, sz)
		if last {
			return out
		}
	}
}

func TestPacketSplitBoundaries(t *testing.T) {
	_, _, cfg := newLayer(2)
	cases := map[int][]int{
		0:                 {0}, // zero-byte message still sends one packet
		1:                 {1},
		cfg.MaxPacket:     {cfg.MaxPacket},
		cfg.MaxPacket + 1: {cfg.MaxPacket, 1},
		3 * cfg.MaxPacket: {cfg.MaxPacket, cfg.MaxPacket, cfg.MaxPacket},
	}
	for size, want := range cases {
		got := splitAll(size, cfg.MaxPacket)
		if len(got) != len(want) {
			t.Errorf("splitAll(%d) = %v, want %v", size, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("splitAll(%d) = %v, want %v", size, got, want)
				break
			}
		}
	}
}
