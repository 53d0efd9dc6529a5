package nic

import (
	"testing"

	"genima/internal/faults"
	"genima/internal/sim"
	"genima/internal/topo"
)

func newFaultySystem(t *testing.T, fp topo.FaultPlan) (*sim.Engine, *System, *topo.Config) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := topo.Default()
	cfg.Faults = fp
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return eng, NewSystem(eng, &cfg), &cfg
}

// sendBurst posts n max-size data packets 0 -> 1, each tagged with its
// index in Meta, and returns the per-index delivery counts and order.
func sendBurst(eng *sim.Engine, sys *System, n, size int) (counts []int, order []int) {
	counts = make([]int, n)
	orderPtr := &order
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			i := i
			pkt := sys.NIs[0].NewPacket()
			pkt.Src, pkt.Dst, pkt.Size, pkt.Kind, pkt.Meta = 0, 1, size, "burst", i
			pkt.DeliverTo = deliverFunc(func(*Packet) {
				counts[i]++
				*orderPtr = append(*orderPtr, i)
			})
			sys.NIs[0].Post(p, pkt)
		}
	})
	eng.RunUntilQuiet()
	return counts, order
}

// checkExactlyOnceInOrder asserts the reliable layer's contract: every
// packet delivered exactly once, in posting order.
func checkExactlyOnceInOrder(t *testing.T, counts, order []int) {
	t.Helper()
	for i, c := range counts {
		if c != 1 {
			t.Errorf("packet %d delivered %d times, want exactly once", i, c)
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Errorf("delivery order violated: %v", order)
			break
		}
	}
}

// Max-size packets through a lossy link: go-back-N must deliver each
// 4 KB packet exactly once, in order, with recovery recorded.
func TestReliableMaxSizePacketsUnderDrop(t *testing.T) {
	fp := topo.FaultPlan{Enabled: true, Seed: 21, DropRate: 0.2}
	eng, sys, cfg := newFaultySystem(t, fp)
	counts, order := sendBurst(eng, sys, 40, cfg.MaxPacket)
	checkExactlyOnceInOrder(t, counts, order)
	if sys.Fabric.Faults.Report().DropsInjected == 0 {
		t.Fatal("20% plan dropped nothing over 40 packets")
	}
	rel := sys.RelReport()
	if rel.RetxSent == 0 {
		t.Error("drops occurred but nothing was retransmitted")
	}
	if rel.Recovered == 0 {
		t.Error("no recovery time recorded")
	}
}

// Duplication and corruption: dups must be suppressed, corrupt packets
// discarded and retransmitted, and delivery still exactly-once.
func TestReliableDupAndCorrupt(t *testing.T) {
	fp := topo.FaultPlan{Enabled: true, Seed: 8, DupRate: 0.3, CorruptRate: 0.2}
	eng, sys, _ := newFaultySystem(t, fp)
	counts, order := sendBurst(eng, sys, 40, 256)
	checkExactlyOnceInOrder(t, counts, order)
	rel := sys.RelReport()
	injRep := sys.Fabric.Faults.Report()
	inj := &injRep
	if inj.DupsInjected == 0 || rel.DupsSuppressed == 0 {
		t.Errorf("dups injected=%d suppressed=%d, want both > 0",
			inj.DupsInjected, rel.DupsSuppressed)
	}
	if inj.CorruptsInjected == 0 || rel.CorruptDropped == 0 {
		t.Errorf("corrupt injected=%d dropped=%d, want both > 0",
			inj.CorruptsInjected, rel.CorruptDropped)
	}
}

// Broadcast fan-out with one destination's in-link down: the live
// destinations deliver from the fan-out; the downed one recovers by
// unicast retransmission after the window lifts. Exactly one delivery
// per destination either way.
func TestBroadcastFanOutUnderDownedLink(t *testing.T) {
	const windowEnd = 3_000_000 // 3 ms, several retx timeouts long
	fp := topo.FaultPlan{Enabled: true, Down: []topo.DownWindow{
		{Node: 2, Dir: topo.InOnly, From: 0, Until: windowEnd},
	}}
	eng, sys, _ := newFaultySystem(t, fp)
	got := map[int]int{}
	var lastAt sim.Time
	eng.Go("caster", func(p *sim.Proc) {
		tmpl := sys.NIs[0].NewPacket()
		tmpl.Src, tmpl.Size, tmpl.Kind = 0, 1024, "bcast"
		tmpl.DeliverTo = deliverFunc(func(pkt *Packet) {
			got[pkt.Dst]++
			lastAt = eng.Now()
		})
		sys.NIs[0].PostBroadcast(p, tmpl, []int{1, 2, 3})
	})
	eng.RunUntilQuiet()
	for _, dst := range []int{1, 2, 3} {
		if got[dst] != 1 {
			t.Errorf("dst %d got %d deliveries, want 1", dst, got[dst])
		}
	}
	if lastAt < windowEnd {
		t.Errorf("all deliveries done at %d, before the down window lifted at %d", lastAt, windowEnd)
	}
	if sys.Fabric.Faults.Report().DownDrops == 0 {
		t.Error("down window dropped nothing")
	}
	if sys.RelReport().RetxSent == 0 {
		t.Error("downed destination was never retransmitted to")
	}
}

// A broadcast template corrupted on its shared out-link reaches every
// destination corrupted: each copy is the template by value, so every
// destination discards its copy, and each then receives the message
// exactly once, ahead of the unicasts that followed it, through
// per-destination retransmission. The seed is chosen so that the
// template's out-link crossing is corrupted and each copy's first
// in-link crossing is clean: a copy that lost the template's
// corruption would be accepted on first arrival.
func TestBroadcastCorruptedOnSharedLink(t *testing.T) {
	dsts := []int{1, 2, 3}
	fp := topo.FaultPlan{Enabled: true, CorruptRate: 0.1}
	for fp.Seed = 1; ; fp.Seed++ {
		pl := faults.New(&fp, 4)
		if v := pl.JudgeOut(0, 0); v.Drop || v.CorruptMask == 0 {
			continue
		}
		clean := true
		for _, d := range dsts {
			clean = clean && pl.JudgeIn(d, 0) == faults.Verdict{}
		}
		if clean {
			break
		}
	}
	eng := sim.NewEngine()
	cfg := topo.Default()
	cfg.NIBroadcast = true
	cfg.Faults = fp
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(eng, &cfg)
	const unicasts = 3
	order := map[int][]int{}
	var firstAt sim.Time
	eng.Go("caster", func(p *sim.Proc) {
		ni := sys.NIs[0]
		tmpl := ni.NewPacket()
		tmpl.Src, tmpl.Size, tmpl.Kind = 0, 512, "bcast"
		tmpl.DeliverTo = deliverFunc(func(pkt *Packet) {
			order[pkt.Dst] = append(order[pkt.Dst], 0)
			if firstAt == 0 {
				firstAt = eng.Now()
			}
		})
		ni.PostBroadcast(p, tmpl, dsts)
		for i := 1; i <= unicasts; i++ {
			for _, d := range dsts {
				pkt := ni.NewPacket()
				pkt.Src, pkt.Dst, pkt.Size, pkt.Kind, pkt.Meta = 0, d, 64, "after", i
				pkt.DeliverTo = deliverFunc(func(q *Packet) { order[q.Dst] = append(order[q.Dst], q.Meta) })
				ni.Post(p, pkt)
			}
		}
	})
	eng.RunUntilQuiet()
	for _, d := range dsts {
		if got := sys.NIs[d].rel.Report.CorruptDropped; got == 0 {
			t.Errorf("dst %d discarded nothing, want its corrupted copy discarded", d)
		}
		if got := order[d]; len(got) != unicasts+1 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
			t.Errorf("dst %d delivered %v, want [0 1 2 3]", d, got)
		}
	}
	if firstAt < cfg.Costs.RetxTimeout {
		t.Errorf("first broadcast delivery at %d, before the %d retransmission timeout", firstAt, cfg.Costs.RetxTimeout)
	}
}

// Reorder delays must not disturb switch busy-time accounting: delays
// are injected after the in-link, so the switch still charges exactly
// one fixed routing slot per packet that crossed it.
func TestSwitchBusyTimeWithDelayedPackets(t *testing.T) {
	fp := topo.FaultPlan{Enabled: true, Seed: 13,
		DelayRate: 0.5, DelayMax: sim.Micro(200)}
	eng, sys, cfg := newFaultySystem(t, fp)
	counts, order := sendBurst(eng, sys, 30, 512)
	checkExactlyOnceInOrder(t, counts, order)
	injRep := sys.Fabric.Faults.Report()
	inj := &injRep
	if inj.DelaysInjected == 0 {
		t.Fatal("50% delay plan delayed nothing over 30 packets")
	}
	busy := sys.Fabric.Switches[0].BusyTime
	fixed := cfg.Costs.SwitchFixed
	if busy%fixed != 0 {
		t.Errorf("switch busy time %d is not a multiple of the %d routing slot", busy, fixed)
	}
	if busy < 30*fixed {
		t.Errorf("switch busy %d < 30 routing slots; data packets bypassed the switch", busy)
	}
}

// A delayed packet lets later traffic overtake it; go-back-N discards
// the overtakers and recovers them by retransmission, so order and
// exactly-once still hold end to end. (OOODropped is only nonzero when
// the drawn delays actually caused an overtake, so it is not asserted.)
func TestReliableReorderRecovery(t *testing.T) {
	fp := topo.FaultPlan{Enabled: true, Seed: 4,
		DelayRate: 0.4, DelayMax: sim.Micro(500), DropRate: 0.05}
	eng, sys, _ := newFaultySystem(t, fp)
	counts, order := sendBurst(eng, sys, 60, 64)
	checkExactlyOnceInOrder(t, counts, order)
	if n := len(order); n != 60 {
		t.Fatalf("%d deliveries, want 60", n)
	}
}

// Firmware-handled packets (the GeNIMA remote-fetch/NI-lock path) sit
// behind the same sequence gate: a dropped request is retransmitted and
// the handler runs exactly once.
func TestReliableFirmwareHandledPackets(t *testing.T) {
	fp := topo.FaultPlan{Enabled: true, Seed: 31, DropRate: 0.25}
	eng, sys, _ := newFaultySystem(t, fp)
	const n = 30
	counts := make([]int, n)
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			i := i
			pkt := sys.NIs[0].NewPacket()
			pkt.Src, pkt.Dst, pkt.Size, pkt.Kind, pkt.Meta = 0, 1, 64, "fw-req", i
			pkt.FwHandler = func(_ *NI, q *Packet) { counts[q.Meta]++ }
			sys.NIs[0].Post(p, pkt)
			_ = i
		}
	})
	eng.RunUntilQuiet()
	for i, c := range counts {
		if c != 1 {
			t.Errorf("fw request %d handled %d times, want exactly once", i, c)
		}
	}
	if sys.RelReport().RetxSent == 0 {
		t.Error("no retransmissions at 25% drop")
	}
}

// The zero-overhead off switch at the unit level: with faults disabled,
// no NI has reliability state, packets carry zero headers, and service
// times match the pre-faults formulas exactly.
func TestFaultsOffHasNoRelState(t *testing.T) {
	eng, sys, cfg := newTestSystem(t)
	for _, ni := range sys.NIs {
		if ni.rel != nil {
			t.Fatal("rel state allocated with faults disabled")
		}
	}
	if sys.Fabric.Faults != nil {
		t.Fatal("fault plan allocated with faults disabled")
	}
	ni := sys.NIs[0]
	want := cfg.Costs.NIPerPacket + sim.Time(float64(4096)*cfg.Costs.NIPerByte)
	if got := ni.fwRecvService(4096); got != want {
		t.Errorf("fwRecvService = %d, want %d (reliability surcharge leaked)", got, want)
	}
	_ = eng
}

// A link duplicate is the same packet as its original: when the
// original is held for a reorder delay, the duplicate overtakes it and
// is the copy delivered, so it must carry every field the monitor
// reads. Firmware-originated packets (and their retransmissions) never
// had a source DMA, so their uncontended Source time stays zero
// whichever copy is delivered.
func TestDuplicateKeepsFirmwareOrigin(t *testing.T) {
	fp := topo.FaultPlan{Enabled: true, Seed: 3,
		DupRate: 0.5, DelayRate: 0.5, DelayMax: sim.Micro(200)}
	eng, sys, _ := newFaultySystem(t, fp)
	const n = 40
	counts := make([]int, n)
	eng.AtHandler(0, 0, thunk(func() {
		for i := 0; i < n; i++ {
			pkt := sys.NIs[0].NewPacket()
			pkt.Src, pkt.Dst, pkt.Size, pkt.Kind, pkt.Meta = 0, 1, 64, "grant", i
			pkt.DeliverTo = deliverFunc(func(q *Packet) { counts[q.Meta]++ })
			sys.NIs[0].FirmwareSend(pkt, false)
		}
	}))
	eng.RunUntilQuiet()
	for i, c := range counts {
		if c != 1 {
			t.Errorf("packet %d delivered %d times, want exactly once", i, c)
		}
	}
	if sys.Fabric.Faults.Report().DupsInjected == 0 || sys.RelReport().DupsSuppressed == 0 {
		t.Fatal("plan injected or suppressed no duplicates")
	}
	if got := sys.Monitor.ByClass[Small].Uncontended[StageSource]; got != 0 {
		t.Errorf("uncontended Source time %d for firmware-originated packets, want 0", got)
	}
}
