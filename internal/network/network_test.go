package network_test

import (
	"sort"
	"testing"
	"testing/quick"

	"genima/internal/network"
	"genima/internal/nic"
	"genima/internal/sim"
	"genima/internal/topo"
)

// handlerFunc adapts a function to sim.Handler for one-off completions.
type handlerFunc func(start, end sim.Time)

func (f handlerFunc) Run(start, end sim.Time) { f(start, end) }

// traced builds an NI system on cfg whose monitor records every
// delivered packet. Routing and switch timing are checked through it:
// the NI transit pipeline is the only walk of a packet across the
// fabric's links and switches.
func traced(t *testing.T, cfg topo.Config) (*sim.Engine, *nic.System, *[]nic.TraceEvent) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	sys := nic.NewSystem(eng, &cfg)
	evs := &[]nic.TraceEvent{}
	sys.Monitor.Tracer = func(ev nic.TraceEvent) { *evs = append(*evs, ev) }
	return eng, sys, evs
}

// post spawns a host process that submits one n-byte src->dst packet
// at the current virtual time.
func post(eng *sim.Engine, sys *nic.System, src, dst, n int) {
	eng.Go("post", func(p *sim.Proc) {
		pkt := sys.NIs[src].NewPacket()
		pkt.Src, pkt.Dst, pkt.Size = src, dst, n
		sys.NIs[src].Post(p, pkt)
	})
}

// broadcast submits one n-byte packet from src to every node in dsts and
// records each copy's delivery time.
func broadcast(eng *sim.Engine, sys *nic.System, src int, dsts []int, n int) map[int]sim.Time {
	arrive := map[int]sim.Time{}
	ni := sys.NIs[src]
	eng.Go("bcast", func(p *sim.Proc) {
		tmpl := ni.NewPacket()
		tmpl.Src, tmpl.Dst, tmpl.Size = src, -1, n
		tmpl.DeliverTo = deliverFunc(func(pkt *nic.Packet) { arrive[pkt.Dst] = eng.Now() })
		ni.PostBroadcast(p, tmpl, dsts)
	})
	return arrive
}

// deliverFunc adapts a test closure to nic.Deliverer.
type deliverFunc func(pkt *nic.Packet)

func (f deliverFunc) Deliver(pkt *nic.Packet) { f(pkt) }

// wire is a delivered packet's time from network entry (out-link done)
// to its last byte at the destination NI: switch hops plus in-link,
// queueing included.
func wire(ev nic.TraceEvent) sim.Time {
	return ev.StageTime[nic.StageNet] - ev.StageTime[nic.StageLANai]
}

// uncontendedWire is wire's no-queueing value on the src->dst route.
func uncontendedWire(f *network.Fabric, src, dst, n int) sim.Time {
	return f.UncontendedNetRoute(src, dst, n) - f.Out[src].ServiceTime(n)
}

func TestLinkServiceTime(t *testing.T) {
	eng := sim.NewEngine()
	l := network.NewLink(eng, "l", sim.Micro(1), 1.0) // 1 ns/byte
	if got := l.ServiceTime(1000); got != sim.Micro(1)+1000 {
		t.Errorf("service = %d", got)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	eng := sim.NewEngine()
	l := network.NewLink(eng, "l", 0, 1.0)
	var ends []sim.Time
	done := handlerFunc(func(_, e sim.Time) { ends = append(ends, e) })
	l.TransferHandler(100, done)
	l.TransferHandler(100, done)
	eng.RunUntilQuiet()
	if len(ends) != 2 || ends[0] != 100 || ends[1] != 200 {
		t.Errorf("ends = %v", ends)
	}
}

func TestFabricEndToEnd(t *testing.T) {
	eng, sys, evs := traced(t, topo.Default())
	post(eng, sys, 0, 2, 4096)
	eng.RunUntilQuiet()
	if len(*evs) != 1 {
		t.Fatalf("%d deliveries, want 1", len(*evs))
	}
	ev := (*evs)[0]
	if ev.StageTime[nic.StageLANai] <= 0 || wire(ev) <= 0 {
		t.Fatalf("inject stage %d, wire %d", ev.StageTime[nic.StageLANai], wire(ev))
	}
	f := sys.Fabric
	if want := f.UncontendedNet(4096) - f.Out[0].ServiceTime(4096); wire(ev) != want {
		t.Errorf("wire = %d, uncontended = %d", wire(ev), want)
	}
}

func TestUncontendedNetMonotoneInSize(t *testing.T) {
	eng := sim.NewEngine()
	cfg := topo.Default()
	f := network.NewFabric(eng, &cfg)
	prop := func(a, b uint16) bool {
		sa, sb := int(a)+1, int(b)+1
		if sa > sb {
			sa, sb = sb, sa
		}
		return f.UncontendedNet(sa) <= f.UncontendedNet(sb)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchSharedAcrossPairs(t *testing.T) {
	// Two simultaneous sends on disjoint links still serialize at the
	// single crossbar (the model's stated pessimism): both reach it at
	// once, and the second waits out the first's routing slot.
	cfg := topo.Default()
	eng, sys, evs := traced(t, cfg)
	post(eng, sys, 0, 1, 64)
	post(eng, sys, 2, 3, 64)
	eng.RunUntilQuiet()
	if len(*evs) != 2 {
		t.Fatalf("%d deliveries, want 2", len(*evs))
	}
	w := []sim.Time{wire((*evs)[0]), wire((*evs)[1])}
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	u := uncontendedWire(sys.Fabric, 0, 1, 64)
	if w[0] != u || w[1] != u+cfg.Costs.SwitchFixed {
		t.Errorf("wires = %v, want [%d %d]: switch arbitration did not serialize the two routes",
			w, u, u+cfg.Costs.SwitchFixed)
	}
}

// Fault-hook edge cases: the fan-out and drop/delay injection points in
// the NI pipeline lean on these fabric properties.

// The 4 KB max-packet boundary: service times at MaxPacket must follow
// the exact per-byte formula (no truncation or rounding cliff at the
// boundary), since a full page transfer always rides a max-size packet.
func TestMaxPacketBoundaryServiceTimes(t *testing.T) {
	eng := sim.NewEngine()
	cfg := topo.Default()
	f := network.NewFabric(eng, &cfg)
	for _, n := range []int{cfg.MaxPacket - 1, cfg.MaxPacket} {
		want := cfg.Costs.LinkFixed + sim.Time(float64(n)*cfg.Costs.LinkPerByte)
		if got := f.Out[0].ServiceTime(n); got != want {
			t.Errorf("out-link service(%d) = %d, want %d", n, got, want)
		}
		if got := f.In[0].ServiceTime(n); got != want {
			t.Errorf("in-link service(%d) = %d, want %d", n, got, want)
		}
	}
	want := f.Out[0].ServiceTime(cfg.MaxPacket) + f.Switches[0].ServiceTime() +
		f.In[0].ServiceTime(cfg.MaxPacket)
	if got := f.UncontendedNet(cfg.MaxPacket); got != want {
		t.Errorf("UncontendedNet(MaxPacket) = %d, want %d", got, want)
	}
	if d := f.UncontendedNet(cfg.MaxPacket) - f.UncontendedNet(cfg.MaxPacket-1); d <= 0 {
		t.Errorf("last byte at the 4 KB boundary costs %d, want > 0", d)
	}
}

// The fault plan hangs off the fabric only when enabled, and with its
// configured seed: the NI pipeline nil-checks Fabric.Faults for its
// zero-overhead off switch.
func TestFabricFaultPlanConstruction(t *testing.T) {
	eng := sim.NewEngine()
	cfg := topo.Default()
	if f := network.NewFabric(eng, &cfg); f.Faults != nil {
		t.Fatal("fault plan built with faults disabled")
	}
	cfg.Faults = topo.FaultMix(0.5, 123)
	f := network.NewFabric(eng, &cfg)
	if f.Faults == nil {
		t.Fatal("no fault plan built with faults enabled")
	}
	saw := false
	for i := 0; i < 50 && !saw; i++ {
		v := f.Faults.JudgeIn(0, 0)
		saw = v.Drop || v.Dup || v.Delay > 0 || v.CorruptMask != 0
	}
	if !saw {
		t.Error("enabled 50% fault plan judged 50 packets clean")
	}
}

// Broadcast fan-out replicates onto every destination in-link
// independently: one slow (busy) in-link must not delay the copies
// bound for the other destinations — the property that lets a downed
// link stall only its own destination.
func TestBroadcastFanOutIndependentInLinks(t *testing.T) {
	eng, sys, _ := traced(t, topo.Default())
	// Pre-load node 2's in-link with a transfer that outlasts the
	// broadcast's trip to the switch.
	sys.Fabric.In[2].TransferHandler(1<<20, handlerFunc(func(_, _ sim.Time) {}))
	arrive := broadcast(eng, sys, 0, []int{1, 2, 3}, 64)
	eng.RunUntilQuiet()
	if len(arrive) != 3 {
		t.Fatalf("%d deliverFunc, want 3", len(arrive))
	}
	if arrive[1] != arrive[3] {
		t.Errorf("idle destinations arrived apart: %d vs %d", arrive[1], arrive[3])
	}
	if arrive[2] <= arrive[1] {
		t.Errorf("busy in-link did not delay its own copy: dst2=%d dst1=%d", arrive[2], arrive[1])
	}
}

// Multi-stage fabric regression: routed sends must charge every switch
// on the compiled route, and per-stage busy accounting must see it.

func clos2(nodes, radix int) topo.Config {
	cfg := topo.Default()
	cfg.Topo, cfg.SwitchRadix, cfg.Nodes = topo.TopoClos2, radix, nodes
	return cfg
}

func TestMultiStageSendMatchesRouteTime(t *testing.T) {
	cfg := clos2(8, 4) // 2 hosts/leaf: 0->5 is 3 hops
	eng, sys, evs := traced(t, cfg)
	f := sys.Fabric
	if got := len(f.Route(0, 5)); got != 3 {
		t.Fatalf("route 0->5 has %d hops, want 3", got)
	}
	if got := len(f.Route(0, 1)); got != 1 {
		t.Fatalf("route 0->1 has %d hops, want 1", got)
	}
	post(eng, sys, 0, 1, 256)
	eng.RunUntilQuiet()
	post(eng, sys, 0, 5, 256)
	eng.RunUntilQuiet()
	if len(*evs) != 2 {
		t.Fatalf("%d deliveries, want 2", len(*evs))
	}
	sameLeaf, crossLeaf := (*evs)[0], (*evs)[1]
	if want := uncontendedWire(f, 0, 1, 256); wire(sameLeaf) != want {
		t.Errorf("same-leaf wire = %d, want %d", wire(sameLeaf), want)
	}
	if want := uncontendedWire(f, 0, 5, 256); wire(crossLeaf) != want {
		t.Errorf("cross-leaf wire = %d, want %d", wire(crossLeaf), want)
	}
	if d := f.UncontendedNetRoute(0, 5, 256) - f.UncontendedNetRoute(0, 1, 256); d != 2*cfg.Costs.SwitchFixed {
		t.Errorf("cross-leaf route costs %d more, want 2 switch hops = %d", d, 2*cfg.Costs.SwitchFixed)
	}
}

func TestPerStageBusyAccounting(t *testing.T) {
	cfg := clos2(8, 4)
	eng, sys, evs := traced(t, cfg)
	post(eng, sys, 0, 1, 64) // leaf-only
	post(eng, sys, 0, 5, 64) // leaf, spine, leaf
	eng.RunUntilQuiet()
	if len(*evs) != 2 {
		t.Fatalf("%d sends completed", len(*evs))
	}
	busy := sys.Fabric.StageBusy()
	if len(busy) != 2 {
		t.Fatalf("%d stages reported, want 2", len(busy))
	}
	sf := cfg.Costs.SwitchFixed
	if busy[0] != 3*sf {
		t.Errorf("leaf stage busy = %d, want %d (3 hops)", busy[0], 3*sf)
	}
	if busy[1] != sf {
		t.Errorf("spine stage busy = %d, want %d (1 hop)", busy[1], sf)
	}
}

func TestMultiStageBroadcastTraversesFirstSwitchOnce(t *testing.T) {
	cfg := clos2(8, 4)
	eng, sys, _ := traced(t, cfg)
	arrive := broadcast(eng, sys, 0, []int{1, 5}, 64)
	eng.RunUntilQuiet()
	if len(arrive) != 2 {
		t.Fatalf("%d deliverFunc", len(arrive))
	}
	// The shared leaf hop is charged once: exactly 1 (shared leaf) +
	// 2 (spine+leaf for dst 5) hops of busy time in total.
	var total sim.Time
	for _, b := range sys.Fabric.StageBusy() {
		total += b
	}
	sf := cfg.Costs.SwitchFixed
	if want := 3 * sf; total != want {
		t.Errorf("broadcast switch busy = %d, want %d", total, want)
	}
	if d := arrive[5] - arrive[1]; d != 2*sf {
		t.Errorf("3-hop copy arrived %d after the 1-hop copy, want 2 switch hops = %d", d, 2*sf)
	}
}
