package sim

// Tests for the shard-granular cluster: node-to-shard mapping, the
// lone-shard fast path (no worker wakeups in quiescent phases), panic
// propagation out of a parallel round, progress under shard-to-shard
// traffic, and — through a miniature node/fabric network recorded via
// DeferFlush — byte-equal global event ordering for every (shards,
// workers) combination.

import (
	"fmt"
	"strings"
	"testing"
)

func TestShardMapping(t *testing.T) {
	cl := NewCluster(10, 4, 2, 10, 10)
	if got := cl.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	main := cl.Main()
	// Block partition: ceil(10/4) = 3 nodes per shard.
	wantShard := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	seen := map[*Engine]bool{}
	for i, w := range wantShard {
		lp := main.LPNode(i)
		if lp != cl.all[w] {
			t.Errorf("LPNode(%d) on shard %d, want %d", i, lp.lp, w)
		}
		seen[lp] = true
	}
	if len(seen) != 4 {
		t.Errorf("nodes map onto %d shard LPs, want 4", len(seen))
	}
	if cl.Main().LPFabric() == cl.Main().LPNode(9) {
		t.Error("fabric LP must be distinct from every shard LP")
	}
	// Shard counts clamp to [1, nodes].
	if got := NewCluster(4, 99, 2, 10, 10).Shards(); got != 4 {
		t.Errorf("shards clamp high: got %d, want 4", got)
	}
	if got := NewCluster(4, 0, 2, 10, 10).Shards(); got != 1 {
		t.Errorf("shards clamp low: got %d, want 1", got)
	}
}

// TestLoneShardNoWorkerWake: a quiescent phase — all activity on one
// shard, nothing anywhere else — must run entirely on the lone-LP fast
// path without waking the worker pool, no matter how many nodes share
// the shard.
func TestLoneShardNoWorkerWake(t *testing.T) {
	cl := NewCluster(8, 2, 4, 10, 10)
	main := cl.Main()
	// Nodes 0..3 live on shard 0; give several of them interleaved
	// local activity. Shard 1 and the fabric stay empty.
	for i := 0; i < 4; i++ {
		lp := main.LPNode(i)
		if lp != main {
			t.Fatalf("node %d not on shard 0", i)
		}
	}
	main.AtHandler(0, 0, &tick{e: main, step: 3, left: 100})
	main.AtHandler(1, 0, &tick{e: main, step: 5, left: 100})
	cl.Run()
	st := cl.Stats()
	if st.WorkerWakes != 0 {
		t.Errorf("lone-shard phase woke workers %d times, want 0", st.WorkerWakes)
	}
	if st.ParRounds != 0 {
		t.Errorf("lone-shard phase ran %d parallel rounds, want 0", st.ParRounds)
	}
	if st.LoneRounds == 0 {
		t.Error("expected lone-mode rounds")
	}
	if got := cl.Events(); got != 202 {
		t.Errorf("executed %d events, want 202", got)
	}
}

// boomAt panics when its firing time reaches boom; before that it
// behaves like tick.
type boomAt struct {
	e    *Engine
	step Time
	boom Time
}

func (b *boomAt) Run(_, now Time) {
	if now >= b.boom {
		panic("kaboom-test")
	}
	b.e.AtHandler(now+b.step, now, b)
}

// TestRoundPanicPropagates: a handler panic inside a parallel round
// must re-raise from Run with the failing LP identified — not deadlock
// the barrier WaitGroup.
func TestRoundPanicPropagates(t *testing.T) {
	cl := NewCluster(2, 2, 2, 10, 10)
	main := cl.Main()
	// Both shards busy so rounds are parallel (worker pool engaged).
	main.AtHandler(0, 0, &tick{e: main, step: 4, left: 50})
	lp1 := main.LPNode(1)
	lp1.AtHandler(0, 0, &boomAt{e: lp1, step: 4, boom: 40})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "shard LP 1") || !strings.Contains(msg, "kaboom-test") {
			t.Errorf("panic message %q, want the failing LP and cause identified", msg)
		}
	}()
	cl.Run()
}

// TestShardPingPongCompletes: a handler bounced between two shard LPs
// through Send must run to completion. Every hop is a cross-LP send at
// exactly the lookahead, so each round runs one event and the run
// depends on every barrier delivering its round's sends.
func TestShardPingPongCompletes(t *testing.T) {
	cl := NewCluster(2, 2, 2, 10, 10)
	eng := cl.Main()
	other := eng.LPNode(1)
	var got int
	var ping func(e *Engine, depth int)
	ping = func(e *Engine, depth int) {
		got++
		if depth == 0 {
			return
		}
		to := other
		if e == other {
			to = eng
		}
		e.Send(to, e.Now()+10, e.Now(), handlerFunc(func(_, _ Time) { ping(to, depth-1) }))
	}
	schedule(eng, 0, func() { ping(eng, 100) })
	cl.Run()
	if got != 101 {
		t.Fatalf("executed %d pings, want 101", got)
	}
}

// --- miniature node/fabric network for order-equivalence tests -------

// rec appends one formatted record when flushed; scheduled through
// DeferFlush it replays in global ordinal order at the barrier, so the
// collected log is the global serial execution order.
type rec struct {
	log *[]string
	s   string
}

func (r rec) Run(_, _ Time) { *r.log = append(*r.log, r.s) }

// relayNet wires n logical "nodes" to a relay "fabric": every node tick
// records itself, launches a packet to the fabric (lookahead nodeLA)
// that the fabric forwards to the next node (lookahead fabLA), and
// sends a hopping message straight to another node, the shape of the
// benchmark's shard-to-shard handoff. With a cluster the node engines
// are shard LPs and the relay runs on the fabric LP.
type relayNet struct {
	nodes  []*Engine
	fab    *Engine
	nodeLA Time
	fabLA  Time
	log    []string
}

type netTick struct {
	net  *relayNet
	id   int
	step Time
	left int
}

func (h *netTick) Run(_, now Time) {
	n := h.net
	e := n.nodes[h.id]
	e.DeferFlush(rec{&n.log, fmt.Sprintf("tick %d @%d", h.id, now)})
	e.Send(n.fab, now+n.nodeLA, now, &netRelay{net: n, from: h.id})
	to := (h.id + 3) % len(n.nodes)
	e.Send(n.nodes[to], now+n.nodeLA+Time(h.id%3), now, &netHop{net: n, from: h.id, at: to, left: 2})
	if h.left > 0 {
		h.left--
		e.AtHandler(now+h.step, now, h)
	}
}

type netRelay struct {
	net  *relayNet
	from int
}

func (h *netRelay) Run(_, now Time) {
	n := h.net
	n.fab.DeferFlush(rec{&n.log, fmt.Sprintf("relay %d @%d", h.from, now)})
	to := (h.from + 1) % len(n.nodes)
	n.fab.Send(n.nodes[to], now+n.fabLA, now, &netArr{net: n, at: to})
}

type netArr struct {
	net *relayNet
	at  int
}

func (h *netArr) Run(_, now Time) {
	n := h.net
	n.nodes[h.at].DeferFlush(rec{&n.log, fmt.Sprintf("arr %d @%d", h.at, now)})
}

// netHop is a node-to-node message that hops on to the next node until
// left runs out.
type netHop struct {
	net      *relayNet
	from, at int
	left     int
}

func (h *netHop) Run(_, now Time) {
	n := h.net
	e := n.nodes[h.at]
	e.DeferFlush(rec{&n.log, fmt.Sprintf("hop %d->%d @%d", h.from, h.at, now)})
	if h.left > 0 {
		to := (h.at + 1) % len(n.nodes)
		e.Send(n.nodes[to], now+n.nodeLA, now, &netHop{net: n, from: h.at, at: to, left: h.left - 1})
	}
}

// runNet executes the workload on a standalone engine (shards == 0)
// or on a cluster with the given shape, and returns the global-order
// log. Node i ticks with a distinct period so shards fall out of step.
func runNet(n, shards, workers int) (string, ClusterStats) {
	const nodeLA, fabLA = 5, 3
	nw := &relayNet{nodeLA: nodeLA, fabLA: fabLA}
	var cl *Cluster
	if shards == 0 {
		e := NewEngine()
		nw.fab = e.LPFabric()
		for i := 0; i < n; i++ {
			nw.nodes = append(nw.nodes, e.LPNode(i))
		}
	} else {
		cl = NewCluster(n, shards, workers, nodeLA, fabLA)
		nw.fab = cl.Main().LPFabric()
		for i := 0; i < n; i++ {
			nw.nodes = append(nw.nodes, cl.Main().LPNode(i))
		}
	}
	for i := 0; i < n; i++ {
		nw.nodes[i].AtHandler(Time(i), 0, &netTick{net: nw, id: i, step: Time(7 + 2*i), left: 40})
	}
	if cl != nil {
		cl.Run()
		return strings.Join(nw.log, "\n"), cl.Stats()
	}
	nw.nodes[0].RunUntilQuiet()
	return strings.Join(nw.log, "\n"), ClusterStats{}
}

// TestClusterOrderEquivalence: the globally ordered event log — fabric
// relays and direct node-to-node hops alike — must be identical to the
// standalone engine's for every (shards, workers) shape, and every
// multi-shard shape must actually run parallel rounds.
func TestClusterOrderEquivalence(t *testing.T) {
	const n = 8
	want, _ := runNet(n, 0, 0)
	if !strings.Contains(want, "hop ") || !strings.Contains(want, "relay ") {
		t.Fatal("workload logged no hops or no relays")
	}
	for _, shards := range []int{1, 2, 3, 8} {
		for _, workers := range []int{1, 2, 4} {
			got, st := runNet(n, shards, workers)
			if got != want {
				t.Fatalf("shards=%d workers=%d: global order diverges from serial\nserial head: %.120s\ncluster head: %.120s",
					shards, workers, want, got)
			}
			if st.ParRounds == 0 {
				t.Errorf("shards=%d workers=%d: no parallel round ran", shards, workers)
			}
		}
	}
}
