package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"genima/internal/sim"
	"genima/internal/vmmc"
)

// ladderWorkload drives one cluster through a fixed mix of contended
// locks, writes, post-barrier reads (remote fetches), and barriers —
// touching every interrupt class the ladder eliminates — and returns
// the drained cluster and the total host interrupts taken.
func ladderWorkload(t *testing.T, k Kind) (*testCluster, uint64) {
	t.Helper()
	tc := newCluster(t, k, 4, 1, 16)
	done := 0
	for nd := 0; nd < 4; nd++ {
		nd := nd
		tc.spawn("work", nd, func(p *sim.Proc, n *Node) {
			for i := 0; i < 4; i++ {
				n.LockAcquire(p, nd%2)
				pg := (3*nd + i) % 16
				n.EnsureWritable(p, pg, pg)
				n.PageBytes(pg)[nd]++
				n.LockRelease(p, nd%2)
			}
			n.Barrier(p)
			for i := 0; i < 2; i++ {
				// Post-barrier reads of pages other nodes wrote: remote
				// fetches, served by interrupts until RF.
				pg := (5*nd + 7*i + 3) % 16
				n.EnsureReadable(p, pg, pg)
				_ = n.PageBytes(pg)[0]
			}
			n.Barrier(p)
			done++
		})
	}
	tc.run(t, &done, 4)
	var total uint64
	for _, n := range tc.sys.Nodes {
		total += n.Acct.Interrupts
	}
	return tc, total
}

// TestInterruptLadder: each rung of the protocol ladder moves one more
// protocol service into the NI, so host interrupts strictly decrease
// rung to rung, reaching exactly zero at GeNIMA (the paper's central
// claim: no asynchronous protocol processing remains).
func TestInterruptLadder(t *testing.T) {
	kinds := Kinds()
	counts := make([]uint64, len(kinds))
	for i, k := range kinds {
		_, counts[i] = ladderWorkload(t, k)
	}
	t.Logf("interrupts per rung: %v -> %v", kinds, counts)
	if counts[0] == 0 {
		t.Fatalf("%v took no interrupts; workload exercises nothing", kinds[0])
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] >= counts[i-1] {
			t.Errorf("%v took %d interrupts, want fewer than %v's %d",
				kinds[i], counts[i], kinds[i-1], counts[i-1])
		}
	}
	if last := counts[len(counts)-1]; last != 0 {
		t.Errorf("%v took %d interrupts, want 0", kinds[len(kinds)-1], last)
	}
}

// TestUnknownProtocolMessagePanics: the protocol process refuses
// messages outside the typed enum loudly rather than dropping them —
// a corrupted or future message kind is a protocol bug, not noise.
func TestUnknownProtocolMessagePanics(t *testing.T) {
	tc := newCluster(t, Base, 2, 1, 4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("posting an unknown message kind did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "unknown message") {
			t.Fatalf("panic %q does not mention the unknown message", msg)
		}
	}()
	tc.sys.Node(0).proto.HandleMsg(vmmc.Msg{Src: 0, Kind: vmmc.MsgKind(99)})
	tc.eng.RunUntilQuiet()
}

// TestProtocolProcessLifetime: a node's protocol process exists only
// once a message has reached it. GeNIMA takes no interrupts, so none of
// its nodes spawns one; Base spawns at most one per node. A drained run
// leaves every spawned process parked on its empty queue, holding one
// goroutine each until Engine.Release unwinds it.
func TestProtocolProcessLifetime(t *testing.T) {
	// settle polls until the count of protocol-process goroutines
	// drops to want (finished coroutines need not have exited the
	// instant Run returns).
	settle := func(want int) int {
		got := protoGoroutines()
		for deadline := time.Now().Add(5 * time.Second); got > want && time.Now().Before(deadline); got = protoGoroutines() {
			time.Sleep(time.Millisecond)
		}
		return got
	}
	for _, k := range []Kind{Base, GeNIMA} {
		// Earlier tests may leave parked protocol processes behind;
		// those never exit, so they only offset the count.
		start := protoGoroutines()
		tc, _ := ladderWorkload(t, k)
		spawned := 0
		for _, n := range tc.sys.Nodes {
			if n.proto.p == nil {
				continue
			}
			spawned++
			if n.proto.busy || n.proto.head != len(n.proto.q) {
				t.Errorf("%v: node %d's protocol process ended busy with %d queued",
					k, n.ID, len(n.proto.q)-n.proto.head)
			}
		}
		switch {
		case k == GeNIMA && spawned != 0:
			t.Errorf("GeNIMA spawned %d protocol processes, want 0", spawned)
		case k == Base && spawned == 0:
			t.Errorf("Base spawned no protocol process; workload exercises nothing")
		}
		if got := settle(start + spawned); got != start+spawned {
			t.Errorf("%v: %d protocol-process goroutines live after the run, want one per spawned process (%d)",
				k, got-start, spawned)
		}
		tc.eng.Release()
		if got := settle(start); got != start {
			t.Errorf("%v: %d protocol-process goroutines left after Release, want 0", k, got-start)
		}
	}
}

// protoGoroutines counts the goroutines whose stack holds a protocol
// process body. Unlike runtime.NumGoroutine it cannot be moved by an
// unrelated goroutine starting or exiting.
func protoGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "core.(*protoProc).run(") {
			count++
		}
	}
	return count
}
