package core

// Unit tests for the protocol's data-structure helpers, plus randomized
// cross-protocol consistency checks.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/topo"
)

func TestFeaturesOfLadderIsCumulative(t *testing.T) {
	prev := Features{}
	count := func(f Features) int {
		n := 0
		for _, b := range []bool{f.DW, f.RF, f.DD, f.NIL} {
			if b {
				n++
			}
		}
		return n
	}
	for _, k := range Kinds() {
		f := FeaturesOf(k)
		if count(f) != count(prev)+1 && k != Base {
			t.Errorf("%v adds %d features over its predecessor, want exactly 1", k, count(f)-count(prev))
		}
		// Cumulative: everything enabled before stays enabled.
		if (prev.DW && !f.DW) || (prev.RF && !f.RF) || (prev.DD && !f.DD) || (prev.NIL && !f.NIL) {
			t.Errorf("%v drops a feature of its predecessor", k)
		}
		prev = f
	}
	if !FeaturesOf(GeNIMA).NIL {
		t.Error("GeNIMA must enable NI locks")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Base: "Base", DW: "DW", DWRF: "DW+RF", DWRFDD: "DW+RF+DD", GeNIMA: "GeNIMA"}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d renders %q, want %q", int(k), k.String(), w)
		}
	}
	if Kind(42).String() == "" {
		t.Error("out-of-range kind renders empty")
	}
}

func TestIntervalWireSize(t *testing.T) {
	iv := &interval{Src: 1, Seq: 3, Pages: []int32{1, 2, 3}}
	if iv.wireSize() != 16+12 {
		t.Errorf("wireSize = %d", iv.wireSize())
	}
}

func TestRecordAndQueryIntervals(t *testing.T) {
	tc := newCluster(t, Base, 2, 1, 4)
	n := tc.sys.Node(0)
	// Record out of order; intervalsAfter must return the range asked.
	n.recordInterval(&interval{Src: 1, Seq: 2, Pages: []int32{1}})
	n.recordInterval(&interval{Src: 1, Seq: 1, Pages: []int32{0}})
	n.recordInterval(&interval{Src: 1, Seq: 4, Pages: []int32{2}})
	got := n.appendIntervalsAfter(nil, 1, 0, 2)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("appendIntervalsAfter(0,2) = %+v", got)
	}
	// A gap (seq 3 unknown) is simply skipped.
	got = n.appendIntervalsAfter(nil, 1, 2, 4)
	if len(got) != 1 || got[0].Seq != 4 {
		t.Fatalf("appendIntervalsAfter(2,4) = %+v", got)
	}
}

func TestVecHelpers(t *testing.T) {
	a := []uint64{1, 5, 2}
	b := []uint64{3, 4, 2}
	vecMergeMax(a, b)
	if a[0] != 3 || a[1] != 5 || a[2] != 2 {
		t.Errorf("vecMergeMax = %v", a)
	}
	if !vecCovered([]uint64{1, 2}, []uint64{1, 2}) {
		t.Error("equal vectors must be covered")
	}
	if vecCovered([]uint64{2, 0}, []uint64{1, 9}) {
		t.Error("uncovered vector accepted")
	}
}

func TestNeedSatisfiedUsesEveryWriter(t *testing.T) {
	tc := newCluster(t, Base, 4, 1, 4)
	n := tc.sys.Node(0)
	copy(n.need.writeRow(1), []uint64{0, 2, 0, 1})
	if n.needSatisfied(1, []uint64{0, 1, 0, 1}) {
		t.Error("satisfied despite writer 1 behind")
	}
	if !n.needSatisfied(1, []uint64{5, 2, 9, 1}) {
		t.Error("not satisfied despite coverage")
	}
}

func TestLockReacquireCachedIsLocal(t *testing.T) {
	// After a remote acquire, re-acquiring the cached lock must not add
	// remote lock ops (the Base "last owner keeps the lock" rule).
	tc := newCluster(t, Base, 2, 1, 4)
	done := 0
	tc.spawn("p", 1, func(p *sim.Proc, n *Node) {
		n.LockAcquire(p, 0) // lock 0 homed at node 0: remote
		n.LockRelease(p, 0)
		before := n.Acct.LockOps
		for i := 0; i < 5; i++ {
			n.LockAcquire(p, 0)
			n.LockRelease(p, 0)
		}
		if n.Acct.LockOps != before {
			t.Errorf("cached re-acquire went remote (%d -> %d ops)", before, n.Acct.LockOps)
		}
		done++
	})
	tc.run(t, &done, 1)
}

func TestLockChainThroughPendingRemote(t *testing.T) {
	// A requester whose forward arrives while the lock is held must be
	// granted at the holder's release.
	tc := newCluster(t, Base, 3, 1, 4)
	done := 0
	var order []int
	tc.spawn("holder", 0, func(p *sim.Proc, n *Node) {
		n.LockAcquire(p, 0)
		order = append(order, 0)
		p.Sleep(sim.Micro(800)) // hold long enough for the forward to arrive
		n.LockRelease(p, 0)
		done++
	})
	tc.spawn("waiter", 2, func(p *sim.Proc, n *Node) {
		p.Sleep(sim.Micro(100))
		n.LockAcquire(p, 0)
		order = append(order, 2)
		n.LockRelease(p, 0)
		done++
	})
	tc.run(t, &done, 2)
	if len(order) != 2 || order[0] != 0 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

// Property: a randomized schedule of writes under locks and barriers
// produces the same final shared memory under every protocol.
func TestCrossProtocolConsistencyProperty(t *testing.T) {
	type op struct {
		kind      int // 0 = write, 1 = lock-write-unlock, 2 = barrier
		page, off int
		val       byte
		lock      int
	}
	run := func(seed int64, kind Kind) []byte {
		rng := rand.New(rand.NewSource(seed))
		const pages = 6
		nodes := 3
		// Build per-node scripts. Writes are made unique per (node,
		// word) to avoid data races: node i owns word-offsets congruent
		// to i.
		scripts := make([][]op, nodes)
		barriers := 3
		for nd := 0; nd < nodes; nd++ {
			var s []op
			for b := 0; b < barriers; b++ {
				steps := rng.Intn(4)
				for k := 0; k < steps; k++ {
					// Word-offsets congruent to nd (mod nodes) so that
					// concurrent writers never share a word: the only
					// races left are the protocol's to resolve.
					o := op{
						page: rng.Intn(pages),
						off:  (rng.Intn(300)*nodes + nd) * 4,
						val:  byte(rng.Intn(255) + 1),
						lock: rng.Intn(3),
						kind: rng.Intn(2),
					}
					s = append(s, o)
				}
				s = append(s, op{kind: 2})
			}
			scripts[nd] = s
		}
		cfg := topo.Default()
		cfg.Nodes = nodes
		cfg.ProcsPerNode = 1
		eng := sim.NewEngine()
		space := memory.NewSpace(cfg.PageSize, cfg.WordSize, nodes)
		space.Alloc("shared", pages*cfg.PageSize, memory.RoundRobin)
		sys := New(eng, &cfg, kind, space)
		sys.Start()
		done := 0
		for nd := 0; nd < nodes; nd++ {
			nd := nd
			node := sys.Node(nd)
			eng.Go("p", func(p *sim.Proc) {
				for _, o := range scripts[nd] {
					switch o.kind {
					case 2:
						node.Barrier(p)
					case 1:
						node.LockAcquire(p, o.lock)
						node.Ensure(p, o.page, o.page, true)
						node.PageBytes(o.page)[o.off] = o.val
						node.LockRelease(p, o.lock)
					default:
						node.Ensure(p, o.page, o.page, true)
						node.PageBytes(o.page)[o.off] = o.val
					}
				}
				node.Barrier(p)
				done++
			})
		}
		eng.RunUntilQuiet()
		if done != nodes {
			t.Fatalf("%v: deadlock (%d/%d)", kind, done, nodes)
		}
		out := make([]byte, 0, pages*cfg.PageSize)
		for pg := 0; pg < pages; pg++ {
			out = append(out, space.HomeCopy(pg)...)
		}
		return out
	}
	prop := func(seed int64) bool {
		ref := run(seed, Base)
		for _, k := range []Kind{DW, DWRF, DWRFDD, GeNIMA} {
			got := run(seed, k)
			for i := range ref {
				if got[i] != ref[i] {
					t.Logf("seed %d: %v differs from Base at byte %d", seed, k, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The same consistency property with two processors per node exercises
// the intra-node races (shared page table, local lock handoff, barrier
// leader election).
func TestCrossProtocolConsistencySMPProperty(t *testing.T) {
	run := func(seed int64, kind Kind) []byte {
		rng := rand.New(rand.NewSource(seed))
		const pages = 4
		nodes, ppn := 2, 2
		nprocs := nodes * ppn
		type op struct {
			kind, page, off, lock int
			val                   byte
		}
		scripts := make([][]op, nprocs)
		for pr := 0; pr < nprocs; pr++ {
			var s []op
			for b := 0; b < 3; b++ {
				for k := rng.Intn(4); k > 0; k-- {
					s = append(s, op{
						kind: rng.Intn(2),
						page: rng.Intn(pages),
						off:  (rng.Intn(200)*nprocs + pr) * 4, // proc-owned words
						val:  byte(rng.Intn(255) + 1),
						lock: rng.Intn(2),
					})
				}
				s = append(s, op{kind: 2})
			}
			scripts[pr] = s
		}
		cfg := topo.Default()
		cfg.Nodes = nodes
		cfg.ProcsPerNode = ppn
		eng := sim.NewEngine()
		space := memory.NewSpace(cfg.PageSize, cfg.WordSize, nodes)
		space.Alloc("shared", pages*cfg.PageSize, memory.RoundRobin)
		sys := New(eng, &cfg, kind, space)
		sys.Start()
		done := 0
		for pr := 0; pr < nprocs; pr++ {
			pr := pr
			node := sys.Node(pr / ppn)
			eng.Go("p", func(p *sim.Proc) {
				for _, o := range scripts[pr] {
					switch o.kind {
					case 2:
						node.Barrier(p)
					case 1:
						node.LockAcquire(p, o.lock)
						node.Ensure(p, o.page, o.page, true)
						node.PageBytes(o.page)[o.off] = o.val
						node.LockRelease(p, o.lock)
					default:
						node.Ensure(p, o.page, o.page, true)
						node.PageBytes(o.page)[o.off] = o.val
					}
				}
				node.Barrier(p)
				done++
			})
		}
		eng.RunUntilQuiet()
		if done != nprocs {
			t.Fatalf("%v seed %d: deadlock (%d/%d)", kind, seed, done, nprocs)
		}
		out := make([]byte, 0, pages*cfg.PageSize)
		for pg := 0; pg < pages; pg++ {
			out = append(out, space.HomeCopy(pg)...)
		}
		return out
	}
	prop := func(seed int64) bool {
		ref := run(seed, Base)
		for _, k := range []Kind{DW, DWRF, DWRFDD, GeNIMA} {
			got := run(seed, k)
			for i := range ref {
				if got[i] != ref[i] {
					t.Logf("seed %d: %v differs from Base at byte %d", seed, k, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
