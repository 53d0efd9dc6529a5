package core

import (
	"testing"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/topo"
)

// testCluster wires a full protocol system for integration tests.
type testCluster struct {
	eng   *sim.Engine
	cfg   topo.Config
	space *memory.Space
	sys   *System
}

func newCluster(t *testing.T, kind Kind, nodes, procsPerNode, pages int) *testCluster {
	t.Helper()
	cfg := topo.Default()
	cfg.Nodes = nodes
	cfg.ProcsPerNode = procsPerNode
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	space := memory.NewSpace(cfg.PageSize, cfg.WordSize, nodes)
	space.Alloc("shared", pages*cfg.PageSize, memory.RoundRobin)
	sys := New(eng, &cfg, kind, space)
	sys.Start()
	t.Cleanup(eng.Release) // unwind protocol processes left parked
	return &testCluster{eng: eng, cfg: cfg, space: space, sys: sys}
}

// spawn runs body as a simulated processor on node nd.
func (tc *testCluster) spawn(name string, nd int, body func(p *sim.Proc, n *Node)) {
	node := tc.sys.Node(nd)
	tc.eng.Go(name, func(p *sim.Proc) { body(p, node) })
}

// writeByte writes one byte of shared data (with fault handling).
func writeByte(p *sim.Proc, n *Node, page, off int, v byte) {
	n.EnsureWritable(p, page, page)
	n.PageBytes(page)[off] = v
}

// readByte reads one byte of shared data (with fault handling).
func readByte(p *sim.Proc, n *Node, page, off int) byte {
	n.EnsureReadable(p, page, page)
	return n.PageBytes(page)[off]
}

// run drains the engine and fails the test if done isn't reached.
func (tc *testCluster) run(t *testing.T, done *int, want int) {
	t.Helper()
	tc.eng.RunUntilQuiet()
	if *done != want {
		t.Fatalf("only %d of %d processors finished (deadlock?)", *done, want)
	}
}

func forEachKind(t *testing.T, f func(t *testing.T, k Kind)) {
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) { f(t, k) })
	}
}

// A writer updates a page under a lock; a reader on another node
// acquires the same lock and must see the write (lock-protected
// causality, the heart of LRC).
func TestLockProtectedVisibility(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		tc := newCluster(t, k, 4, 1, 8)
		done := 0
		var got byte
		tc.spawn("writer", 1, func(p *sim.Proc, n *Node) {
			n.LockAcquire(p, 0)
			writeByte(p, n, 3, 100, 0xAB) // page 3 homed at node 3
			n.LockRelease(p, 0)
			done++
		})
		tc.spawn("reader", 2, func(p *sim.Proc, n *Node) {
			p.Sleep(sim.Micro(500)) // arrive after the writer
			n.LockAcquire(p, 0)
			got = readByte(p, n, 3, 100)
			n.LockRelease(p, 0)
			done++
		})
		tc.run(t, &done, 2)
		if got != 0xAB {
			t.Fatalf("%v: reader saw %#x, want 0xAB", k, got)
		}
	})
}

// Without intervening synchronization, a remote node that already has a
// copy may legitimately see stale data (lazy release consistency); after
// a barrier everyone must see all writes.
func TestBarrierPropagatesAllWrites(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		tc := newCluster(t, k, 4, 1, 8)
		done := 0
		results := make([]byte, 4)
		for nd := 0; nd < 4; nd++ {
			nd := nd
			tc.spawn("proc", nd, func(p *sim.Proc, n *Node) {
				// Everyone writes its own word of page 5 (concurrent
				// writes must be word-disjoint at SVM diff granularity,
				// per the SPLASH-2 rules the paper's apps follow).
				writeByte(p, n, 5, 200+4*nd, byte(10+nd))
				n.Barrier(p)
				// Everyone reads node 2's word.
				results[nd] = readByte(p, n, 5, 208)
				n.Barrier(p)
				done++
			})
		}
		tc.run(t, &done, 4)
		for nd, v := range results {
			if v != 12 {
				t.Errorf("%v: node %d saw %d, want 12", k, nd, v)
			}
		}
	})
}

// Multiple-writer merge: two nodes concurrently write disjoint words of
// the same page; after a barrier both writes must be visible everywhere.
func TestMultipleWriterMerge(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		tc := newCluster(t, k, 4, 1, 8)
		done := 0
		var a, b byte
		for nd := 1; nd <= 2; nd++ {
			nd := nd
			tc.spawn("writer", nd, func(p *sim.Proc, n *Node) {
				writeByte(p, n, 6, 400+4*nd, byte(nd)) // disjoint words
				n.Barrier(p)
				n.Barrier(p)
				done++
			})
		}
		tc.spawn("reader", 0, func(p *sim.Proc, n *Node) {
			n.Barrier(p)
			a = readByte(p, n, 6, 404)
			b = readByte(p, n, 6, 408)
			n.Barrier(p)
			done++
		})
		tc.spawn("idle", 3, func(p *sim.Proc, n *Node) {
			n.Barrier(p)
			n.Barrier(p)
			done++
		})
		tc.run(t, &done, 4)
		if a != 1 || b != 2 {
			t.Fatalf("%v: merged page has (%d,%d), want (1,2)", k, a, b)
		}
	})
}

// The home node itself must not read stale data: a remote write under a
// lock must be awaited by the home after it acquires the lock.
func TestHomeNodeWaitsForDiffs(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		tc := newCluster(t, k, 4, 1, 8)
		done := 0
		var got byte
		// Page 2 is homed at node 2.
		tc.spawn("writer", 0, func(p *sim.Proc, n *Node) {
			n.LockAcquire(p, 1)
			writeByte(p, n, 2, 8, 0x5C)
			n.LockRelease(p, 1)
			done++
		})
		tc.spawn("home-reader", 2, func(p *sim.Proc, n *Node) {
			p.Sleep(sim.Micro(300))
			n.LockAcquire(p, 1)
			got = readByte(p, n, 2, 8)
			n.LockRelease(p, 1)
			done++
		})
		tc.run(t, &done, 2)
		if got != 0x5C {
			t.Fatalf("%v: home read %#x, want 0x5C", k, got)
		}
	})
}

// Lock chain through three nodes: values accumulate in order.
func TestLockChainAccumulation(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		tc := newCluster(t, k, 4, 1, 4)
		done := 0
		for nd := 0; nd < 4; nd++ {
			nd := nd
			tc.spawn("inc", nd, func(p *sim.Proc, n *Node) {
				for i := 0; i < 3; i++ {
					n.LockAcquire(p, 2)
					n.EnsureWritable(p, 1, 1)
					n.PageBytes(1)[0]++
					n.LockRelease(p, 2)
					p.Sleep(sim.Micro(20))
				}
				done++
			})
		}
		tc.run(t, &done, 4)
		// Final value must be 12, observed after acquiring the lock.
		var final byte
		fin := 0
		tc.spawn("check", 3, func(p *sim.Proc, n *Node) {
			n.LockAcquire(p, 2)
			final = readByte(p, n, 1, 0)
			n.LockRelease(p, 2)
			fin++
		})
		tc.eng.RunUntilQuiet()
		if fin != 1 || final != 12 {
			t.Fatalf("%v: counter = %d (checked=%d), want 12", k, final, fin)
		}
	})
}

// Intra-node handoff: two processors in one node pass a lock without
// any remote traffic, and see each other's writes via node coherence.
func TestIntraNodeLockHandoff(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		tc := newCluster(t, k, 2, 2, 4)
		done := 0
		for cpu := 0; cpu < 2; cpu++ {
			tc.spawn("inc", 0, func(p *sim.Proc, n *Node) {
				for i := 0; i < 5; i++ {
					n.LockAcquire(p, 0) // homed at node 0
					n.EnsureWritable(p, 0, 0)
					n.PageBytes(0)[4]++
					n.LockRelease(p, 0)
				}
				n.Barrier(p)
				done++
			})
		}
		for cpu := 0; cpu < 2; cpu++ {
			tc.spawn("other", 1, func(p *sim.Proc, n *Node) {
				n.Barrier(p)
				done++
			})
		}
		tc.run(t, &done, 4)
		if v := tc.space.HomeCopy(0)[4]; v != 10 {
			t.Fatalf("%v: counter = %d, want 10", k, v)
		}
	})
}

// GeNIMA must take zero host interrupts; Base must take many.
func TestInterruptElimination(t *testing.T) {
	counts := map[Kind]uint64{}
	for _, k := range []Kind{Base, GeNIMA} {
		tc := newCluster(t, k, 4, 1, 16)
		done := 0
		for nd := 0; nd < 4; nd++ {
			nd := nd
			tc.spawn("work", nd, func(p *sim.Proc, n *Node) {
				for i := 0; i < 4; i++ {
					n.LockAcquire(p, 7)
					pg := (nd + i) % 16
					n.EnsureWritable(p, pg, pg)
					n.PageBytes(pg)[0]++
					n.LockRelease(p, 7)
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
		counts[k] = total
	}
	if counts[GeNIMA] != 0 {
		t.Errorf("GeNIMA took %d interrupts, want 0", counts[GeNIMA])
	}
	if counts[Base] == 0 {
		t.Error("Base took no interrupts")
	}
}

// Determinism: identical runs produce identical virtual end times.
func TestProtocolDeterminism(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		run := func() sim.Time {
			tc := newCluster(t, k, 4, 2, 16)
			done := 0
			for nd := 0; nd < 4; nd++ {
				for cpu := 0; cpu < 2; cpu++ {
					nd := nd
					tc.spawn("w", nd, func(p *sim.Proc, n *Node) {
						for i := 0; i < 3; i++ {
							n.LockAcquire(p, 1)
							n.EnsureWritable(p, i, i)
							n.PageBytes(i)[nd]++
							n.LockRelease(p, 1)
						}
						n.Barrier(p)
						done++
					})
				}
			}
			tc.eng.RunUntilQuiet()
			if done != 8 {
				t.Fatalf("deadlock: %d/8 finished", done)
			}
			return tc.eng.Now()
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("%v: nondeterministic end times %d vs %d", k, a, b)
		}
	})
}

// Remote-fetch retries happen (and terminate) when a page is fetched
// while its diffs are still in flight.
func TestRemoteFetchRetries(t *testing.T) {
	tc := newCluster(t, DWRF, 4, 1, 8)
	done := 0
	tc.spawn("writer", 1, func(p *sim.Proc, n *Node) {
		n.LockAcquire(p, 0)
		writeByte(p, n, 3, 0, 1)
		n.LockRelease(p, 0)
		done++
	})
	tc.spawn("reader", 2, func(p *sim.Proc, n *Node) {
		p.Sleep(sim.Micro(200))
		n.LockAcquire(p, 0)
		if got := readByte(p, n, 3, 0); got != 1 {
			t.Errorf("reader saw %d, want 1", got)
		}
		n.LockRelease(p, 0)
		done++
	})
	tc.run(t, &done, 2)
	// Retries are plausible but not guaranteed for this timing; the
	// accounting field must at least be consistent (non-negative is
	// implied by the type; fetches must have happened).
	acct := tc.sys.Accounting()
	if acct.PageFetches == 0 {
		t.Error("no page fetches recorded")
	}
}

// Dirty pages invalidated by an incoming notice are flushed first so no
// data is lost (concurrent writer on the same page, different words).
func TestConcurrentWriterFlushOnInvalidate(t *testing.T) {
	forEachKind(t, func(t *testing.T, k Kind) {
		tc := newCluster(t, k, 2, 1, 4)
		done := 0
		tc.spawn("a", 0, func(p *sim.Proc, n *Node) {
			writeByte(p, n, 1, 0, 7) // page 1 homed at node 1
			n.LockAcquire(p, 0)
			n.LockRelease(p, 0)
			n.Barrier(p)
			done++
		})
		tc.spawn("b", 1, func(p *sim.Proc, n *Node) {
			n.LockAcquire(p, 0)
			writeByte(p, n, 1, 4, 8)
			n.LockRelease(p, 0)
			n.Barrier(p)
			done++
		})
		tc.run(t, &done, 2)
		hc := tc.space.HomeCopy(1)
		if hc[0] != 7 || hc[4] != 8 {
			t.Fatalf("%v: home copy has (%d,%d), want (7,8)", k, hc[0], hc[4])
		}
	})
}
