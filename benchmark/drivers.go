package main

// Per-layer host drivers. Each one times calls into a single package's
// exported API under testing.Benchmark and then checks that the work it
// timed really happened, so a skipped operation fails the traced run
// instead of reporting a fast number.

import (
	"bytes"
	"fmt"
	"testing"

	genima "genima"
	"genima/internal/app"
	"genima/internal/apps/barrierbench"
	"genima/internal/core"
	"genima/internal/memory"
	"genima/internal/nic"
	"genima/internal/sim"
	"genima/internal/vmmc"
)

// driverBenchtime bounds each driver's timing loop; all of them together
// add a few seconds to a traced run.
const driverBenchtime = "100ms"

// sim ----------------------------------------------------------------

// heapHop reschedules itself one heap-depth ahead until the shared
// budget runs out, so every dispatch is one pop and one push on a heap
// holding heapDepth events.
type heapHop struct {
	e    *sim.Engine
	left *int
	step sim.Time
}

func (h *heapHop) Run(_, now sim.Time) {
	if *h.left > 0 {
		*h.left--
		h.e.AtHandler(now+h.step, now, h)
	}
}

const heapDepth = 4096

func driveHeap(b *testing.B) error {
	e := sim.NewEngine()
	left := b.N
	hops := make([]heapHop, heapDepth)
	for i := range hops {
		// Steps differ so pushes land all over the heap, not at its tail.
		hops[i] = heapHop{e: e, left: &left, step: sim.Time(heapDepth + i%61)}
		e.AtHandler(sim.Time(i), 0, &hops[i])
	}
	b.ResetTimer()
	e.RunUntilQuiet()
	b.StopTimer()
	if got, want := e.Events(), uint64(b.N+heapDepth); got != want {
		return fmt.Errorf("dispatched %d events, want %d", got, want)
	}
	return nil
}

func driveProcSwitch(b *testing.B) error {
	e := sim.NewEngine()
	slept := 0
	e.Go("switcher", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
			slept++
		}
	})
	b.ResetTimer()
	e.RunUntilQuiet()
	b.StopTimer()
	if slept != b.N || e.Now() != sim.Time(b.N) {
		return fmt.Errorf("%d sleeps ended at t=%d, want %d", slept, e.Now(), b.N)
	}
	return nil
}

// bounce crosses between two node LPs on every dispatch.
type bounce struct {
	cur, next *sim.Engine
	la        sim.Time
	left      int
	hops      int
}

func (h *bounce) Run(_, now sim.Time) {
	if h.left == 0 {
		return
	}
	h.left--
	h.hops++
	h.cur.Send(h.next, now+h.la, now, h)
	h.cur, h.next = h.next, h.cur
}

func drivePDESHandoff(b *testing.B) error {
	cfg := genima.DefaultConfig()
	nodeLA, fabLA := cfg.Lookaheads()
	cl := sim.NewCluster(2, 2, 2, nodeLA, fabLA)
	lp0 := cl.Main()
	h := &bounce{cur: lp0, next: lp0.LPNode(1), la: nodeLA, left: b.N}
	lp0.AtHandler(0, 0, h)
	b.ResetTimer()
	cl.Run()
	b.StopTimer()
	if h.hops != b.N {
		return fmt.Errorf("%d cross-LP handoffs, want %d", h.hops, b.N)
	}
	return nil
}

// memory -------------------------------------------------------------

const pageSize = 4096

// dirtyPage returns a page and a copy of it with every stride-th 4-byte
// word changed.
func dirtyPage(stride int) (cur, twin []byte) {
	twin = make([]byte, pageSize)
	for i := range twin {
		twin[i] = byte(i * 131)
	}
	cur = append([]byte(nil), twin...)
	for w := 0; w < pageSize/4; w += stride {
		cur[4*w] ^= 0x5a
	}
	return cur, twin
}

// checkRoundTrip confirms that applying a diff of cur against twin to
// a copy of twin reproduces cur.
func checkRoundTrip(cur, twin []byte) error {
	got := append([]byte(nil), twin...)
	memory.ApplyRuns(got, memory.DiffWords(cur, twin, 4))
	if !bytes.Equal(got, cur) {
		return fmt.Errorf("ApplyRuns(twin, DiffWords(cur, twin)) does not reproduce cur")
	}
	return nil
}

func driveTwin(b *testing.B) error {
	s := memory.NewSpace(pageSize, 4, 1)
	s.Alloc("page", pageSize, memory.RoundRobin)
	m := memory.NewNodeMem(s)
	copy(m.Page(0), bytes.Repeat([]byte{7}, pageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MakeTwin(0)
		m.DropTwin(0)
	}
	b.StopTimer()
	m.MakeTwin(0)
	if runs := m.Diff(0); len(runs) != 0 {
		return fmt.Errorf("fresh twin differs from its page in %d runs", len(runs))
	}
	return nil
}

// driveDiff diffs a page with every stride-th word dirty: stride 100 is
// 1% of the words, stride 1 all of them.
func driveDiff(stride int) func(b *testing.B) error {
	return func(b *testing.B) error {
		cur, twin := dirtyPage(stride)
		var runs []memory.Run
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runs = memory.DiffWords(cur, twin, 4)
		}
		b.StopTimer()
		dirty := (pageSize/4 + stride - 1) / stride
		if stride > 1 && len(runs) != dirty {
			return fmt.Errorf("%d runs for %d isolated dirty words", len(runs), dirty)
		}
		return checkRoundTrip(cur, twin)
	}
}

func driveApply(b *testing.B) error {
	cur, twin := dirtyPage(100)
	runs := memory.DiffWords(cur, twin, 4)
	dst := append([]byte(nil), twin...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memory.ApplyRuns(dst, runs)
	}
	b.StopTimer()
	if !bytes.Equal(dst, cur) {
		return fmt.Errorf("ApplyRuns did not reproduce the dirty page")
	}
	return checkRoundTrip(cur, twin)
}

// vmmc ---------------------------------------------------------------

func newLayer(nodes int, faults bool) (*sim.Engine, *vmmc.Layer) {
	cfg := genima.DefaultConfig()
	cfg.Nodes = nodes
	if faults {
		cfg.Faults = genima.FaultMix(0.01, 1)
	}
	eng := sim.NewEngine()
	return eng, vmmc.New(eng, &cfg)
}

// lossyWindow bounds the deposits in flight under faults. An unbounded
// stream grows the go-back-N window until whole-window retransmissions
// never drain; the protocols above never send that way.
const lossyWindow = 16

// driveDeposit measures one remote deposit of size bytes through the
// whole send/route/deliver pipeline. With faults on, go-back-N reliable
// delivery carries them, at most lossyWindow at a time.
func driveDeposit(size int, faults bool) func(b *testing.B) error {
	return func(b *testing.B) error {
		eng, l := newLayer(4, faults)
		delivered := 0
		var sender *sim.Proc
		parked := false
		onDeliver := func() {
			delivered++
			if parked {
				parked = false
				sender.Unpark()
			}
		}
		sender = eng.Go("sender", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				if faults && i-delivered >= lossyWindow {
					parked = true
					p.Park()
				}
				l.Endpoint(0).Deposit(p, 1, size, "bench", nil, onDeliver)
			}
		})
		b.ResetTimer()
		eng.RunUntilQuiet()
		b.StopTimer()
		if delivered != b.N {
			return fmt.Errorf("delivered %d of %d deposits", delivered, b.N)
		}
		return nil
	}
}

func driveFetch(b *testing.B) error {
	eng, l := newLayer(2, false)
	l.Endpoint(1).FetchServer = func(req vmmc.FetchReq) vmmc.FetchReply {
		return vmmc.FetchReply{Size: req.Size}
	}
	done := 0
	eng.Go("fetcher", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if rep := l.Endpoint(0).RemoteFetch(p, 1, pageSize, "page-req", "page-reply", i); rep.Size == pageSize {
				done++
			}
		}
	})
	b.ResetTimer()
	eng.RunUntilQuiet()
	b.StopTimer()
	if done != b.N {
		return fmt.Errorf("completed %d of %d page fetches", done, b.N)
	}
	return nil
}

func driveNILock(b *testing.B) error {
	eng, l := newLayer(4, false)
	pairs := 0
	eng.Go("locker", func(p *sim.Proc) {
		ep := l.Endpoint(2) // the lock's home is node 1, so every pair is remote
		for i := 0; i < b.N; i++ {
			ep.NILockAcquire(p, 1)
			ep.NILockRelease(p, 1, nil, 8)
			pairs++
		}
	})
	b.ResetTimer()
	eng.RunUntilQuiet()
	b.StopTimer()
	if pairs != b.N {
		return fmt.Errorf("completed %d of %d lock pairs", pairs, b.N)
	}
	return nil
}

func driveBroadcast(b *testing.B) error {
	const nodes = 8
	eng, l := newLayer(nodes, false)
	delivered := 0
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			l.Endpoint(0).DepositBroadcast(p, 128, "bench-bcast", func(int) { delivered++ })
		}
	})
	b.ResetTimer()
	eng.RunUntilQuiet()
	b.StopTimer()
	if want := (nodes - 1) * b.N; delivered != want {
		return fmt.Errorf("delivered %d of %d broadcast copies", delivered, want)
	}
	return nil
}

// nic ----------------------------------------------------------------

// colSink counts completed tree-barrier epochs per node, checks the
// combined vector and wakes the node's process.
type colSink struct {
	done   []int
	parked []bool
	procs  []*sim.Proc
	bad    int
}

func (s *colSink) ColBarrierDone(node, seq int, vec []uint64) {
	for _, v := range vec {
		if v != uint64(seq+1) {
			s.bad++
			break
		}
	}
	s.done[node]++
	if s.parked[node] {
		s.parked[node] = false
		s.procs[node].Unpark()
	}
}

// driveColBarrier runs b.N barrier epochs over a 64-NI firmware tree.
// Node i contributes seq+1 at index i, so every completed epoch must
// combine to a vector of seq+1 everywhere.
func driveColBarrier(b *testing.B) error {
	const nodes = 64
	cfg := genima.DefaultConfig()
	cfg.Nodes = nodes
	cfg.ProcsPerNode = 1
	eng := sim.NewEngine()
	sys := nic.NewSystem(eng, &cfg)
	sink := &colSink{done: make([]int, nodes), parked: make([]bool, nodes), procs: make([]*sim.Proc, nodes)}
	for i, ni := range sys.NIs {
		ni.EnableCollectives(cfg.CollectiveArity, sink)
		i, ni := i, ni
		sink.procs[i] = eng.Go("node", func(p *sim.Proc) {
			vc := make([]uint64, nodes)
			for seq := 0; seq < b.N; seq++ {
				vc[i] = uint64(seq + 1)
				ni.ColBarrierArrive(p, seq, vc)
				if sink.done[i] <= seq {
					sink.parked[i] = true
					p.Park()
				}
			}
		})
	}
	b.ResetTimer()
	eng.RunUntilQuiet()
	b.StopTimer()
	for i, d := range sink.done {
		if d != b.N {
			return fmt.Errorf("node %d completed %d of %d epochs", i, d, b.N)
		}
	}
	if sink.bad > 0 {
		return fmt.Errorf("%d epochs combined to a wrong vector", sink.bad)
	}
	return nil
}

// core ---------------------------------------------------------------

// driveBuild constructs the fabric workload's largest system: the
// 512-node fat tree with its workspace, NIs, reliable-delivery state and
// collective trees.
func driveBuild(b *testing.B) error {
	cfg := genima.DefaultConfig()
	cfg.Nodes = 512
	cfg.ProcsPerNode = 1
	cfg.Topo = genima.TopoFatTree
	cfg.SwitchRadix = 16
	cfg.Collectives = true
	cfg.Faults = genima.FaultMix(0.01, 1)
	a := barrierbench.New(16)
	var sys *core.System
	for i := 0; i < b.N; i++ {
		ws := app.NewWorkspace(&cfg)
		a.Setup(ws)
		sys = core.New(sim.NewEngine(), &cfg, core.GeNIMA, ws.Space)
	}
	b.StopTimer()
	if len(sys.Nodes) != cfg.Nodes {
		return fmt.Errorf("built %d nodes, want %d", len(sys.Nodes), cfg.Nodes)
	}
	return nil
}
