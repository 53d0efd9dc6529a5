// Package faults implements a deterministic, seed-driven network fault
// plan: per-link packet drop, duplication, reorder-delay, payload
// corruption, and timed link-down windows. Every decision is drawn from
// a per-link splitmix64 stream derived from the configured seed — no
// wall clock, no global rand — so a run with the same topo.Config
// (including the fault seed) replays byte-identically.
//
// The plan is consulted by the NI packet pipeline at the two link
// crossings of a packet's path: the host-to-switch (out) link and the
// switch-to-host (in) link. Drop, corruption, and down windows apply to
// both crossings; duplication and reorder-delay are modeled on the in
// link only (the last hop, where they are observable by the receiver).
// The NI-firmware reliable-delivery layer (internal/nic/reliable.go)
// masks everything the plan injects.
package faults

import (
	"genima/internal/rng"
	"genima/internal/sim"
	"genima/internal/stats"
	"genima/internal/topo"
)

// outLinkSalt decorrelates a host's out-link stream from its in-link
// stream (both derive from the same seed and node id). The value is
// frozen: it participates in every fault verdict stream pinned by the
// golden trace hashes.
const outLinkSalt = 0xd1b54a32d192ed03

// seedFor derives the fault stream for one directional link — an
// independent splitmix64 stream per link, so adding traffic on one
// link never perturbs the fault pattern of another.
func seedFor(seed uint64, out bool, node int) rng.Stream {
	var salt uint64
	if out {
		salt = outLinkSalt
	}
	return rng.Derive(seed, uint64(node), salt)
}

// Verdict is the plan's decision for one link crossing.
type Verdict struct {
	// Drop loses the packet on this crossing.
	Drop bool
	// Dup makes the link deliver the packet a second time.
	Dup bool
	// CorruptMask, when nonzero, is XOR-ed into the packet's checksum
	// (modeling flipped payload bits the receiver's checksum catches).
	CorruptMask uint64
	// Delay holds the packet for this long after the link, letting later
	// packets overtake it.
	Delay sim.Time
}

// linkState is one directional link's fault stream. Each state —
// including its injection counters — is touched only by the logical
// process that executes that link's crossings (the fabric LP for out
// links, the receiving node's LP for in links), so parallel runs need
// no synchronization here; Plan.Report aggregates the shards after the
// run.
type linkState struct {
	r    rng.Stream
	down []topo.DownWindow
	rep  stats.FaultReport
}

func (ls *linkState) isDown(now sim.Time) bool {
	for _, w := range ls.down {
		if now >= w.From && now < w.Until {
			return true
		}
	}
	return false
}

// Plan is a compiled fault plan for one simulated fabric. It is owned
// by a single run and must not be shared across concurrent runs.
type Plan struct {
	cfg topo.FaultPlan
	out []linkState // host -> switch, by host
	in  []linkState // switch -> host, by host
}

// Report sums the per-link injection counters (the *Injected/DownDrops
// fields; the reliability fields stay zero here).
func (p *Plan) Report() stats.FaultReport {
	var rep stats.FaultReport
	for i := range p.out {
		rep.Merge(p.out[i].rep)
	}
	for i := range p.in {
		rep.Merge(p.in[i].rep)
	}
	return rep
}

// New compiles a fault plan for a fabric of `nodes` hosts. The plan
// assumes fp has passed topo validation.
func New(fp *topo.FaultPlan, nodes int) *Plan {
	p := &Plan{cfg: *fp, out: make([]linkState, nodes), in: make([]linkState, nodes)}
	for i := 0; i < nodes; i++ {
		p.out[i].r = seedFor(fp.Seed, true, i)
		p.in[i].r = seedFor(fp.Seed, false, i)
	}
	for _, w := range fp.Down {
		if w.Dir == topo.BothDirs || w.Dir == topo.OutOnly {
			p.out[w.Node].down = append(p.out[w.Node].down, w)
		}
		if w.Dir == topo.BothDirs || w.Dir == topo.InOnly {
			p.in[w.Node].down = append(p.in[w.Node].down, w)
		}
	}
	return p
}

// judge applies the fault classes both crossings share to link ls: a
// down window drops the packet with no draw (down reports it), else
// the drop and corrupt draws, in that fixed order.
func (p *Plan) judge(ls *linkState, now sim.Time) (v Verdict, down bool) {
	if ls.isDown(now) {
		ls.rep.DownDrops++
		return Verdict{Drop: true}, true
	}
	if ls.r.Float() < p.cfg.DropRate {
		v.Drop = true
		ls.rep.DropsInjected++
	}
	if ls.r.Float() < p.cfg.CorruptRate {
		v.CorruptMask = ls.r.Next() | 1
		if !v.Drop {
			ls.rep.CorruptsInjected++
		}
	}
	return v, false
}

// JudgeOut decides the fate of a packet that just crossed host `node`'s
// out link (drop, corruption, and down windows only; duplication and
// delay are in-link faults).
func (p *Plan) JudgeOut(node int, now sim.Time) Verdict {
	v, _ := p.judge(&p.out[node], now)
	return v
}

// JudgeIn decides the fate of a packet that just crossed host `node`'s
// in link: every fault class applies here. The dup and delay draws
// follow judge's, so each link's draw order is drop, corrupt, dup,
// delay.
func (p *Plan) JudgeIn(node int, now sim.Time) Verdict {
	ls := &p.in[node]
	v, down := p.judge(ls, now)
	if down {
		return v
	}
	if ls.r.Float() < p.cfg.DupRate {
		v.Dup = true
		ls.rep.DupsInjected++
	}
	if ls.r.Float() < p.cfg.DelayRate {
		d := 1 + sim.Time(ls.r.Float()*float64(p.cfg.DelayMax))
		if d > p.cfg.DelayMax {
			d = p.cfg.DelayMax
		}
		v.Delay = d
		if !v.Drop {
			ls.rep.DelaysInjected++
		}
	}
	return v
}

// DigestInto folds every link's fault-stream cursor (the raw splitmix64
// state, which advances one step per draw) and injection counters into
// d. Two runs that judged the same packet sequence have identical
// cursors, so the digest pins exactly how far each fault stream has
// been consumed — the state a checkpoint restore must reproduce.
func (p *Plan) DigestInto(d *sim.Digest) {
	dir := func(links []linkState) {
		d.U64(uint64(len(links)))
		for i := range links {
			ls := &links[i]
			d.U64(ls.r.State())
			ls.rep.DigestInto(d)
		}
	}
	dir(p.out)
	dir(p.in)
}

// AckEvery returns the configured cumulative-ack threshold with its
// default applied.
func (p *Plan) AckEvery() int {
	if p.cfg.AckEvery > 0 {
		return p.cfg.AckEvery
	}
	return 4
}
