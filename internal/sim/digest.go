package sim

import (
	"cmp"
	"slices"
)

// Digest is an order-sensitive FNV-1a 64 accumulator used to fingerprint
// live simulator state for checkpoint verification (see internal/checkpoint).
// It is not a cryptographic hash: the goal is a cheap, deterministic
// summary that catches a restore diverging from the run it resumes —
// every field folded in is a pure function of the executed event prefix,
// so two runs that executed the same prefix in the same mode produce the
// same digest.
type Digest struct {
	h uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewDigest returns a fresh accumulator.
func NewDigest() *Digest { return &Digest{h: fnvOffset64} }

// U64 folds one 64-bit word into the digest, byte by byte.
func (d *Digest) U64(v uint64) {
	h := d.h
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	d.h = h
}

// I64 folds a signed word (virtual times, counters).
func (d *Digest) I64(v int64) { d.U64(uint64(v)) }

// Bool folds a flag.
func (d *Digest) Bool(v bool) {
	if v {
		d.U64(1)
	} else {
		d.U64(0)
	}
}

// Str folds a string length-prefixed, so concatenations cannot collide.
func (d *Digest) Str(s string) {
	d.U64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= fnvPrime64
	}
}

// Bytes folds a byte slice length-prefixed.
func (d *Digest) Bytes(b []byte) {
	d.U64(uint64(len(b)))
	h := d.h
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	d.h = h
}

// Sum returns the accumulated fingerprint.
func (d *Digest) Sum() uint64 { return d.h }

// SortedKeys returns m's keys in increasing order: the one way digest
// code walks a map, since Go randomizes map iteration order.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// DigestInto folds this engine's live state: clock, counters, and every
// pending event. The events fold sorted by their (at, seq) key, the
// order Run will execute them in, so the digest depends on what is
// queued and not on how the queue lays it out. Handler identities
// cannot be hashed portably; each event contributes its timestamps and
// key, which is enough to catch any divergence in queue contents.
func (e *Engine) DigestInto(d *Digest) {
	d.I64(e.now)
	d.U64(e.seq)
	d.U64(e.nEvents)
	d.I64(e.countAdj)
	d.U64(0) // a retired round-log offset's slot: kept so pinned digests stay stable
	pending := e.pending()
	d.U64(uint64(len(pending)))
	for i := range pending {
		ev := &pending[i]
		d.I64(ev.at)
		d.U64(ev.seq)
		d.I64(ev.start)
	}
}

// pending returns a copy of every queued event, sorted by key: the
// event heap's entries, with each lane proxy replaced by the lane's
// completions, and the timers.
func (e *Engine) pending() []event {
	out := make([]event, 0, len(e.events.a)+len(e.timers.a))
	for _, ev := range e.events.a {
		if l, ok := ev.h.(*lane); ok {
			out = l.appendTo(out)
		} else {
			out = append(out, ev)
		}
	}
	out = append(out, e.timers.a...)
	slices.SortFunc(out, func(x, y event) int {
		return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.seq, y.seq))
	})
	return out
}

// DigestInto folds a FIFO resource's server state: the running tail and
// the accumulated service statistics.
func (r *Resource) DigestInto(d *Digest) {
	d.I64(r.busyUntil)
	d.U64(r.Jobs)
	d.I64(r.BusyTime)
	d.I64(r.WaitTime)
	d.I64(r.MaxQueued)
}

// DigestInto folds a gate's admission state.
func (g *Gate) DigestInto(d *Digest) {
	d.U64(uint64(g.Depth))
	d.U64(uint64(g.inUse))
	d.U64(uint64(g.q.Len()))
	d.U64(g.Blocked)
	d.I64(g.BlockedTime)
}

// DigestInto folds the cluster's cross-LP synchronization state on top
// of every member engine's digest: global ordinal counter and each LP's
// round log and outbox (non-empty only while a barrier is replaying
// them). Deferred handlers contribute their count and positions only
// (their identities are not portable).
func (cl *Cluster) DigestInto(d *Digest) {
	d.U64(cl.setupSeq)
	d.U64(cl.nextOrd)
	d.U64(uint64(len(cl.all)))
	for _, e := range cl.all {
		e.DigestInto(d)
		d.U64(uint64(len(e.roundLog)))
		for i := range e.roundLog {
			d.I64(e.roundLog[i].at)
			d.U64(e.roundLog[i].key)
		}
		d.U64(uint64(len(e.outbox)))
		for i := range e.outbox {
			m := &e.outbox[i]
			d.I64(m.at)
			d.I64(m.start)
			d.U64(m.key)
		}
		d.U64(uint64(len(e.defers)))
		for i := range e.defers {
			d.U64(e.defers[i].pos)
			d.I64(e.defers[i].at)
		}
	}
}
