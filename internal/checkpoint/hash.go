package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"genima/internal/nic"
	"genima/internal/sim"
)

// TraceHasher accumulates the canonical SHA-256 over a run's delivered-
// packet trace — the same rendering trace_golden_test.go pins the
// golden hashes with. A checkpoint records its PrefixSum at the cut; a
// restore replays the prefix through a fresh hasher and compares.
type TraceHasher struct {
	h hash.Hash
	n uint64
}

// NewTraceHasher returns an empty hasher.
func NewTraceHasher() *TraceHasher {
	return &TraceHasher{h: sha256.New()}
}

// Add folds one delivered packet, in delivery order.
func (t *TraceHasher) Add(ev nic.TraceEvent) {
	fmt.Fprintf(t.h, "%d|%d|%d|%d|%s|%v|%d|%d|%d|%d\n",
		ev.Time, ev.Src, ev.Dst, ev.Size, ev.Kind, ev.Firmware,
		ev.StageTime[0], ev.StageTime[1], ev.StageTime[2], ev.StageTime[3])
	t.n++
}

// Count returns the number of events folded so far.
func (t *TraceHasher) Count() uint64 { return t.n }

// PrefixSum returns the hash of the events folded so far, without the
// final trailer and without disturbing the accumulating state.
func (t *TraceHasher) PrefixSum() (sum [sha256.Size]byte) {
	t.h.Sum(sum[:0])
	return sum
}

// Final appends the run trailer (final elapsed time and engine event
// count, the golden-hash convention) and returns the hex digest. The
// hasher must not be used afterwards.
func (t *TraceHasher) Final(elapsed sim.Time, events uint64) string {
	fmt.Fprintf(t.h, "elapsed=%d events=%d\n", elapsed, events)
	return hex.EncodeToString(t.h.Sum(nil))
}
