package stats

import (
	"fmt"
	"math/bits"

	"genima/internal/sim"
)

// LatencyRecorder is a fixed-bucket log-scaled histogram of virtual-time
// request latencies. Buckets are log-linear: each power-of-two octave is
// split into 2^latSubBits linear sub-buckets, bounding the relative
// error of any reported quantile by 1/2^latSubBits (12.5%) while keeping
// the table a small fixed array — no allocation per sample, mergeable
// across nodes by element-wise addition, and deterministic: the recorded
// distribution is a pure function of the sampled virtual times. The
// array is allocated by the first sample, so a recorder that never
// records (every processor of a batch app) costs no bucket storage; an
// absent array reads as all-zero buckets.
//
// Values are sim.Time nanoseconds. Samples below zero are clamped to
// zero; samples at or above the last bucket's bound land in the final
// catch-all bucket (its reported upper bound is the recorded Max, which
// is tracked exactly).
type LatencyRecorder struct {
	buckets *[latBuckets]uint64 // nil until the first sample
	count   uint64
	sum     sim.Time
	max     sim.Time
}

const (
	// latSubBits sub-divides each octave into 8 linear sub-buckets.
	latSubBits = 3
	latSubs    = 1 << latSubBits
	// latBuckets covers [0, 2^62): values 0..2^latSubBits-1 map one-to-one
	// to the first latSubs buckets, then each of the remaining octaves
	// (exponents latSubBits..61) contributes latSubs buckets.
	latBuckets = latSubs * (63 - latSubBits)
)

// latBucketIdx maps a non-negative latency to its bucket index.
func latBucketIdx(v sim.Time) int {
	u := uint64(v)
	if u < latSubs {
		return int(u)
	}
	e := bits.Len64(u) - 1 // position of the top set bit, ≥ latSubBits
	sub := int(u>>(uint(e)-latSubBits)) & (latSubs - 1)
	idx := (e-latSubBits)*latSubs + latSubs + sub
	if idx >= latBuckets {
		return latBuckets - 1
	}
	return idx
}

// latBucketUpper returns the exclusive upper bound of bucket idx — the
// value reported for a quantile that lands in this bucket, making every
// reported quantile an overestimate by at most one sub-bucket width.
func latBucketUpper(idx int) sim.Time {
	if idx < latSubs {
		return sim.Time(idx + 1)
	}
	e := uint(idx-latSubs)/latSubs + latSubBits
	sub := uint64(idx-latSubs) % latSubs
	return sim.Time((uint64(latSubs) + sub + 1) << (e - latSubBits))
}

// Record adds one latency sample.
func (l *LatencyRecorder) Record(v sim.Time) {
	if v < 0 {
		v = 0
	}
	if l.buckets == nil {
		l.buckets = new([latBuckets]uint64)
	}
	l.buckets[latBucketIdx(v)]++
	l.count++
	l.sum += v
	if v > l.max {
		l.max = v
	}
}

// Merge folds other into l. Merging is associative and commutative, so
// per-node recorders can be combined in any order with identical
// results.
func (l *LatencyRecorder) Merge(other *LatencyRecorder) {
	if other.buckets != nil {
		if l.buckets == nil {
			l.buckets = new([latBuckets]uint64)
		}
		for i, c := range other.buckets {
			l.buckets[i] += c
		}
	}
	l.count += other.count
	l.sum += other.sum
	if other.max > l.max {
		l.max = other.max
	}
}

// Count returns the number of recorded samples.
func (l *LatencyRecorder) Count() uint64 { return l.count }

// Sum returns the exact sum of recorded samples.
func (l *LatencyRecorder) Sum() sim.Time { return l.sum }

// Max returns the exact maximum recorded sample (0 when empty).
func (l *LatencyRecorder) Max() sim.Time { return l.max }

// Quantile returns an upper bound on the q-quantile (0 < q ≤ 1) of the
// recorded samples, exact to within one sub-bucket (≤12.5% relative
// error). Returns 0 when empty. The top bucket reports the exact Max.
func (l *LatencyRecorder) Quantile(q float64) sim.Time {
	if l.count == 0 {
		return 0
	}
	// Rank of the q-quantile, 1-based, clamped to [1, count]: the
	// smallest sample position covering fraction q of the distribution.
	rank := uint64(q * float64(l.count))
	if float64(rank) < q*float64(l.count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > l.count {
		rank = l.count
	}
	var seen uint64
	for i, c := range l.buckets { // count > 0, so the buckets exist
		seen += c
		if seen >= rank {
			u := latBucketUpper(i)
			if u > l.max {
				u = l.max
			}
			return u
		}
	}
	return l.max
}

// LatencySummary is the reporting view of a LatencyRecorder: request
// count plus the tail quantiles the serving experiments report.
type LatencySummary struct {
	Count uint64   `json:"count"`
	Mean  sim.Time `json:"mean_ns"`
	P50   sim.Time `json:"p50_ns"`
	P90   sim.Time `json:"p90_ns"`
	P99   sim.Time `json:"p99_ns"`
	P999  sim.Time `json:"p999_ns"`
	Max   sim.Time `json:"max_ns"`
}

// Summary computes the reporting view. Zero-valued when empty.
func (l *LatencyRecorder) Summary() LatencySummary {
	if l.count == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: l.count,
		Mean:  l.sum / sim.Time(l.count),
		P50:   l.Quantile(0.50),
		P90:   l.Quantile(0.90),
		P99:   l.Quantile(0.99),
		P999:  l.Quantile(0.999),
		Max:   l.max,
	}
}

// Throughput returns completed requests per simulated second over the
// elapsed virtual time (0 if elapsed is not positive).
func (l *LatencyRecorder) Throughput(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(l.count) / Seconds(elapsed)
}

// String renders the summary as a single human-readable line in
// microseconds.
func (s LatencySummary) String() string {
	us := func(t sim.Time) float64 { return float64(t) / 1e3 }
	return fmt.Sprintf("reqs=%d mean=%.1fµs p50=%.1fµs p90=%.1fµs p99=%.1fµs p999=%.1fµs max=%.1fµs",
		s.Count, us(s.Mean), us(s.P50), us(s.P90), us(s.P99), us(s.P999), us(s.Max))
}
