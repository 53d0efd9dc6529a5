package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"genima/internal/rng"
	"genima/internal/sim"
)

// TestLatBucketBoundaries checks bucket-boundary exactness: indices are
// contiguous and monotone, every value lands strictly below its
// bucket's upper bound, and the upper bound of bucket i is where bucket
// i+1 begins.
func TestLatBucketBoundaries(t *testing.T) {
	// Exhaustive over the small values, then probe every octave edge.
	prev := -1
	for u := sim.Time(0); u < 4096; u++ {
		idx := latBucketIdx(u)
		if idx != prev && idx != prev+1 {
			t.Fatalf("bucket index jumped %d -> %d at value %d", prev, idx, u)
		}
		prev = idx
		if u >= latBucketUpper(idx) {
			t.Fatalf("value %d not below its bucket %d upper bound %d", u, idx, latBucketUpper(idx))
		}
		if idx > 0 && u < latBucketUpper(idx-1) {
			t.Fatalf("value %d below previous bucket %d upper bound %d", u, idx-1, latBucketUpper(idx-1))
		}
	}
	for e := uint(3); e < 62; e++ {
		for _, u := range []sim.Time{1 << e, (1 << e) - 1, (1 << e) + 1} {
			idx := latBucketIdx(u)
			if idx < 0 || idx >= latBuckets {
				t.Fatalf("value %d maps to out-of-range bucket %d", u, idx)
			}
			if u >= latBucketUpper(idx) && idx != latBuckets-1 {
				t.Fatalf("value %d >= upper bound %d of its bucket %d", u, latBucketUpper(idx), idx)
			}
		}
	}
	// Exact low buckets: values 0..7 are recorded with zero error.
	for u := sim.Time(0); u < 8; u++ {
		var l LatencyRecorder
		l.Record(u)
		if got := l.Quantile(1); got != u {
			t.Fatalf("low value %d reported as %d", u, got)
		}
	}
}

func TestLatBucketUpperMonotone(t *testing.T) {
	for i := 1; i < latBuckets; i++ {
		if latBucketUpper(i) <= latBucketUpper(i-1) {
			t.Fatalf("upper bound not monotone at bucket %d: %d <= %d",
				i, latBucketUpper(i), latBucketUpper(i-1))
		}
	}
}

// samplesFromSeed expands a seed into a deterministic latency sample
// set spanning several octaves, like real request latencies do.
func samplesFromSeed(seed uint64, n int) []sim.Time {
	r := rng.New(seed)
	out := make([]sim.Time, n)
	for i := range out {
		// Log-uniform over [1, 2^40): exercise many octaves.
		e := r.Intn(40)
		out[i] = sim.Time(uint64(1)<<uint(e) | r.Next()&((1<<uint(e))-1))
	}
	return out
}

func recorderOf(samples []sim.Time) *LatencyRecorder {
	var l LatencyRecorder
	for _, s := range samples {
		l.Record(s)
	}
	return &l
}

// TestMergeAssociativeCommutative: merging per-node recorders in any
// order or grouping yields identical state.
func TestMergeAssociativeCommutative(t *testing.T) {
	f := func(s1, s2, s3 uint64) bool {
		a := func() *LatencyRecorder { return recorderOf(samplesFromSeed(s1, 50)) }
		b := func() *LatencyRecorder { return recorderOf(samplesFromSeed(s2, 70)) }
		c := func() *LatencyRecorder { return recorderOf(samplesFromSeed(s3, 30)) }

		// (a+b)+c
		l1 := a()
		l1.Merge(b())
		l1.Merge(c())
		// a+(b+c)
		bc := b()
		bc.Merge(c())
		l2 := a()
		l2.Merge(bc)
		// c+b+a
		l3 := c()
		l3.Merge(b())
		l3.Merge(a())

		return reflect.DeepEqual(l1, l2) && reflect.DeepEqual(l1, l3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileAgainstSortOracle: every reported quantile must bracket
// the exact (sort-based) quantile from above within the histogram's
// 12.5% relative-error bound, and never exceed the exact max.
func TestQuantileAgainstSortOracle(t *testing.T) {
	f := func(seed uint64) bool {
		samples := samplesFromSeed(seed, 200)
		l := recorderOf(samples)
		sorted := append([]sim.Time(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(len(sorted))))
			if rank < 1 {
				rank = 1
			}
			exact := sorted[rank-1]
			got := l.Quantile(q)
			if got < exact {
				return false // quantile must be an upper bound
			}
			if float64(got) > float64(exact)*1.125+1 {
				return false // within one sub-bucket (≤12.5%)
			}
		}
		return l.Quantile(1) == l.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileMonotone: q1 ≤ q2 implies Quantile(q1) ≤ Quantile(q2).
func TestQuantileMonotone(t *testing.T) {
	f := func(seed uint64, a, b uint16) bool {
		l := recorderOf(samplesFromSeed(seed, 100))
		q1 := float64(a%1000+1) / 1000
		q2 := float64(b%1000+1) / 1000
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return l.Quantile(q1) <= l.Quantile(q2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRecorder(t *testing.T) {
	var l LatencyRecorder
	if l.Count() != 0 || l.Max() != 0 || l.Quantile(0.99) != 0 {
		t.Fatalf("empty recorder not zero: %+v", l.Summary())
	}
	if s := l.Summary(); s != (LatencySummary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
	if l.Throughput(sim.Second) != 0 {
		t.Fatal("empty throughput nonzero")
	}
}

// TestNilBucketsActAsEmpty: a recorder that never recorded holds no
// bucket array, and it must behave exactly like an empty one — as the
// source or the target of a Merge, and in Quantile/Count.
func TestNilBucketsActAsEmpty(t *testing.T) {
	var empty LatencyRecorder
	if empty.buckets != nil {
		t.Fatal("zero recorder allocated buckets")
	}
	full := recorderOf([]sim.Time{3, 40, 5000, 60000})
	want := *full.buckets

	// Merging an empty recorder in changes nothing and allocates nothing.
	full.Merge(&empty)
	if *full.buckets != want || full.Count() != 4 {
		t.Fatalf("merging an empty recorder changed the target: %+v", full.Summary())
	}
	var sink LatencyRecorder
	sink.Merge(&empty)
	if sink.buckets != nil || sink.Count() != 0 || sink.Quantile(0.5) != 0 {
		t.Fatalf("empty+empty = %+v, buckets allocated = %v", sink.Summary(), sink.buckets != nil)
	}

	// Merging into an empty recorder copies the distribution, not the
	// array: later samples on either side stay separate.
	sink.Merge(full)
	if !reflect.DeepEqual(&sink, full) {
		t.Fatalf("empty+full = %+v, want %+v", sink.Summary(), full.Summary())
	}
	for _, q := range []float64{0.25, 0.5, 0.99, 1} {
		if sink.Quantile(q) != full.Quantile(q) {
			t.Fatalf("Quantile(%v) = %d after merge, want %d", q, sink.Quantile(q), full.Quantile(q))
		}
	}
	sink.Record(7)
	if *full.buckets != want {
		t.Fatal("a sample recorded after Merge reached the merged-from recorder")
	}

}

func TestCountSumMaxExact(t *testing.T) {
	samples := []sim.Time{5, 1000, 123456, 7, 999999999}
	l := recorderOf(samples)
	var sum sim.Time
	for _, s := range samples {
		sum += s
	}
	if l.Count() != uint64(len(samples)) || l.Sum() != sum || l.Max() != 999999999 {
		t.Fatalf("count=%d sum=%d max=%d", l.Count(), l.Sum(), l.Max())
	}
	if l.Summary().Mean != sum/sim.Time(len(samples)) {
		t.Fatalf("mean = %d", l.Summary().Mean)
	}
}

func TestNegativeClamped(t *testing.T) {
	var l LatencyRecorder
	l.Record(-100)
	if l.Max() != 0 || l.Quantile(1) != 0 || l.Count() != 1 {
		t.Fatalf("negative sample not clamped: %+v", l.Summary())
	}
}

func TestThroughput(t *testing.T) {
	var l LatencyRecorder
	for i := 0; i < 500; i++ {
		l.Record(sim.Time(i))
	}
	if got := l.Throughput(sim.Second / 2); got != 1000 {
		t.Fatalf("throughput = %v, want 1000", got)
	}
}
