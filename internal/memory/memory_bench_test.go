package memory

// Wall-clock micro-benchmarks for the page hot paths: diff computation
// (sparse, dense, clean), run application, twin pooling, and the
// mprotect cost model. `make bench-smoke` runs these once; compare
// before/after with `go test -bench . -benchmem ./internal/memory`.

import (
	"math/rand"
	"testing"

	"genima/internal/sim"
)

const benchPage = 4096

func benchPages(mutate func(cur []byte, r *rand.Rand)) (cur, old []byte) {
	r := rand.New(rand.NewSource(1))
	old = make([]byte, benchPage)
	r.Read(old)
	cur = append([]byte(nil), old...)
	if mutate != nil {
		mutate(cur, r)
	}
	return cur, old
}

// BenchmarkDiffWordsClean diffs an unmodified page — the dominant case
// when a twin exists but only a few of a node's pages changed.
func BenchmarkDiffWordsClean(b *testing.B) {
	cur, old := benchPages(nil)
	b.SetBytes(benchPage)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if runs := DiffWords(cur, old, 4); runs != nil {
			b.Fatal("clean page produced runs")
		}
	}
}

// BenchmarkDiffWordsSparse diffs a page with 8 scattered modified words,
// the typical fine-grain sharing shape.
func BenchmarkDiffWordsSparse(b *testing.B) {
	cur, old := benchPages(func(cur []byte, r *rand.Rand) {
		for i := 0; i < 8; i++ {
			cur[(i*509+17)*4%benchPage] ^= 0x5a
		}
	})
	b.SetBytes(benchPage)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffWords(cur, old, 4)
	}
}

// BenchmarkDiffWordsDense diffs a page where every other word changed —
// the worst case for run-boundary resolution.
func BenchmarkDiffWordsDense(b *testing.B) {
	cur, old := benchPages(func(cur []byte, r *rand.Rand) {
		for off := 0; off < benchPage; off += 8 {
			cur[off] ^= 0xff
		}
	})
	b.SetBytes(benchPage)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffWords(cur, old, 4)
	}
}

// BenchmarkApplyRunsWords applies word-size runs (direct-diff traffic).
func BenchmarkApplyRunsWords(b *testing.B) {
	cur, old := benchPages(func(cur []byte, r *rand.Rand) {
		for i := 0; i < 16; i++ {
			cur[(i*251+3)*4%benchPage] ^= 0x5a
		}
	})
	runs := DiffWords(cur, old, 4)
	dst := append([]byte(nil), old...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyRuns(dst, runs)
	}
}

// BenchmarkMakeTwin measures twin creation with pooling (steady state:
// every DropTwin feeds the next MakeTwin).
func BenchmarkMakeTwin(b *testing.B) {
	s := NewSpace(benchPage, 4, 1)
	s.Alloc("a", benchPage, RoundRobin)
	m := NewNodeMem(s)
	m.Page(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MakeTwin(0)
		m.DropTwin(0)
	}
}

// BenchmarkMprotectCost measures the call-coalescing cost model on a
// mixed contiguous/scattered invalidation set.
func BenchmarkMprotectCost(b *testing.B) {
	base := make([]int, 64)
	for i := range base {
		if i < 32 {
			base[i] = 100 + i // one long run
		} else {
			base[i] = i * 7 // scattered
		}
	}
	pages := make([]int, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(pages, base)
		MprotectCost(pages, sim.Micro(12), sim.Micro(1.5))
	}
}
