package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"genima/internal/sim"
)

// Property tests for the version-vector storage against naive
// [][]uint64 / []uint64 oracles: allocating rows on first write is a
// pure layout change and must be observationally identical to dense
// per-page slices.

// oracleMergeMax is the obvious element-wise max over fresh slices.
func oracleMergeMax(dst, src []uint64) []uint64 {
	out := make([]uint64, len(dst))
	copy(out, dst)
	for i, v := range src {
		if v > out[i] {
			out[i] = v
		}
	}
	return out
}

// oracleCovered is the obvious element-wise comparison.
func oracleCovered(want, have []uint64) bool {
	for i, w := range want {
		if have[i] < w {
			return false
		}
	}
	return true
}

func TestVecMergeMaxMatchesOracle(t *testing.T) {
	property := func(a, b []uint64) bool {
		if len(a) != len(b) {
			// vecMergeMax requires equal lengths (checked separately);
			// trim to the shorter so the property exercises the math.
			n := min(len(a), len(b))
			a, b = a[:n], b[:n]
		}
		want := oracleMergeMax(a, b)
		got := make([]uint64, len(a))
		copy(got, a)
		vecMergeMax(got, b)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVecMergeMaxMismatchedLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("vecMergeMax with mismatched lengths did not panic")
		}
	}()
	vecMergeMax(make([]uint64, 3), make([]uint64, 4))
}

func TestVecCoveredMatchesOracle(t *testing.T) {
	property := func(want, have []uint64, nearMiss bool) bool {
		n := min(len(want), len(have))
		want, have = want[:n], have[:n]
		if nearMiss && n > 0 {
			// Random vectors almost always differ wildly; bias half the
			// cases toward have ~ want so both outcomes are exercised.
			copy(have, want)
			if want[0] > 0 {
				have[0] = want[0] - 1
			}
		}
		return vecCovered(want, have) == oracleCovered(want, have)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVecCoveredAllZero(t *testing.T) {
	// The all-zero requirement is covered by anything, including an
	// all-zero version row — the initial state of every table.
	zero := make([]uint64, 4)
	if !vecCovered(zero, zero) {
		t.Error("all-zero want not covered by all-zero have")
	}
	if !vecCovered(zero, []uint64{1, 2, 3, 4}) {
		t.Error("all-zero want not covered by nonzero have")
	}
	if vecCovered([]uint64{0, 0, 1, 0}, zero) {
		t.Error("nonzero want covered by all-zero have")
	}
	if !vecCovered(nil, nil) {
		t.Error("empty want not covered by empty have")
	}
}

// TestVecTableMatchesSliceOracle drives a vecTable and a [][]uint64
// oracle through the same random row updates (the protocol's access
// pattern: read a row, merge, bump single entries) and checks every row
// stays identical, including rows never written (all-zero).
func TestVecTableMatchesSliceOracle(t *testing.T) {
	const pages, nodes = 17, 5
	rng := rand.New(rand.NewSource(42))

	tab := newVecTable(pages, make([]uint64, nodes))
	oracle := make([][]uint64, pages)
	for p := range oracle {
		oracle[p] = make([]uint64, nodes)
	}

	for step := 0; step < 2000; step++ {
		pg := rng.Intn(pages)
		switch rng.Intn(3) {
		case 0: // bump one entry
			i := rng.Intn(nodes)
			v := uint64(rng.Intn(100))
			if tab.row(pg)[i] < v {
				tab.writeRow(pg)[i] = v
			}
			if oracle[pg][i] < v {
				oracle[pg][i] = v
			}
		case 1: // merge a random vector into the row
			src := make([]uint64, nodes)
			for i := range src {
				src[i] = uint64(rng.Intn(100))
			}
			vecMergeMax(tab.writeRow(pg), src)
			oracle[pg] = oracleMergeMax(oracle[pg], src)
		case 2: // compare coverage between two rows
			other := rng.Intn(pages)
			got := vecCovered(tab.row(pg), tab.row(other))
			want := oracleCovered(oracle[pg], oracle[other])
			if got != want {
				t.Fatalf("step %d: vecCovered(row %d, row %d) = %v, oracle %v",
					step, pg, other, got, want)
			}
		}
	}
	for p := 0; p < pages; p++ {
		row := tab.row(p)
		for i := range row {
			if row[i] != oracle[p][i] {
				t.Fatalf("row %d entry %d = %d, oracle %d", p, i, row[i], oracle[p][i])
			}
		}
	}
}

// TestVecTableRowIsolation: writing (even appending to) one row must
// never disturb a neighbouring page's row — the full slice expression
// in writeRow() caps each row at its own boundary within the block the
// rows are carved from.
func TestVecTableRowIsolation(t *testing.T) {
	tab := newVecTable(3, make([]uint64, 2))
	r1 := tab.writeRow(1)
	r1[0], r1[1] = 7, 8
	tab.writeRow(2) // carved right after row 1 from the same block
	// An append past the row must reallocate, not spill into row 2.
	_ = append(tab.writeRow(1), 99)
	for _, i := range []int{0, 1} {
		if got := tab.row(2)[i]; got != 0 {
			t.Fatalf("row 2 entry %d = %d after append to row 1, want 0", i, got)
		}
		if got := tab.row(0)[i]; got != 0 {
			t.Fatalf("row 0 entry %d = %d, want 0", i, got)
		}
	}
	if r := tab.row(1); r[0] != 7 || r[1] != 8 {
		t.Fatalf("row 1 = %v, want [7 8]", r)
	}
}

// TestVecTableLazyRows: an absent row reads as the shared zero row, a
// write allocates that row only, and rows are never carved beyond the
// table's page count.
func TestVecTableLazyRows(t *testing.T) {
	const pages, nodes = 6, 4
	zero := make([]uint64, nodes)
	tab := newVecTable(pages, zero)
	for pg := 0; pg < pages; pg++ {
		if r := tab.row(pg); &r[0] != &zero[0] || len(r) != nodes {
			t.Fatalf("absent row %d is not the shared zero row", pg)
		}
	}
	tab.writeRow(3)[1] = 9
	for pg := 0; pg < pages; pg++ {
		allocated := tab.rows[pg] != nil
		if allocated != (pg == 3) {
			t.Fatalf("row %d allocated = %v after writing row 3 only", pg, allocated)
		}
	}
	if got := tab.row(3); got[1] != 9 || &got[0] == &zero[0] {
		t.Fatalf("row 3 = %v, want its own row holding the write", got)
	}
	for i, v := range zero {
		if v != 0 {
			t.Fatalf("shared zero row entry %d = %d after a write", i, v)
		}
	}
	// The first write carved a block for every absent row (the table is
	// narrow); the block must not outgrow them.
	if got := len(tab.arena) / nodes; got != pages-1 {
		t.Fatalf("block holds %d spare rows, want %d", got, pages-1)
	}
	wide := newVecTable(pages, make([]uint64, 2*vecArenaWords))
	wide.writeRow(0)
	if len(wide.arena) != 0 {
		t.Fatalf("a row wider than a block carved %d spare words", len(wide.arena))
	}
}

// TestVecTableDigestsLikeDense: a lazy table folds into the state
// digest exactly as the dense pages x nodes table holding the same
// values, absent rows as zeros.
func TestVecTableDigestsLikeDense(t *testing.T) {
	f := func(seed int64) bool {
		const pages, nodes = 9, 5
		rng := rand.New(rand.NewSource(seed))
		tab := newVecTable(pages, make([]uint64, nodes))
		dense := make([]uint64, pages*nodes)
		for step := rng.Intn(12); step > 0; step-- {
			pg, i := rng.Intn(pages), rng.Intn(nodes)
			v := uint64(rng.Intn(50) + 1)
			tab.writeRow(pg)[i] = v
			dense[pg*nodes+i] = v
		}
		got, want := sim.NewDigest(), sim.NewDigest()
		tab.digestInto(got)
		for _, v := range dense {
			want.U64(v)
		}
		return got.Sum() == want.Sum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
