package memory

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"genima/internal/sim"
)

func TestAllocPageAlignment(t *testing.T) {
	s := NewSpace(4096, 4, 4)
	r1 := s.Alloc("a", 100, RoundRobin)
	r2 := s.Alloc("b", 5000, RoundRobin)
	if r1.Base != 0 || r1.Size != 4096 {
		t.Errorf("r1 = %+v", r1)
	}
	if r2.Base != 4096 || r2.Size != 8192 {
		t.Errorf("r2 = %+v", r2)
	}
	if s.NPages() != 3 {
		t.Errorf("NPages = %d, want 3", s.NPages())
	}
	if len(s.Regions()) != 2 {
		t.Errorf("regions = %d", len(s.Regions()))
	}
}

func TestHomeRoundRobin(t *testing.T) {
	s := NewSpace(4096, 4, 4)
	s.Alloc("a", 8*4096, RoundRobin)
	for p := 0; p < 8; p++ {
		if s.Home(p) != p%4 {
			t.Errorf("home(%d) = %d, want %d", p, s.Home(p), p%4)
		}
	}
}

func TestHomeBlocked(t *testing.T) {
	s := NewSpace(4096, 4, 4)
	s.Alloc("a", 8*4096, Blocked)
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for p, w := range want {
		if s.Home(p) != w {
			t.Errorf("home(%d) = %d, want %d", p, s.Home(p), w)
		}
	}
}

func TestPageRange(t *testing.T) {
	s := NewSpace(4096, 4, 2)
	s.Alloc("a", 16*4096, RoundRobin)
	cases := []struct{ addr, size, f, l int }{
		{0, 1, 0, 0},
		{0, 4096, 0, 0},
		{0, 4097, 0, 1},
		{4095, 2, 0, 1},
		{8192, 4096 * 3, 2, 4},
	}
	for _, c := range cases {
		f, l := s.PageRange(c.addr, c.size)
		if f != c.f || l != c.l {
			t.Errorf("PageRange(%d,%d) = %d,%d want %d,%d", c.addr, c.size, f, l, c.f, c.l)
		}
	}
}

func TestTwinDiffApplyRoundTrip(t *testing.T) {
	s := NewSpace(256, 4, 2)
	s.Alloc("a", 256, RoundRobin)
	m := NewNodeMem(s)
	pg := m.Page(0)
	for i := range pg {
		pg[i] = byte(i)
	}
	m.MakeTwin(0)
	// Modify two separate spans.
	copy(pg[8:16], []byte{9, 9, 9, 9, 9, 9, 9, 9})
	pg[100] = 77
	runs := m.Diff(0)
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2 (%v)", len(runs), runs)
	}
	// Apply onto a copy of the original — must reproduce the new page.
	orig := make([]byte, 256)
	for i := range orig {
		orig[i] = byte(i)
	}
	ApplyRuns(orig, runs)
	if !bytes.Equal(orig, pg) {
		t.Error("diff+apply did not reproduce the modified page")
	}
}

func TestDiffWordGranularity(t *testing.T) {
	cur := make([]byte, 32)
	old := make([]byte, 32)
	cur[5] = 1 // one byte in word 1 -> whole word [4,8) is a run
	runs := DiffWords(cur, old, 4)
	if len(runs) != 1 || runs[0].Off != 4 || len(runs[0].Data) != 4 {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestDiffAdjacentWordsCoalesce(t *testing.T) {
	cur := make([]byte, 32)
	old := make([]byte, 32)
	cur[4], cur[8] = 1, 1 // words 1 and 2 both dirty -> single run [4,12)
	runs := DiffWords(cur, old, 4)
	if len(runs) != 1 || runs[0].Off != 4 || len(runs[0].Data) != 8 {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestDiffEmptyWhenClean(t *testing.T) {
	a := make([]byte, 64)
	if runs := DiffWords(a, make([]byte, 64), 4); len(runs) != 0 {
		t.Fatalf("clean page produced runs: %v", runs)
	}
}

func TestMakeTwinIdempotent(t *testing.T) {
	s := NewSpace(64, 4, 1)
	s.Alloc("a", 64, RoundRobin)
	m := NewNodeMem(s)
	pg := m.Page(0)
	m.MakeTwin(0)
	pg[0] = 42
	m.MakeTwin(0) // must not re-snapshot
	runs := m.Diff(0)
	if len(runs) != 1 {
		t.Fatalf("second MakeTwin overwrote the twin: runs=%v", runs)
	}
	m.DropTwin(0)
	if m.HasTwin(0) {
		t.Error("DropTwin left the twin")
	}
}

// Property: diff/apply round-trips any random page mutation.
func TestDiffApplyProperty(t *testing.T) {
	prop := func(seed int64, nMods uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 512
		old := make([]byte, size)
		rng.Read(old)
		cur := make([]byte, size)
		copy(cur, old)
		for i := 0; i < int(nMods); i++ {
			cur[rng.Intn(size)] = byte(rng.Intn(256))
		}
		runs := DiffWords(cur, old, 4)
		rebuilt := make([]byte, size)
		copy(rebuilt, old)
		ApplyRuns(rebuilt, runs)
		if !bytes.Equal(rebuilt, cur) {
			return false
		}
		// Runs must be disjoint, ordered, word-aligned.
		prevEnd := -1
		for _, r := range runs {
			if r.Off%4 != 0 || len(r.Data)%4 != 0 {
				return false
			}
			if r.Off <= prevEnd {
				return false
			}
			prevEnd = r.Off + len(r.Data) - 1
		}
		return RunsBytes(runs) >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMprotectCoalescing(t *testing.T) {
	base, per := sim.Micro(12), sim.Micro(1.5)
	cost, calls := MprotectCost([]int{5, 3, 4}, base, per)
	if calls != 1 {
		t.Errorf("contiguous pages: calls = %d, want 1", calls)
	}
	if want := base + 2*per; cost != want {
		t.Errorf("cost = %d, want %d", cost, want)
	}

	cost, calls = MprotectCost([]int{1, 3, 5}, base, per)
	if calls != 3 || cost != 3*base {
		t.Errorf("scattered pages: calls=%d cost=%d", calls, cost)
	}

	cost, calls = MprotectCost(nil, base, per)
	if calls != 0 || cost != 0 {
		t.Errorf("empty: calls=%d cost=%d", calls, cost)
	}

	// Duplicates collapse.
	_, calls = MprotectCost([]int{7, 7, 7}, base, per)
	if calls != 1 {
		t.Errorf("duplicates: calls = %d, want 1", calls)
	}
}

// Property: coalesced mprotect never costs more than one call per page.
func TestMprotectCostProperty(t *testing.T) {
	base, per := sim.Micro(12), sim.Micro(1.5)
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		pages := make([]int, len(raw))
		for i, v := range raw {
			pages[i] = int(v)
		}
		cost, calls := MprotectCost(pages, base, per)
		naive := sim.Time(len(raw)) * base
		return calls >= 1 && calls <= len(raw) && cost <= naive && cost > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInstallCopy(t *testing.T) {
	s := NewSpace(64, 4, 1)
	s.Alloc("a", 64, RoundRobin)
	m := NewNodeMem(s)
	data := make([]byte, 64)
	data[10] = 5
	m.InstallCopy(0, data)
	data[10] = 9 // mutate source; node copy must be unaffected
	if m.Page(0)[10] != 5 {
		t.Error("InstallCopy aliased the source slice")
	}
}

func TestSpaceNodes(t *testing.T) {
	s := NewSpace(4096, 4, 2)
	if s.Nodes() != 2 {
		t.Errorf("Nodes = %d", s.Nodes())
	}
}

func TestAllocZeroSizePanics(t *testing.T) {
	s := NewSpace(4096, 4, 2)
	defer func() {
		if recover() == nil {
			t.Error("zero-size Alloc did not panic")
		}
	}()
	s.Alloc("bad", 0, RoundRobin)
}

func TestDiffWithoutTwinPanics(t *testing.T) {
	s := NewSpace(64, 4, 1)
	s.Alloc("a", 64, RoundRobin)
	m := NewNodeMem(s)
	defer func() {
		if recover() == nil {
			t.Error("Diff without twin did not panic")
		}
	}()
	m.Diff(0)
}

// diffWordsRef is the original word-by-word byte-loop DiffWords, the
// oracle for the chunked kernel. (One fix over the historical code: a
// trailing partial word is clamped at n instead of over-slicing into
// the buffer's spare capacity, matching the kernel.)
func diffWordsRef(cur, old []byte, wordSize int) []Run {
	if len(cur) != len(old) {
		panic("memory: DiffWords length mismatch")
	}
	var runs []Run
	n := len(cur)
	for off := 0; off < n; {
		for off < n && equalWord(cur, old, off, wordSize) {
			off += wordSize
		}
		if off >= n {
			break
		}
		start := off
		for off < n && !equalWord(cur, old, off, wordSize) {
			off += wordSize
		}
		if off > n {
			off = n
		}
		runs = append(runs, Run{Off: start, Data: cur[start:off]})
	}
	return runs
}

func runsEqual(a, b []Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Off != b[i].Off || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// TestDiffWordsMatchesReference is the testing/quick property test: the
// chunked kernel must be run-for-run identical to the byte loop for
// random page pairs, word sizes (dividing and not dividing 8), and
// lengths (including non-multiples of the word size).
func TestDiffWordsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, w := range []int{1, 2, 4, 8, 3, 16} {
			n := r.Intn(600)
			old := make([]byte, n)
			r.Read(old)
			cur := append([]byte(nil), old...)
			// Mutate a random sprinkle of bytes plus a dense burst, the
			// two shapes real diffs take.
			for i := 0; n > 0 && i < r.Intn(20); i++ {
				cur[r.Intn(n)] ^= byte(1 + r.Intn(255))
			}
			if n > 16 {
				start := r.Intn(n - 8)
				for i := start; i < start+8; i++ {
					cur[i] ^= 0xff
				}
			}
			got := DiffWords(cur, old, w)
			want := diffWordsRef(cur, old, w)
			if !runsEqual(got, want) {
				t.Logf("w=%d n=%d: got %d runs, want %d", w, n, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffApplyRoundTrip: applying the diff of (cur, old) onto a copy of
// old must reproduce cur exactly — with both the fast and generic paths.
func TestDiffApplyRoundTrip(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, w := range []int{4, 8} {
			n := 64 * (1 + r.Intn(8))
			old := make([]byte, n)
			r.Read(old)
			cur := append([]byte(nil), old...)
			for i := 0; i < r.Intn(40); i++ {
				cur[r.Intn(n)] ^= byte(1 + r.Intn(255))
			}
			dst := append([]byte(nil), old...)
			ApplyRuns(dst, DiffWords(cur, old, w))
			if !bytes.Equal(dst, cur) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTwinPooling: DropTwin must recycle the twin buffer and MakeTwin
// must reuse it rather than allocating.
func TestTwinPooling(t *testing.T) {
	s := NewSpace(256, 4, 1)
	s.Alloc("a", 1024, RoundRobin)
	m := NewNodeMem(s)

	m.Page(0)[0] = 1
	m.MakeTwin(0)
	first := &m.twins[0][0]
	m.DropTwin(0)
	// A Get miss carves a chunk of buffers, so the pool holds the
	// dropped twin plus its chunk-mates; LIFO order guarantees the
	// dropped twin is reused first.
	if m.pool.Len() < 1 {
		t.Fatalf("pool empty after DropTwin")
	}
	m.Page(1)[0] = 2
	m.MakeTwin(1)
	if &m.twins[1][0] != first {
		t.Error("MakeTwin did not reuse the recycled buffer")
	}
	// The recycled buffer must still produce correct twin contents.
	if m.twins[1][0] != 2 {
		t.Error("reused twin does not snapshot the page")
	}
}

// TestBufPoolWrongSizeDropped: foreign-size buffers must not enter the pool.
func TestBufPoolWrongSizeDropped(t *testing.T) {
	p := NewBufPool(64)
	p.Put(make([]byte, 63))
	if p.Len() != 0 {
		t.Fatal("wrong-size buffer entered the pool")
	}
	b := p.Get()
	if len(b) != 64 {
		t.Fatalf("Get returned %d bytes, want 64", len(b))
	}
}
