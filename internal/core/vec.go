package core

// Per-page version-vector storage. The protocol keeps three
// page-indexed vector tables (need, copyVer, homeVer), each a row of
// Nodes interval sequence numbers per page. A node touches only the
// rows of pages it has written, fetched or been told about, so rows are
// allocated on their first write: a 512-node cluster sharing one page
// holds one row per table at each node, not three full tables.

// vecTable is a pages x nodes matrix of interval sequence numbers whose
// rows are allocated on first write. An absent row reads as zero.
type vecTable struct {
	rows   [][]uint64 // per page: nil until first written
	zero   []uint64   // the all-zero row absent rows read as (shared, never written)
	arena  []uint64   // unused tail of the block rows are carved from
	absent int        // rows not yet allocated
}

// newVecTable returns a table of pages absent rows; zero is the shared
// all-zero row of the table's width.
func newVecTable(pages int, zero []uint64) vecTable {
	return vecTable{rows: make([][]uint64, pages), zero: zero, absent: pages}
}

// vecArenaWords is the size of the blocks rows are carved from, so a
// narrow table does not pay one allocation per row.
const vecArenaWords = 512

// row returns page pg's vector for reading. An absent row is the shared
// zero row: write only through writeRow.
func (t *vecTable) row(pg int) []uint64 {
	if r := t.rows[pg]; r != nil {
		return r
	}
	return t.zero
}

// writeRow returns page pg's vector for writing, allocating it on first
// use. The full slice expression caps the row so a stray append cannot
// spill into the next row carved from the same block.
func (t *vecTable) writeRow(pg int) []uint64 {
	if r := t.rows[pg]; r != nil {
		return r
	}
	w := len(t.zero)
	if len(t.arena) < w {
		// A block never holds more rows than the table still lacks.
		rows := max(vecArenaWords/w, 1)
		t.arena = make([]uint64, min(rows, t.absent)*w)
	}
	r := t.arena[:w:w]
	t.arena = t.arena[w:]
	t.rows[pg] = r
	t.absent--
	return r
}

// vecMergeMax raises dst to the element-wise max of dst and src, in
// place (no scratch allocation).
func vecMergeMax(dst, src []uint64) {
	if len(dst) != len(src) {
		panic("core: vecMergeMax length mismatch")
	}
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// vecCovered reports whether have >= want element-wise.
func vecCovered(want, have []uint64) bool {
	for i, w := range want {
		if have[i] < w {
			return false
		}
	}
	return true
}
