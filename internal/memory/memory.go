// Package memory implements the paged shared address space the SVM
// protocols manage: page/home layout, per-node page copies, twin
// creation, word-granularity diff computation and application, and the
// mprotect cost model (with the call-coalescing optimization the paper
// describes in §3.1).
package memory

import (
	"encoding/binary"
	"fmt"
	"sort"

	"genima/internal/sim"
)

// HomePolicy chooses the home node for each shared page.
type HomePolicy int

// Home-assignment policies.
const (
	// RoundRobin interleaves pages across nodes (the common default).
	RoundRobin HomePolicy = iota
	// Blocked gives each node a contiguous chunk of the allocation,
	// matching block-partitioned applications (FFT, LU, Ocean rows).
	Blocked
)

// Region is a contiguous allocation in the shared space, addressed by
// byte offsets from the start of the space.
type Region struct {
	Name string
	Base int // byte offset, page-aligned
	Size int
}

// Space is the shared virtual address space: the page/home map plus the
// canonical home copy of every page. Node-local copies live in NodeMem.
type Space struct {
	PageSize int
	WordSize int

	regions []Region
	next    int // next free byte offset (page aligned)

	homes []int    // page -> home node
	home  [][]byte // page -> home copy (the authoritative data)

	nodes int
}

// NewSpace creates an empty space for a cluster of n nodes.
func NewSpace(pageSize, wordSize, nodes int) *Space {
	if pageSize <= 0 || wordSize <= 0 || pageSize%wordSize != 0 {
		panic(fmt.Sprintf("memory: bad page/word size %d/%d", pageSize, wordSize))
	}
	return &Space{PageSize: pageSize, WordSize: wordSize, nodes: nodes}
}

// NPages returns the number of allocated pages.
func (s *Space) NPages() int { return len(s.homes) }

// Nodes returns the cluster size the space was built for.
func (s *Space) Nodes() int { return s.nodes }

// Regions returns all allocations.
func (s *Space) Regions() []Region { return s.regions }

// Alloc reserves size bytes (rounded up to whole pages) and assigns
// homes under the given policy.
func (s *Space) Alloc(name string, size int, policy HomePolicy) Region {
	if size <= 0 {
		panic("memory: Alloc size must be positive")
	}
	pages := (size + s.PageSize - 1) / s.PageSize
	r := Region{Name: name, Base: s.next, Size: pages * s.PageSize}
	s.next += r.Size
	s.regions = append(s.regions, r)
	for i := 0; i < pages; i++ {
		var h int
		switch policy {
		case Blocked:
			h = i * s.nodes / pages
		default:
			h = (len(s.homes)) % s.nodes
		}
		s.homes = append(s.homes, h)
		s.home = append(s.home, make([]byte, s.PageSize))
	}
	return r
}

// Home returns the home node of a page.
func (s *Space) Home(page int) int { return s.homes[page] }

// HomeCopy returns the authoritative home copy of a page. Only the home
// node's protocol (or the hardware-DSM model) may mutate it.
func (s *Space) HomeCopy(page int) []byte { return s.home[page] }

// PageRange returns the inclusive page span [first,last] covering
// [addr, addr+size).
func (s *Space) PageRange(addr, size int) (first, last int) {
	if size <= 0 {
		size = 1
	}
	return addr / s.PageSize, (addr + size - 1) / s.PageSize
}

// BufPool is a deterministic free list of fixed-size page buffers: the
// node's twins. It is a sim.FreeList, so buffer reuse is
// bit-deterministic from run to run and race-free without atomics;
// every NodeMem owns its own pool, a twin is taken and returned by the
// same node, and no pool state crosses simulated runs.
type BufPool struct {
	size int
	free sim.FreeList[[]byte]
}

// NewBufPool returns an empty pool of size-byte buffers.
func NewBufPool(size int) *BufPool { return &BufPool{size: size} }

// Get returns a buffer of the pool's size. Contents are unspecified:
// every caller overwrites the whole buffer (twin snapshot, page copy).
func (p *BufPool) Get() []byte {
	if b, ok := p.free.Pop(); ok {
		return b
	}
	// Miss: carve a chunk of buffers out of one backing array, so a
	// growing working set costs one allocation per four pages. Full
	// slice caps keep an append on one buffer from clobbering the next.
	back := make([]byte, 4*p.size)
	for i := 3; i > 0; i-- {
		p.free.Push(back[i*p.size : (i+1)*p.size : (i+1)*p.size])
	}
	return back[0:p.size:p.size]
}

// Put returns a buffer to the free list. Buffers of the wrong length
// are dropped rather than poisoning the pool.
func (p *BufPool) Put(b []byte) {
	if len(b) != p.size {
		return
	}
	p.free.Push(b)
}

// Len returns the number of buffers currently on the free list.
func (p *BufPool) Len() int { return len(p.free) }

// NodeMem holds one node's local copies and twins.
type NodeMem struct {
	space *Space
	pages [][]byte
	twins [][]byte
	pool  *BufPool
}

// NewNodeMem creates node-local storage for the space. All ten SPLASH-2
// style workloads allocate before parallel work begins, so node memories
// are sized after allocation.
func NewNodeMem(s *Space) *NodeMem {
	return &NodeMem{
		space: s,
		pages: make([][]byte, s.NPages()),
		twins: make([][]byte, s.NPages()),
		pool:  NewBufPool(s.PageSize),
	}
}

// Page returns the node's copy of a page, allocating it zeroed on first
// use.
func (m *NodeMem) Page(page int) []byte {
	if m.pages[page] == nil {
		m.pages[page] = make([]byte, m.space.PageSize)
	}
	return m.pages[page]
}

// InstallCopy replaces the node's copy of a page with data (a fetched
// page); the slice is copied.
func (m *NodeMem) InstallCopy(page int, data []byte) {
	dst := m.Page(page)
	copy(dst, data)
}

// MakeTwin snapshots the node's current copy of page so later
// modifications can be diffed. Idempotent within a twin lifetime. Twin
// buffers come from the node's pool and return to it on DropTwin.
func (m *NodeMem) MakeTwin(page int) {
	if m.twins[page] != nil {
		return
	}
	src := m.Page(page)
	tw := m.pool.Get()
	copy(tw, src)
	m.twins[page] = tw
}

// HasTwin reports whether a twin exists for page.
func (m *NodeMem) HasTwin(page int) bool { return m.twins[page] != nil }

// DropTwin discards the twin after diffing, recycling its buffer. Safe
// even while Diff results are alive: runs alias the page copy, never the
// twin.
func (m *NodeMem) DropTwin(page int) {
	if tw := m.twins[page]; tw != nil {
		m.pool.Put(tw)
		m.twins[page] = nil
	}
}

// Diff compares the node's copy of page against its twin and returns the
// contiguous runs of modified words. It panics if no twin exists.
func (m *NodeMem) Diff(page int) []Run {
	tw := m.twins[page]
	if tw == nil {
		panic(fmt.Sprintf("memory: Diff of page %d without twin", page))
	}
	return DiffWords(m.Page(page), tw, m.space.WordSize)
}

// Run is one contiguous span of modified bytes within a page.
type Run struct {
	Off  int
	Data []byte
}

// DiffWords compares cur against old at word granularity and returns the
// modified runs (data aliases cur; callers snapshot if needed).
//
// The kernel compares 8 bytes at a time (unchanged regions dominate real
// pages) and resolves run boundaries at word granularity, so its output
// is run-for-run identical to a word-by-word byte comparison.
func DiffWords(cur, old []byte, wordSize int) []Run {
	if len(cur) != len(old) {
		panic("memory: DiffWords length mismatch")
	}
	var runs []Run
	n := len(cur)
	off := 0
	for off < n {
		off = nextDifferingWord(cur, old, off, wordSize)
		if off >= n {
			break
		}
		start := off
		off = nextEqualWord(cur, old, off, wordSize)
		runs = append(runs, Run{Off: start, Data: cur[start:off]})
	}
	return runs
}

// DiffCopyWords is DiffWords with reusable storage: runs are appended to
// runs (typically a pooled slice re-sliced to length 0) and each run's
// data is deep-copied into buf, so the result survives further page
// mutation without per-diff allocations. buf is grown once to the page
// size if needed — never mid-loop, so run aliases stay stable — and the
// (possibly regrown) buf is returned for the caller to retain.
func DiffCopyWords(runs []Run, buf []byte, cur, old []byte, wordSize int) ([]Run, []byte) {
	if len(cur) != len(old) {
		panic("memory: DiffCopyWords length mismatch")
	}
	if cap(buf) < len(cur) {
		buf = make([]byte, 0, len(cur))
	}
	buf = buf[:0]
	n := len(cur)
	off := 0
	for off < n {
		off = nextDifferingWord(cur, old, off, wordSize)
		if off >= n {
			break
		}
		start := off
		off = nextEqualWord(cur, old, off, wordSize)
		bstart := len(buf)
		buf = append(buf, cur[start:off]...)
		runs = append(runs, Run{Off: start, Data: buf[bstart:len(buf):len(buf)]})
	}
	return runs, buf
}

// DiffCopy is Diff with reusable storage (see DiffCopyWords).
func (m *NodeMem) DiffCopy(page int, runs []Run, buf []byte) ([]Run, []byte) {
	tw := m.twins[page]
	if tw == nil {
		panic(fmt.Sprintf("memory: DiffCopy of page %d without twin", page))
	}
	return DiffCopyWords(runs, buf, m.Page(page), tw, m.space.WordSize)
}

// nextDifferingWord returns the offset of the first word at or after off
// that differs between a and b, or len(a) if none. When the word size
// divides 8, equal regions are skipped 8 bytes per comparison; offsets
// stay word-aligned because both strides are multiples of wordSize.
func nextDifferingWord(a, b []byte, off, w int) int {
	n := len(a)
	if 8%w == 0 {
		for off+8 <= n && binary.LittleEndian.Uint64(a[off:]) == binary.LittleEndian.Uint64(b[off:]) {
			off += 8
		}
	}
	for off < n && equalWord(a, b, off, w) {
		off += w
	}
	if off > n {
		off = n
	}
	return off
}

// nextEqualWord returns the offset of the first word at or after off that
// is equal between a and b, or len(a) if none. Modified runs are usually
// short, so whole words are compared with single integer loads.
func nextEqualWord(a, b []byte, off, w int) int {
	n := len(a)
	switch w {
	case 8:
		for off+8 <= n && binary.LittleEndian.Uint64(a[off:]) != binary.LittleEndian.Uint64(b[off:]) {
			off += 8
		}
	case 4:
		for off+4 <= n && binary.LittleEndian.Uint32(a[off:]) != binary.LittleEndian.Uint32(b[off:]) {
			off += 4
		}
	case 2:
		for off+2 <= n && binary.LittleEndian.Uint16(a[off:]) != binary.LittleEndian.Uint16(b[off:]) {
			off += 2
		}
	}
	// A trailing partial word is clamped so runs never extend past the
	// buffer (the old byte loop could over-slice into spare capacity).
	for off < n && !equalWord(a, b, off, w) {
		off += w
	}
	if off > n {
		off = n
	}
	return off
}

func equalWord(a, b []byte, off, w int) bool {
	end := off + w
	if end > len(a) {
		end = len(a)
	}
	for i := off; i < end; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ApplyRuns writes the runs into dst (a page copy). Single-word runs
// dominate direct-diff traffic, so 4- and 8-byte runs are stored with
// one integer move instead of a memmove call.
func ApplyRuns(dst []byte, runs []Run) {
	for _, r := range runs {
		ApplyRun(dst, r)
	}
}

// ApplyRun writes one run into dst (see ApplyRuns).
func ApplyRun(dst []byte, r Run) {
	switch len(r.Data) {
	case 8:
		if r.Off+8 <= len(dst) {
			binary.LittleEndian.PutUint64(dst[r.Off:], binary.LittleEndian.Uint64(r.Data))
			return
		}
	case 4:
		if r.Off+4 <= len(dst) {
			binary.LittleEndian.PutUint32(dst[r.Off:], binary.LittleEndian.Uint32(r.Data))
			return
		}
	}
	copy(dst[r.Off:], r.Data)
}

// RunsBytes returns the total data bytes across runs.
func RunsBytes(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += len(r.Data)
	}
	return n
}

// MprotectCost returns the virtual-time cost and the number of mprotect
// system calls needed to change protection on the given pages, after
// coalescing contiguous page runs into single calls (the optimization
// described in §3.1). The pages slice is sorted in place.
func MprotectCost(pages []int, base, perPage sim.Time) (cost sim.Time, calls int) {
	if len(pages) == 0 {
		return 0, 0
	}
	sort.Ints(pages)
	runLen := 1
	flush := func() {
		cost += base + perPage*sim.Time(runLen-1)
		calls++
	}
	for i := 1; i < len(pages); i++ {
		if pages[i] == pages[i-1] {
			continue // duplicate page
		}
		if pages[i] == pages[i-1]+1 {
			runLen++
			continue
		}
		flush()
		runLen = 1
	}
	flush()
	return cost, calls
}
