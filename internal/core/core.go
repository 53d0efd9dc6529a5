// Package core implements the paper's contribution: the home-based lazy
// release consistency SVM protocol family running over VMMC.
//
// Five cumulative protocol configurations are supported, exactly the
// ladder evaluated in §3.3 of the paper:
//
//	Base    — HLRC-SMP: every incoming protocol request (page fetch,
//	          lock acquire, diff application) interrupts a host
//	          processor and is serviced by a floating protocol process.
//	DW      — direct writes: write notices and barrier control
//	          information are deposited directly into remote protocol
//	          data structures at release time, eagerly, with no
//	          interrupts for coherence propagation.
//	DW+RF   — remote fetch: page timestamps and page data are pulled
//	          from the home by the requesting node's NI, with requester
//	          retry when the home version is stale.
//	DW+RF+DD — direct diffs: each contiguous run of modified words is
//	          deposited straight into the home copy as the diff is
//	          computed at release time (hybrid: skipped when the lock
//	          moves to another processor in the same node).
//	GeNIMA  — all of the above plus NI locks: mutual exclusion handled
//	          entirely in NI firmware; no interrupts remain.
//
// Shared data is real: applications read and write bytes in page copies,
// twins are compared word by word, and diffs are applied at homes, so a
// protocol bug produces wrong application output, not just wrong timing.
package core

import (
	"fmt"

	"genima/internal/memory"
	"genima/internal/sim"
	"genima/internal/stats"
	"genima/internal/topo"
	"genima/internal/vmmc"
)

// Kind selects a protocol configuration.
type Kind int

// The protocol ladder, in the paper's order.
const (
	Base Kind = iota
	DW
	DWRF
	DWRFDD
	GeNIMA
)

var kindNames = [...]string{"Base", "DW", "DW+RF", "DW+RF+DD", "GeNIMA"}

// String names the protocol.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds lists all protocol rungs in evaluation order.
func Kinds() []Kind { return []Kind{Base, DW, DWRF, DWRFDD, GeNIMA} }

// Features are the individual NI mechanisms; each Kind enables a prefix.
type Features struct {
	DW  bool // remote deposit for protocol data (eager write notices)
	RF  bool // remote fetch for pages + timestamps
	DD  bool // direct diffs
	NIL bool // NI locks
}

// FeaturesOf expands a Kind into its feature set.
func FeaturesOf(k Kind) Features {
	switch k {
	case Base:
		return Features{}
	case DW:
		return Features{DW: true}
	case DWRF:
		return Features{DW: true, RF: true}
	case DWRFDD:
		return Features{DW: true, RF: true, DD: true}
	default:
		return Features{DW: true, RF: true, DD: true, NIL: true}
	}
}

// System is one protocol instance spanning the cluster.
type System struct {
	Eng   *sim.Engine
	Cfg   *topo.Config
	Kind  Kind
	Feat  Features
	Space *memory.Space
	Layer *vmmc.Layer
	Nodes []*Node

	// Shared packet deliverers that must map a destination id to a Node.
	noticeDel  noticeDeliver
	grantDel   grantDeliver
	barFlagDel barFlagDeliver

	// colSink receives completed NI-tree barrier epochs (collectives).
	colSink colBarSink

	// zeroVec is the all-zero per-node vector that every absent
	// version-vector row reads as (see vecTable). Nothing writes it.
	zeroVec []uint64
}

// New creates a protocol system over a fresh communication layer. The
// space must be fully allocated before Start is called.
func New(eng *sim.Engine, cfg *topo.Config, kind Kind, space *memory.Space) *System {
	s := &System{
		Eng:   eng,
		Cfg:   cfg,
		Kind:  kind,
		Feat:  FeaturesOf(kind),
		Space: space,
		Layer: vmmc.New(eng, cfg),
	}
	s.noticeDel.s = s
	s.grantDel.s = s
	s.barFlagDel.s = s
	s.zeroVec = make([]uint64, cfg.Nodes)
	s.Nodes = make([]*Node, cfg.Nodes)
	pools := map[*sim.Engine]*recordPool{}
	for i := range s.Nodes {
		n := newNode(s, i)
		if pools[n.eng] == nil {
			pools[n.eng] = &recordPool{nodes: cfg.Nodes, pageSize: cfg.PageSize}
		}
		n.pool = pools[n.eng]
		s.Nodes[i] = n
	}
	if cfg.Collectives && s.Feat.DW && cfg.Nodes > 1 {
		// NI-firmware collective trees need the deposit-write capability
		// (protocol data deposited without host involvement): DW and up
		// use them for barriers and write notices; Base keeps its
		// interrupt-driven paths as the contrast case.
		s.colSink.s = s
		for _, n := range s.Nodes {
			n.ep.NI().EnableCollectives(cfg.CollectiveArity, &s.colSink)
		}
	}
	return s
}

// newInterval allocates an interval with room for npages page ids from
// the node's arena (intervals are only ever created by their source
// node, so the arena is per-node and touched only by the node's LP).
// The chunk pointers stay valid when a new chunk starts.
func (n *Node) newInterval(seq uint64, npages int) *interval {
	if len(n.ivChunk) == cap(n.ivChunk) {
		n.ivChunk = make([]interval, 0, 256)
	}
	n.ivChunk = append(n.ivChunk, interval{Src: n.ID, Seq: seq})
	iv := &n.ivChunk[len(n.ivChunk)-1]
	if cap(n.ivPages)-len(n.ivPages) < npages {
		c := 4096
		if npages > c {
			c = npages
		}
		n.ivPages = make([]int32, 0, c)
	}
	off := len(n.ivPages)
	n.ivPages = n.ivPages[:off+npages]
	iv.Pages = n.ivPages[off : off+npages : off+npages]
	return iv
}

// Start finalizes per-page state (after all allocations). Call exactly
// once, before application processors run.
func (s *System) Start() {
	for _, n := range s.Nodes {
		n.start()
	}
}

// Node returns node i.
func (s *System) Node(i int) *Node { return s.Nodes[i] }

// Accounting aggregates per-node protocol accounting.
func (s *System) Accounting() stats.SVMAccounting {
	var a stats.SVMAccounting
	for _, n := range s.Nodes {
		a.Merge(n.Acct)
	}
	return a
}

// interval is one node's closed write interval: the unit of coherence
// information (a write notice batch).
type interval struct {
	Src   int
	Seq   uint64
	Pages []int32
}

// wireSize returns the interval's size as a write-notice message.
func (iv *interval) wireSize() int { return 16 + 4*len(iv.Pages) }

// srcLog is what a node holds about one source node's intervals.
type srcLog struct {
	ivs []*interval // received intervals, indexed seq-1
	// arrived counts the source's eagerly deposited notices. It is
	// allocated on the first deposit or wait (see arrivedFrom): under
	// DW every node hears from every writer, but a barrier-only run
	// deposits nothing at all.
	arrived *sim.Counter
}

// srcLog returns what this node holds about src, creating it on first
// contact: a node hears from the sources that write pages, not from
// every node in the cluster.
func (n *Node) srcLog(src int) *srcLog {
	l := n.log[src]
	if l == nil {
		l = &srcLog{}
		n.log[src] = l
	}
	return l
}

// arrivedFrom returns the notice-arrival counter for src, creating it
// on first use. Deposits and waits both run on this node's logical
// process.
func (n *Node) arrivedFrom(src int) *sim.Counter {
	l := n.srcLog(src)
	if l.arrived == nil {
		l.arrived = &sim.Counter{}
	}
	return l.arrived
}

// pageState is a node's view of one page.
type pageState uint8

const (
	pageInvalid pageState = iota
	pageValid
)

// Node is the per-SMP-node protocol state: the node-level page table
// (hardware coherence is exploited inside the node), interval log,
// vector clock, and — for pages homed here — the per-writer applied
// versions.
type Node struct {
	sys *System
	ID  int

	// eng is the node's logical process. In a serial run it is the
	// system engine; in a parallel run every engine-context action of
	// this node (protocol process wakeups, gate wakeups) must be
	// scheduled here so it stays on the node's own event heap.
	eng *sim.Engine

	Mem *memory.NodeMem
	ep  *vmmc.Endpoint

	state     []pageState
	fetching  []bool      // per page: a fetch is in flight (collapses faults)
	fetchQ    []sim.WaitQ // per page: waiters on the in-flight fetch
	homeWaitQ []sim.WaitQ // per page homed here: accessors waiting on version

	vc  []uint64  // applied interval seq per source node
	log []*srcLog // per source node, nil until first contact: received intervals, notice arrivals

	need       vecTable // per page: required home version per writer node
	copyVer    vecTable // per page: home version row at fetch time
	copyVerSet []bool   // per page: copyVer row is meaningful (fetched at least once)
	homeVer    vecTable // per page homed here: applied interval seq per writer

	dirtySet  []bool    // per page: written in the open interval
	dirtyList []int32   // the dirty pages, unsorted
	ivGate    *sim.Gate // serializes interval close within the node

	pendingReqs map[int][]pendingPage // Base: queued page requests per page

	locks map[int]*nodeLock

	// lockDir is the Base-path home-side lock directory for locks homed
	// at this node (only the home's protocol process touches it).
	lockDir map[int]*lockMeta

	// Interval arena backing for intervals created by this node.
	ivChunk []interval
	ivPages []int32

	// The floating protocol process and its message queue (see
	// handler.go).
	proto protoProc

	// Interrupt scheduling perturbation, charged round-robin to the
	// node's compute processors at their next compute step.
	steal  []sim.Time
	victim int

	// Barrier state: a ring of epoch records. At most two epochs are
	// ever live at once (a slow node still in epoch k while fast nodes
	// deposit k+1 flags); four slots leave slack, and the seq tags plus
	// Flag/Counter Reset guards catch any window violation.
	barSeq         int
	barEpochs      [4]barEpoch
	lastBarSelfSeq uint64 // own intervals already exchanged at barriers

	// Barrier records owned by this node, picked by epoch parity and
	// allocated on first use (see barArrAt/barRelAt): its own arrival
	// records, and on the Base master the release records.
	barArr [2]*barArriveMsg
	barRel [2]*barReleaseMsg

	// pool holds the pooled protocol records of the node's logical
	// process, shared by every node on it (see pool.go).
	pool *recordPool

	lockChunk []nodeLock // arena for nodeLock records (see Node.lock)
	// Scratch storage reused across installFetched calls.
	modsRuns []memory.Run
	modsBuf  []byte

	Acct stats.SVMAccounting
}

func newNode(s *System, id int) *Node {
	n := &Node{
		sys:         s,
		ID:          id,
		eng:         s.Eng.LPNode(id),
		ep:          s.Layer.Endpoint(id),
		vc:          make([]uint64, s.Cfg.Nodes),
		log:         make([]*srcLog, s.Cfg.Nodes),
		ivGate:      sim.NewGate(1),
		pendingReqs: map[int][]pendingPage{},
		locks:       map[int]*nodeLock{},
		lockDir:     map[int]*lockMeta{},
		steal:       make([]sim.Time, s.Cfg.ProcsPerNode),
	}
	// The Base barrier aggregates arrivals into mVC at the master only;
	// one backing array serves its ring (full slice caps keep the
	// vectors from spilling into each other). DW epochs take their
	// vectors from the record pool while live (see barEpochAt).
	nn := s.Cfg.Nodes
	var mvecs []uint64
	if !s.Feat.DW && id == 0 {
		mvecs = make([]uint64, len(n.barEpochs)*nn)
	}
	for i := range n.barEpochs {
		e := &n.barEpochs[i]
		e.seq = -1
		if mvecs != nil {
			e.mVC = mvecs[i*nn : (i+1)*nn : (i+1)*nn]
		}
	}
	n.proto.n = n
	n.ep.Perturb = n.perturb
	n.ep.Sink = &n.proto
	return n
}

func (n *Node) start() {
	np := n.sys.Space.NPages()
	n.Mem = memory.NewNodeMem(n.sys.Space)
	n.state = make([]pageState, np)
	// Per-page slices share backing arrays by element type (full slice
	// caps prevent cross-spill): three bool tables and two WaitQ
	// tables. The three version tables allocate rows on first write.
	bools := make([]bool, 3*np)
	n.fetching = bools[0:np:np]
	n.copyVerSet = bools[np : 2*np : 2*np]
	n.dirtySet = bools[2*np : 3*np : 3*np]
	qs := make([]sim.WaitQ, 2*np)
	n.fetchQ = qs[0:np:np]
	n.homeWaitQ = qs[np : 2*np : 2*np]
	n.need = newVecTable(np, n.sys.zeroVec)
	n.copyVer = newVecTable(np, n.sys.zeroVec)
	n.homeVer = newVecTable(np, n.sys.zeroVec)
	for p := 0; p < np; p++ {
		if n.sys.Space.Home(p) == n.ID {
			n.state[p] = pageValid // the home copy is always materialized
		}
	}
	if n.sys.Feat.RF {
		n.ep.FetchServer = n.serveFetch
	}
	// The floating protocol process (n.proto) is spawned by the node's
	// first message (some residual interrupt-class traffic exists until
	// GeNIMA); under GeNIMA it never receives one and never exists.
}

// perturb charges interrupt scheduling perturbation to the next victim
// compute processor (round robin).
func (n *Node) perturb() {
	n.steal[n.victim] += n.sys.Cfg.Costs.SchedPerturb
	n.victim = (n.victim + 1) % len(n.steal)
}

// TakeSteal consumes pending stolen time for processor slot cpu; the app
// harness adds it to the processor's next compute period.
func (n *Node) TakeSteal(cpu int) sim.Time {
	t := n.steal[cpu]
	n.steal[cpu] = 0
	return t
}

// PageBytes returns the node's working copy of a page: the authoritative
// home copy when this node is the page's home, the local copy otherwise.
// Callers must bracket accesses with EnsureReadable/EnsureWritable.
func (n *Node) PageBytes(page int) []byte {
	if n.sys.Space.Home(page) == n.ID {
		return n.sys.Space.HomeCopy(page)
	}
	return n.Mem.Page(page)
}

// needSatisfied reports whether verRow covers this node's requirements
// for page p.
func (n *Node) needSatisfied(p int, verRow []uint64) bool {
	return vecCovered(n.need.row(p), verRow)
}

// applyIntervalMeta applies a write notice: records the page requirement
// and collects pages to invalidate (the caller batches the mprotect).
// Pages homed at this node are not invalidated (the home copy is master);
// accesses to them wait on the home version instead. A local copy that
// was fetched after the interval's diff reached the home is already
// current and is not invalidated (the copy-version check of HLRC).
func (n *Node) applyIntervalMeta(iv *interval, invalidate *[]int) {
	for _, p32 := range iv.Pages {
		p := int(p32)
		if n.need.row(p)[iv.Src] < iv.Seq {
			n.need.writeRow(p)[iv.Src] = iv.Seq
		}
		if n.sys.Space.Home(p) == n.ID {
			continue
		}
		if n.state[p] == pageValid && (!n.copyVerSet[p] || n.copyVer.row(p)[iv.Src] < iv.Seq) {
			n.state[p] = pageInvalid
			*invalidate = append(*invalidate, p)
		}
	}
	if n.vc[iv.Src] < iv.Seq {
		n.vc[iv.Src] = iv.Seq
	}
}

// recordInterval stores a received interval in the log. The log only
// ever grows, so extending within capacity just re-slices (the tail is
// still zero from the backing array's make); growth jumps geometrically
// rather than entry by entry.
func (n *Node) recordInterval(iv *interval) {
	l := n.srcLog(iv.Src)
	lg := l.ivs
	if uint64(len(lg)) < iv.Seq {
		if uint64(cap(lg)) < iv.Seq {
			newCap := uint64(cap(lg)) * 4
			if newCap < 64 {
				newCap = 64
			}
			if newCap < iv.Seq {
				newCap = iv.Seq
			}
			ng := make([]*interval, iv.Seq, newCap)
			copy(ng, lg)
			lg = ng
		} else {
			lg = lg[:iv.Seq]
		}
	}
	lg[iv.Seq-1] = iv
	l.ivs = lg
}

// appendIntervalsAfter appends this node's known intervals from src in
// (from, to] onto out (piggybacked on Base lock grants and barrier
// arrivals), reusing out's backing array.
func (n *Node) appendIntervalsAfter(out []*interval, src int, from, to uint64) []*interval {
	for s := from + 1; s <= to; s++ {
		if iv := n.loggedInterval(src, s); iv != nil {
			out = append(out, iv)
		}
	}
	return out
}

// loggedInterval returns src's interval seq from the log, or nil when
// this node has not received it (or never heard from src).
func (n *Node) loggedInterval(src int, seq uint64) *interval {
	if l := n.log[src]; l != nil && seq-1 < uint64(len(l.ivs)) {
		return l.ivs[seq-1]
	}
	return nil
}

// markDirty registers a page in the node's open write interval.
func (n *Node) markDirty(pg int) {
	if !n.dirtySet[pg] {
		n.dirtySet[pg] = true
		n.dirtyList = append(n.dirtyList, int32(pg))
	}
}
