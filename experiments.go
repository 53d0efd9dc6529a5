package genima

import (
	"fmt"
	"strings"

	"genima/internal/app"
	"genima/internal/apps"
	"genima/internal/apps/svmkv"
	"genima/internal/nic"
	"genima/internal/sim"
	"genima/internal/stats"
)

// Scale selects suite problem sizes.
type Scale = apps.Scale

// Suite scales.
const (
	// TestScale runs each experiment in milliseconds (CI-sized inputs).
	TestScale = apps.Test
	// BenchScale is the default table/figure regeneration size.
	BenchScale = apps.Bench
)

// SuiteOptions configures RunSuite and every experiment built on the
// experiment runner. Table5, Scaling, FaultSweep, ScaleSweep and Serve
// take Scale, Workers and Progress from it and choose their own
// Protocols and Hardware. Every run is validated against its
// sequential reference.
type SuiteOptions struct {
	Scale     Scale
	Protocols []Protocol // default: all five rungs
	Hardware  bool       // also run the Origin-2000-like model
	Progress  func(string)

	// Workers bounds how many simulations run concurrently. Every run
	// owns a private engine and address space, so results are identical
	// for any value; only wall-clock time and Progress ordering change.
	// 0 (the default) uses GOMAXPROCS; 1 runs serially.
	Workers int
}

// SuiteResults holds every run needed to regenerate Figures 1–4 and
// Tables 1–4 (Table 5 takes its own 32-processor runs; see Table5).
type SuiteResults struct {
	Cfg     Config
	Entries []apps.Entry
	Seq     []*Result
	HW      []*Result
	SVM     map[Protocol][]*Result
}

// RunSuite executes the application suite under every requested
// protocol (plus the sequential reference and, optionally, hardware).
// Independent runs are fanned across OS threads per opt.Workers; see
// SuiteOptions. Results do not depend on the worker count.
func RunSuite(cfg Config, opt SuiteOptions) (*SuiteResults, error) {
	ss, err := runSuites(opt, []string{""}, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return ss[0], nil
}

// runSuites runs the suite once per config in one runAll call, so a
// multi-config experiment keeps the pool busy across configs. tags[c]
// prefixes config c's job labels.
func runSuites(opt SuiteOptions, tags []string, cfgs []Config) ([]*SuiteResults, error) {
	kinds := opt.Protocols
	if kinds == nil {
		kinds = Protocols()
	}
	entries := apps.Suite(opt.Scale)
	n := len(entries)
	var refs, runs []job
	for c, cfg := range cfgs {
		for i, e := range entries {
			refs = append(refs, job{label: tags[c] + "seq/" + e.App.Name(), cfg: cfg,
				app: func() App { return apps.Suite(opt.Scale)[i].App }})
		}
		// Runs are protocol-major: each protocol's results are one block.
		add := func(name string, k Protocol, hw bool) {
			for i, e := range entries {
				runs = append(runs, job{label: tags[c] + name + "/" + e.App.Name(), cfg: cfg,
					app: refs[c*n+i].app, kind: k, hw: hw, ref: c*n + i})
			}
		}
		if opt.Hardware {
			add("hw", 0, true)
		}
		for _, k := range kinds {
			add(k.String(), k, false)
		}
	}
	seq, res, err := runAll(opt, refs, runs)
	if err != nil {
		return nil, err
	}
	out := make([]*SuiteResults, len(cfgs))
	for c, cfg := range cfgs {
		s := &SuiteResults{Cfg: cfg, Entries: entries, SVM: map[Protocol][]*Result{}}
		s.Seq, seq = seq[:n:n], seq[n:]
		if opt.Hardware {
			s.HW, res = res[:n:n], res[n:]
		}
		for _, k := range kinds {
			s.SVM[k], res = res[:n:n], res[n:]
		}
		out[c] = s
	}
	return out, nil
}

func (s *SuiteResults) appNames() []string {
	var out []string
	for _, e := range s.Entries {
		out = append(out, e.PaperName)
	}
	return out
}

func (s *SuiteResults) speedups(rs []*Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = app.Speedup(s.Seq[i], r)
	}
	return out
}

// --- Figure 1: Origin 2000 vs Base SVM speedups ---

// Figure1Data is the paper's Figure 1: hardware DSM vs Base SVM.
type Figure1Data struct {
	Apps   []string
	Origin []float64
	Base   []float64
}

// Figure1 computes Figure 1 (requires Hardware runs).
func (s *SuiteResults) Figure1() *Figure1Data {
	return &Figure1Data{Apps: s.appNames(), Origin: s.speedups(s.HW), Base: s.speedups(s.SVM[Base])}
}

// String renders the figure as a table of speedups.
func (f *Figure1Data) String() string {
	t := stats.NewTable("Application", "Origin2000", "Base SVM")
	for i, a := range f.Apps {
		t.Row(a, f.Origin[i], f.Base[i])
	}
	return "Figure 1: speedups, hardware DSM vs Base SVM (16 procs)\n" + t.String()
}

// --- Figure 2: the protocol ladder speedups ---

// Figure2Data is the paper's Figure 2: speedups for every rung.
type Figure2Data struct {
	Apps       []string
	Protocols  []Protocol
	ByProtocol map[Protocol][]float64
}

// Figure2 computes Figure 2.
func (s *SuiteResults) Figure2() *Figure2Data {
	f := &Figure2Data{Apps: s.appNames(), Protocols: Protocols(), ByProtocol: map[Protocol][]float64{}}
	for _, k := range f.Protocols {
		if rs, ok := s.SVM[k]; ok {
			f.ByProtocol[k] = s.speedups(rs)
		}
	}
	return f
}

// String renders the figure.
func (f *Figure2Data) String() string {
	cols := []string{"Application"}
	for _, k := range f.Protocols {
		cols = append(cols, k.String())
	}
	t := stats.NewTable(cols...)
	for i, a := range f.Apps {
		row := []any{a}
		for _, k := range f.Protocols {
			row = append(row, f.ByProtocol[k][i])
		}
		t.Row(row...)
	}
	return "Figure 2: application speedups per protocol (16 procs)\n" + t.String()
}

// --- Figure 3: normalized execution-time breakdowns ---

// Figure3Data is the paper's Figure 3: per-protocol breakdowns
// normalized to the Base protocol's total (Base = 1.0).
type Figure3Data struct {
	Apps       []string
	Protocols  []Protocol
	Categories []string
	// Normalized[app][protocol][category]
	Normalized [][][]float64
}

// Figure3 computes Figure 3.
func (s *SuiteResults) Figure3() *Figure3Data {
	f := &Figure3Data{Apps: s.appNames(), Protocols: Protocols()}
	for c := 0; c < stats.NumCategories; c++ {
		f.Categories = append(f.Categories, stats.Category(c).String())
	}
	for i := range s.Entries {
		baseTotal := s.SVM[Base][i].Avg.Total()
		perProto := make([][]float64, 0, len(f.Protocols))
		for _, k := range f.Protocols {
			avg := s.SVM[k][i].Avg
			cats := make([]float64, stats.NumCategories)
			for c := range cats {
				if baseTotal > 0 {
					cats[c] = float64(avg.T[c]) / float64(baseTotal)
				}
			}
			perProto = append(perProto, cats)
		}
		f.Normalized = append(f.Normalized, perProto)
	}
	return f
}

// String renders the figure as stacked-component rows.
func (f *Figure3Data) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 3: normalized execution time breakdowns (Base = 1.00)\n")
	cols := append([]string{"Application", "Protocol"}, f.Categories...)
	cols = append(cols, "Total")
	t := stats.NewTable(cols...)
	for i, a := range f.Apps {
		for p, k := range f.Protocols {
			row := []any{a, k.String()}
			total := 0.0
			for _, v := range f.Normalized[i][p] {
				row = append(row, v)
				total += v
			}
			row = append(row, total)
			t.Row(row...)
		}
	}
	sb.WriteString(t.String())
	return sb.String()
}

// --- Figure 4: Origin vs Base vs GeNIMA ---

// Figure4Data is the paper's Figure 4.
type Figure4Data struct {
	Apps   []string
	Origin []float64
	Base   []float64
	GeNIMA []float64
}

// Figure4 computes Figure 4 (requires Hardware runs).
func (s *SuiteResults) Figure4() *Figure4Data {
	return &Figure4Data{
		Apps:   s.appNames(),
		Origin: s.speedups(s.HW),
		Base:   s.speedups(s.SVM[Base]),
		GeNIMA: s.speedups(s.SVM[GeNIMA]),
	}
}

// String renders the figure.
func (f *Figure4Data) String() string {
	t := stats.NewTable("Application", "Origin2000", "Base", "GeNIMA")
	for i, a := range f.Apps {
		t.Row(a, f.Origin[i], f.Base[i], f.GeNIMA[i])
	}
	return "Figure 4: speedups, hardware DSM vs Base vs GeNIMA (16 procs)\n" + t.String()
}

// --- Table 1: application statistics and improvements ---

// Table1Row is one application's Table 1 statistics.
type Table1Row struct {
	App        string
	PaperSize  string
	OurSize    string
	UniprocSec float64
	// OverallPct is the Base -> GeNIMA improvement in execution time.
	OverallPct float64
	// DataPct is the DW -> DW+RF improvement in data wait time; the
	// parenthesized paper figure is DW -> GeNIMA.
	DataPct float64
	// DataFullPct is the DW -> GeNIMA data-wait improvement.
	DataFullPct float64
	// LockPct is the DW+RF+DD -> GeNIMA improvement in lock time.
	LockPct float64
}

// Table1Data is the paper's Table 1.
type Table1Data struct{ Rows []Table1Row }

func improvePct(before, after float64) float64 {
	if before <= 0 {
		return 0
	}
	return 100 * (before - after) / before
}

// Table1 computes Table 1.
func (s *SuiteResults) Table1() *Table1Data {
	d := &Table1Data{}
	for i, e := range s.Entries {
		base := s.SVM[Base][i]
		gen := s.SVM[GeNIMA][i]
		dw := s.SVM[DW][i]
		dwrf := s.SVM[DWRF][i]
		dd := s.SVM[DWRFDD][i]
		d.Rows = append(d.Rows, Table1Row{
			App:         e.PaperName,
			PaperSize:   e.PaperSize,
			OurSize:     e.OurSize,
			UniprocSec:  stats.Seconds(s.Seq[i].Elapsed),
			OverallPct:  improvePct(float64(base.Elapsed), float64(gen.Elapsed)),
			DataPct:     improvePct(float64(dw.Avg.T[stats.Data]), float64(dwrf.Avg.T[stats.Data])),
			DataFullPct: improvePct(float64(dw.Avg.T[stats.Data]), float64(gen.Avg.T[stats.Data])),
			LockPct:     improvePct(float64(dd.Avg.T[stats.Lock]), float64(gen.Avg.T[stats.Lock])),
		})
	}
	return d
}

// String renders Table 1.
func (d *Table1Data) String() string {
	t := stats.NewTable("Application", "Paper size", "Our size", "Uniproc(s)",
		"Overall(%)", "Data(%) RF", "Data(%) all", "Lock(%) NIL")
	for _, r := range d.Rows {
		t.Row(r.App, r.PaperSize, r.OurSize, r.UniprocSec, r.OverallPct, r.DataPct, r.DataFullPct, r.LockPct)
	}
	return "Table 1: application statistics and per-mechanism improvements\n" + t.String()
}

// --- Table 2: barrier time decomposition (GeNIMA) ---

// Table2Row is one application's barrier statistics under GeNIMA.
type Table2Row struct {
	App string
	// BTPct: share of execution time spent in barriers.
	BTPct float64
	// BPTPct: share of barrier time that is protocol processing.
	BPTPct float64
	// MTPct: share of total SVM overhead spent in mprotect.
	MTPct float64
}

// Table2Data is the paper's Table 2.
type Table2Data struct{ Rows []Table2Row }

// Table2 computes Table 2 from the GeNIMA runs.
func (s *SuiteResults) Table2() *Table2Data {
	d := &Table2Data{}
	for i, e := range s.Entries {
		r := s.SVM[GeNIMA][i]
		var sumTotal, sumBarrier, sumOverhead float64
		for _, b := range r.Breakdowns {
			sumTotal += float64(b.Total())
			sumBarrier += float64(b.T[stats.Barrier])
			sumOverhead += float64(b.Overhead())
		}
		row := Table2Row{App: e.PaperName}
		if sumTotal > 0 {
			row.BTPct = 100 * sumBarrier / sumTotal
		}
		if sumBarrier > 0 {
			row.BPTPct = 100 * float64(r.BarrierProto) / sumBarrier
		}
		if sumOverhead > 0 {
			row.MTPct = 100 * float64(r.Acct.Mprotect) / sumOverhead
		}
		d.Rows = append(d.Rows, row)
	}
	return d
}

// String renders Table 2.
func (d *Table2Data) String() string {
	t := stats.NewTable("Application", "BT(%)", "BPT(%)", "MT(%)")
	for _, r := range d.Rows {
		t.Row(r.App, r.BTPct, r.BPTPct, r.MTPct)
	}
	return "Table 2: barrier time (BT), barrier protocol share (BPT), mprotect share of SVM overhead (MT), GeNIMA\n" + t.String()
}

// --- Tables 3 and 4: NI monitor contention ratios ---

// ContentionRow is one application's per-stage actual/uncontended
// ratios under Base and GeNIMA.
type ContentionRow struct {
	App    string
	Base   [nic.NumStages]float64
	GeNIMA [nic.NumStages]float64
}

// ContentionData is Table 3 (small messages) or Table 4 (large).
type ContentionData struct {
	Class nic.Class
	Rows  []ContentionRow
}

func (s *SuiteResults) contention(class nic.Class) *ContentionData {
	d := &ContentionData{Class: class}
	for i, e := range s.Entries {
		d.Rows = append(d.Rows, ContentionRow{
			App:    e.PaperName,
			Base:   s.SVM[Base][i].Monitor.Ratios(class),
			GeNIMA: s.SVM[GeNIMA][i].Monitor.Ratios(class),
		})
	}
	return d
}

// Table3 computes the small-message contention ratios.
func (s *SuiteResults) Table3() *ContentionData { return s.contention(nic.Small) }

// Table4 computes the large-message contention ratios.
func (s *SuiteResults) Table4() *ContentionData { return s.contention(nic.Large) }

// String renders the contention table in the paper's Base/GeNIMA form.
func (d *ContentionData) String() string {
	t := stats.NewTable("Application", "SourceLat", "LANaiLat", "NetLat", "DestLat")
	for _, r := range d.Rows {
		cells := []any{r.App}
		for st := 0; st < int(nic.NumStages); st++ {
			cells = append(cells, fmt.Sprintf("%.1f/%.1f", r.Base[st], r.GeNIMA[st]))
		}
		t.Row(cells...)
	}
	n := "Table 3"
	if d.Class == nic.Large {
		n = "Table 4"
	}
	return fmt.Sprintf("%s: %s-message contention ratios, actual/uncontended (Base/GeNIMA)\n%s",
		n, d.Class, t.String())
}

// --- Table 5: 32-processor speedups ---

// Table5Data is the paper's Table 5: GeNIMA vs Origin at 32 processors.
type Table5Data struct {
	Apps   []string
	SVM    []float64
	Origin []float64
}

// Table5 runs the suite on an 8-node (32-processor) cluster under
// GeNIMA and the hardware model. It is independent of RunSuite's
// main-suite callers.
func Table5(opt SuiteOptions) (*Table5Data, error) {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	opt.Protocols, opt.Hardware = []Protocol{GeNIMA}, true
	ss, err := runSuites(opt, []string{"table5 "}, []Config{cfg})
	if err != nil {
		return nil, err
	}
	s := ss[0]
	return &Table5Data{
		Apps:   s.appNames(),
		SVM:    s.speedups(s.SVM[GeNIMA]),
		Origin: s.speedups(s.HW),
	}, nil
}

// String renders Table 5.
func (d *Table5Data) String() string {
	t := stats.NewTable("Application", "SVM (GeNIMA)", "SGI Origin2000")
	for i, a := range d.Apps {
		t.Row(a, d.SVM[i], d.Origin[i])
	}
	return "Table 5: speedups on 32 processors\n" + t.String()
}

// --- Scaling study (the paper's §5: "how the performance and
// bottlenecks scale with system size") ---

// ScalingData holds per-cluster-size speedups for the whole suite under
// Base and GeNIMA.
type ScalingData struct {
	Apps   []string
	Nodes  []int
	Procs  []int
	Base   [][]float64 // [app][size]
	GeNIMA [][]float64
}

// Scaling runs the suite at 1, 2, 4 and 8 nodes (4-way SMPs) under
// Base and GeNIMA.
func Scaling(opt SuiteOptions) (*ScalingData, error) {
	d := &ScalingData{Nodes: []int{1, 2, 4, 8}}
	var tags []string
	var cfgs []Config
	for _, nodes := range d.Nodes {
		d.Procs = append(d.Procs, nodes*4)
		cfg := DefaultConfig()
		cfg.Nodes = nodes
		tags = append(tags, fmt.Sprintf("scaling %dn ", nodes))
		cfgs = append(cfgs, cfg)
	}
	opt.Protocols, opt.Hardware = []Protocol{Base, GeNIMA}, false
	ss, err := runSuites(opt, tags, cfgs)
	if err != nil {
		return nil, err
	}
	d.Apps = ss[0].appNames()
	for i := range d.Apps {
		d.Base = append(d.Base, make([]float64, len(d.Nodes)))
		d.GeNIMA = append(d.GeNIMA, make([]float64, len(d.Nodes)))
		for si, s := range ss {
			d.Base[i][si] = app.Speedup(s.Seq[i], s.SVM[Base][i])
			d.GeNIMA[i][si] = app.Speedup(s.Seq[i], s.SVM[GeNIMA][i])
		}
	}
	return d, nil
}

// String renders the scaling study.
func (d *ScalingData) String() string {
	cols := []string{"Application", "Protocol"}
	for _, p := range d.Procs {
		cols = append(cols, fmt.Sprintf("%dp", p))
	}
	t := stats.NewTable(cols...)
	for i, a := range d.Apps {
		row := []any{a, "Base"}
		for si := range d.Nodes {
			row = append(row, d.Base[i][si])
		}
		t.Row(row...)
		row = []any{a, "GeNIMA"}
		for si := range d.Nodes {
			row = append(row, d.GeNIMA[i][si])
		}
		t.Row(row...)
	}
	return "Scaling study: suite speedups vs cluster size (4-way SMP nodes)\n" + t.String()
}

// --- Fault sweep: protocol robustness under link faults (new
// experiment, beyond the paper: the paper's testbed assumes VMMC's
// reliable delivery; here the NI firmware provides it over lossy
// links, and the sweep shows what that reliability costs each
// protocol rung) ---

// FaultSweepData holds mean suite speedups per protocol at each drop
// rate, with per-rate fault/recovery totals. Every run is validated
// against the sequential reference, so a row's presence certifies the
// ladder still computes correct results at that rate.
type FaultSweepData struct {
	Seed      uint64
	Rates     []float64 // drop rates; dup/delay/corrupt ride along per FaultMix
	Apps      []string
	Speedups  map[Protocol][]float64 // mean suite speedup, [protocol][rate]
	Injected  []uint64               // faults injected per rate, summed over the suite
	Retx      []uint64               // retransmissions per rate
	RecovToUs []float64              // mean recovery time per rate, µs
}

// FaultSweepRates is the sweep's drop-rate ladder (0 = faults off).
func FaultSweepRates() []float64 { return []float64{0, 0.001, 0.005, 0.01} }

// FaultSweep runs the full app x protocol suite at each drop rate in
// FaultSweepRates with a FaultMix plan seeded by seed, validating
// every run. It is independent of RunSuite's main-suite callers.
func FaultSweep(opt SuiteOptions, seed uint64) (*FaultSweepData, error) {
	d := &FaultSweepData{
		Seed:     seed,
		Rates:    FaultSweepRates(),
		Speedups: map[Protocol][]float64{},
	}
	var tags []string
	var cfgs []Config
	for _, rate := range d.Rates {
		cfg := DefaultConfig()
		if rate > 0 {
			cfg.Faults = FaultMix(rate, seed)
		}
		tags = append(tags, fmt.Sprintf("faultsweep %.2f%% ", 100*rate))
		cfgs = append(cfgs, cfg)
	}
	opt.Protocols, opt.Hardware = nil, false
	ss, err := runSuites(opt, tags, cfgs)
	if err != nil {
		return nil, err
	}
	d.Apps = ss[0].appNames()
	for _, s := range ss {
		var rep stats.FaultReport
		for _, k := range Protocols() {
			sum := 0.0
			for i, r := range s.SVM[k] {
				sum += app.Speedup(s.Seq[i], r)
				rep.Merge(r.Faults)
			}
			d.Speedups[k] = append(d.Speedups[k], sum/float64(len(s.SVM[k])))
		}
		d.Injected = append(d.Injected, rep.DropsInjected+rep.DupsInjected+
			rep.DelaysInjected+rep.CorruptsInjected+rep.DownDrops)
		d.Retx = append(d.Retx, rep.RetxSent)
		d.RecovToUs = append(d.RecovToUs, float64(rep.MeanRecovery())/1000)
	}
	return d, nil
}

// --- Scale sweep: barrier cost vs node count, flat fan-out vs the
// NI-firmware collective tree (the PR 7 headline experiment; the paper
// stops at 32 processors, this extrapolates its Figure 2 / Table 2
// barrier story to 64–512 nodes on a switched fabric) ---

// ScaleSweepData holds per-node-count barrier costs for the
// barrierbench microbenchmark on a radix-32 clos2 fabric, one
// processor per node, under a 1% mixed fault plan. FlatNs and TreeNs
// are mean wall-clock (virtual) ns per barrier episode; TreeSpeedup is
// flat/tree. Base has no deposit support, so the collective gate
// leaves it on the interrupt path: its "tree" column equals flat and
// is reported as the contrast the capability ladder predicts.
type ScaleSweepData struct {
	Nodes     []int
	Protocols []Protocol
	Radix     int
	Rounds    int
	FlatNs    map[Protocol][]float64
	TreeNs    map[Protocol][]float64
}

// ScaleSweepNodes is the sweep's cluster-size ladder. At TestScale both
// points span two or more radix-32 leaves, so every run crosses the
// spine.
func ScaleSweepNodes(scale Scale) []int {
	if scale == TestScale {
		return []int{32, 64}
	}
	return []int{64, 128, 256, 512}
}

// scaleSweepConfig is one point of the scale sweep: one processor per
// node on a clos2 fabric under the 1% mixed fault plan.
func scaleSweepConfig(nodes, radix int, tree bool, seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.ProcsPerNode = 1
	cfg.Topo = TopoClos2
	cfg.SwitchRadix = radix
	cfg.Collectives = tree
	cfg.Faults = FaultMix(0.01, seed)
	return cfg
}

// TreeSpeedup returns flat/tree for one protocol across the ladder.
func (d *ScaleSweepData) TreeSpeedup(k Protocol) []float64 {
	out := make([]float64, len(d.Nodes))
	for i := range d.Nodes {
		if t := d.TreeNs[k][i]; t > 0 {
			out[i] = d.FlatNs[k][i] / t
		}
	}
	return out
}

// ScaleSweep runs barrierbench at each node count in ScaleSweepNodes,
// per protocol, with collectives off (flat fan-out) and on (NI tree).
// It covers Base (interrupt barrier) and GeNIMA (flat deposit vs
// tree). DW, DW+RF and DW+RF+DD send exactly GeNIMA's packet stream on
// barrierbench, which takes no locks and fetches no pages
// (TestScaleSweepDWMatchesGeNIMA pins the DW identity). Every run
// injects the 1% mixed fault plan — completing the sweep certifies the
// collective tree rides the go-back-N reliable edges.
func ScaleSweep(opt SuiteOptions, seed uint64) (*ScaleSweepData, error) {
	bench := func() App {
		e, _ := apps.ByName(opt.Scale, "barrierbench")
		return e.App
	}
	d := &ScaleSweepData{
		Nodes:     ScaleSweepNodes(opt.Scale),
		Protocols: []Protocol{Base, GeNIMA},
		Radix:     32,
		Rounds:    bench().(interface{ Rounds() int }).Rounds(),
		FlatNs:    map[Protocol][]float64{},
		TreeNs:    map[Protocol][]float64{},
	}
	refs := []job{{label: "scalesweep seq", cfg: DefaultConfig(), app: bench}}
	var runs []job
	for _, nodes := range d.Nodes {
		for _, k := range d.Protocols {
			for _, tree := range []bool{false, true} {
				runs = append(runs, job{
					label: fmt.Sprintf("scalesweep %v/%dn/tree=%v", k, nodes, tree),
					cfg:   scaleSweepConfig(nodes, d.Radix, tree, seed),
					app:   bench,
					kind:  k,
				})
			}
		}
	}
	_, res, err := runAll(opt, refs, runs)
	if err != nil {
		return nil, err
	}
	// 2 barriers per round plus the harness's trailing flush barrier.
	barriers := float64(2*d.Rounds + 1)
	for i, r := range runs {
		ns := float64(res[i].Elapsed) / barriers
		if r.cfg.Collectives {
			d.TreeNs[r.kind] = append(d.TreeNs[r.kind], ns)
		} else {
			d.FlatNs[r.kind] = append(d.FlatNs[r.kind], ns)
		}
	}
	return d, nil
}

// String renders the sweep.
func (d *ScaleSweepData) String() string {
	cols := []string{"Protocol", "Barrier"}
	for _, n := range d.Nodes {
		cols = append(cols, fmt.Sprintf("%dn", n))
	}
	t := stats.NewTable(cols...)
	for _, k := range d.Protocols {
		row := []any{k.String(), "flat us"}
		for i := range d.Nodes {
			row = append(row, d.FlatNs[k][i]/1000)
		}
		t.Row(row...)
		row = []any{k.String(), "tree us"}
		for i := range d.Nodes {
			row = append(row, d.TreeNs[k][i]/1000)
		}
		t.Row(row...)
		row = []any{k.String(), "speedup"}
		for _, s := range d.TreeSpeedup(k) {
			row = append(row, s)
		}
		t.Row(row...)
	}
	return fmt.Sprintf("Scale sweep: mean barrier time (us) on clos2 radix %d, 1 proc/node, 1%% faults, %d rounds\n%s",
		d.Radix, d.Rounds, t.String())
}

// --- Serving sweep: throughput and tail latency of the svmkv
// open-loop KV server, protocol × load level × fault rate (new
// experiment, beyond the paper: the ladder judged on p50/p99/p999
// request tails under production-style load and packet loss instead of
// one batch speedup number) ---

// ServeLoadLevels names the sweep's offered-load points as multipliers
// on the svmkv default mean interarrival gap: "moderate" (2.5× the
// gap) sits below every rung's drain rate, so tails reflect service
// and burst absorption; "heavy" (the default gap) offers more than the
// fastest rung drains, so tails reflect open-loop overload queueing.
func ServeLoadLevels() []ServeLoad {
	return []ServeLoad{{"moderate", 2.5}, {"heavy", 1.0}}
}

// ServeLoad is one offered-load point.
type ServeLoad struct {
	Name string
	// GapScale multiplies Params.MeanGapNs (larger gap = lighter load).
	GapScale float64
}

// ServeFaultRates is the sweep's fault ladder: clean links and the 1%
// mixed plan (drops + dups + delays + corruption per FaultMix).
func ServeFaultRates() []float64 { return []float64{0, 0.01} }

// ServeCell is one (protocol, load, fault-rate) measurement.
type ServeCell struct {
	// ReqsPerSec is completed requests per simulated second.
	ReqsPerSec float64
	Lat        stats.LatencySummary
}

// ServeData holds the serving sweep. Cells is indexed
// [protocol][load][fault-rate], aligned with Protocols/Loads/Rates.
// Every run is validated byte-exact against the sequential reference,
// so a cell's presence certifies the server computed correct results
// under that protocol, load, and fault plan.
type ServeData struct {
	Seed      uint64
	Scale     Scale
	Params    svmkv.Params // base workload (MeanGapNs scaled per load)
	Protocols []Protocol
	Loads     []ServeLoad
	Rates     []float64
	Cells     map[Protocol][][]ServeCell
}

// Serve runs the svmkv serving workload across the full protocol
// ladder at each load level and fault rate, collecting throughput and
// latency tails from the merged per-processor histograms.
func Serve(opt SuiteOptions, seed uint64) (*ServeData, error) {
	base := svmkv.DefaultParams(opt.Scale == BenchScale)
	base.Seed = seed
	d := &ServeData{
		Seed:      seed,
		Scale:     opt.Scale,
		Params:    base,
		Protocols: Protocols(),
		Loads:     ServeLoadLevels(),
		Rates:     ServeFaultRates(),
		Cells:     map[Protocol][][]ServeCell{},
	}
	var refs, runs []job
	var cells []*ServeCell // aligned with runs
	for li, load := range d.Loads {
		p := base
		p.MeanGapNs = base.MeanGapNs * load.GapScale
		kv := func() App { return svmkv.New(p) }
		refs = append(refs, job{label: "serve seq/" + load.Name, cfg: DefaultConfig(), app: kv})
		for _, k := range d.Protocols {
			d.Cells[k] = append(d.Cells[k], make([]ServeCell, len(d.Rates)))
			for ri, rate := range d.Rates {
				cfg := DefaultConfig()
				if rate > 0 {
					cfg.Faults = FaultMix(rate, seed)
				}
				runs = append(runs, job{label: fmt.Sprintf("serve %v/%s/%.0f%%", k, load.Name, 100*rate),
					cfg: cfg, app: kv, kind: k, ref: li})
				cells = append(cells, &d.Cells[k][li][ri])
			}
		}
	}
	_, res, err := runAll(opt, refs, runs)
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		*cells[i] = ServeCell{ReqsPerSec: r.Latency.Throughput(r.Elapsed), Lat: r.Latency.Summary()}
	}
	return d, nil
}

// Cell returns the measurement for (protocol, load index, rate index).
func (d *ServeData) Cell(k Protocol, load, rate int) ServeCell { return d.Cells[k][load][rate] }

// String renders the sweep as the protocol × load × fault-rate table.
func (d *ServeData) String() string {
	t := stats.NewTable("Protocol", "Load", "Faults", "kreq/s", "p50 us", "p90 us", "p99 us", "p999 us", "max us")
	us := func(v sim.Time) float64 { return float64(v) / 1000 }
	for _, k := range d.Protocols {
		for li, load := range d.Loads {
			for ri, rate := range d.Rates {
				c := d.Cells[k][li][ri]
				t.Row(k.String(), load.Name, fmt.Sprintf("%.0f%%", 100*rate),
					c.ReqsPerSec/1000, us(c.Lat.P50), us(c.Lat.P90), us(c.Lat.P99),
					us(c.Lat.P999), us(c.Lat.Max))
			}
		}
	}
	return fmt.Sprintf("Serving sweep: svmkv open-loop KV server (%d reqs, %d shards, zipf %.2f, seed %d; all runs validated)\n%s",
		d.Params.Requests, d.Params.Shards, d.Params.Zipf, d.Seed, t.String())
}

// String renders the sweep as a degradation table.
func (d *FaultSweepData) String() string {
	cols := []string{"Protocol"}
	for _, r := range d.Rates {
		cols = append(cols, fmt.Sprintf("%.1f%% drop", 100*r))
	}
	t := stats.NewTable(cols...)
	for _, k := range Protocols() {
		row := []any{k.String()}
		for ri := range d.Rates {
			row = append(row, d.Speedups[k][ri])
		}
		t.Row(row...)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fault sweep: mean suite speedup vs link fault rate (seed %d, all runs validated)\n", d.Seed)
	sb.WriteString(t.String())
	for ri, r := range d.Rates {
		if r == 0 {
			continue
		}
		fmt.Fprintf(&sb, "at %.1f%%: %d faults injected, %d retransmissions, mean recovery %.0f us\n",
			100*r, d.Injected[ri], d.Retx[ri], d.RecovToUs[ri])
	}
	return sb.String()
}
