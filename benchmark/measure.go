package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	genima "genima"
	"genima/internal/nic"
	"genima/internal/stats"
)

const (
	// Set-up is timed in setupBatches batches. A batch repeats set-up
	// until it has taken setupBatchSecs (or the run length, if shorter),
	// so neither timer resolution nor cold caches swamp a set-up of
	// microseconds. setup_s is the median over batches of the mean time
	// per repetition.
	setupBatches   = 5
	setupBatchSecs = 0.1
	// minPasses keeps a median meaningful when --seconds is short.
	minPasses = 3
	// tracePairs is how many traced passes a traced run makes, each
	// beside an untraced one.
	tracePairs = 3
)

// report is everything one benchmark process measured. The registry's
// value functions read it.
type report struct {
	setup  []float64 // host seconds per set-up repetition, one mean per batch
	passes []float64 // host seconds per timed pass (the parallel leg on pdes)
	serial []float64 // pdes: host seconds of the serial leg paired with passes[i]
	rssMB  float64
	model  model

	attempted, failed int
	errs              []string

	// Inputs of the layer metrics; traceRatios, pkts and drivers are
	// filled by a traced run only.
	events      uint64    // simulated events per pass
	timedEvents uint64    // simulated events over every timed leg
	mallocs     uint64    // heap allocations over every timed leg
	allocBytes  uint64    // heap bytes allocated over every timed leg
	traceRatios []float64 // traced pass ÷ untraced pass, per pair
	sums        layerSums
	pkts        packetSums
	drivers     map[string]testing.BenchmarkResult
}

// layerSums adds up the virtual-time counters of a pass's SVM runs.
type layerSums struct {
	runs          int
	cats          [stats.NumCategories]float64
	acct          stats.SVMAccounting
	faults        stats.FaultReport
	postStalls    uint64
	postStallTime int64
	fwUtil        float64
	pciUtil       float64
	linkUtil      float64
	switchUtil    float64
	maxBacklog    int64
}

func (s *layerSums) add(r *genima.Result) {
	s.runs++
	for c, t := range r.Avg.T {
		s.cats[c] += float64(t)
	}
	s.acct.Merge(r.Acct)
	s.faults.Merge(r.Faults)
	s.postStalls += r.PostQueueStalls
	s.postStallTime += r.PostQueueStallTime
	s.fwUtil += r.Util.Firmware
	s.pciUtil += r.Util.PCI
	s.linkUtil += r.Util.Link
	s.switchUtil += r.Util.Switch
	s.maxBacklog = max(s.maxBacklog, r.Util.MaxBacklog)
}

// packetSums adds up the packets the NI firmware monitor delivered,
// through the genima.RunTraced hook.
type packetSums struct {
	packets, bytes, firmware uint64
	stage                    [nic.NumStages]int64
}

func (p *packetSums) add(ev genima.TraceEvent) {
	p.packets++
	p.bytes += uint64(ev.Size)
	if ev.Firmware {
		p.firmware++
	}
	for s, t := range ev.StageTime {
		p.stage[s] += t
	}
}

// pass is the outcome of running every run of a workload once.
type pass struct {
	secs float64 // host seconds inside simulation calls; validation excluded
	res  []*genima.Result
}

// runPass runs every run with the given intra-run worker count and
// validates each output against its sequential reference. A non-nil
// trace receives every delivered packet of the SVM runs.
func runPass(runs []run, workers int, trace *packetSums, r *report) pass {
	var p pass
	for _, rn := range runs {
		cfg := rn.cfg
		cfg.IntraRunWorkers = workers
		var (
			res *genima.Result
			ws  *genima.Workspace
			err error
		)
		t0 := time.Now()
		switch {
		case rn.hw:
			res, ws, err = genima.RunHardware(cfg, rn.app)
		case trace != nil:
			res, ws, err = genima.RunTraced(cfg, rn.proto, rn.app, trace.add)
		default:
			res, ws, err = genima.Run(cfg, rn.proto, rn.app)
		}
		p.secs += time.Since(t0).Seconds()
		r.attempted++
		if err == nil {
			err = genima.Validate(rn.app, ws, rn.ref)
		}
		if err != nil {
			r.fail("%s: %v", rn.label, err)
			res = nil
		} else if res.Monitor != nil {
			// The tracer is a closure; drop it so results compare by value.
			res.Monitor.Tracer = nil
		}
		p.res = append(p.res, res)
	}
	return p
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// check counts every run whose result differs from the reference pass:
// the simulator is deterministic, so any difference is a bug.
func (r *report) check(runs []run, got, want pass, what string) {
	for i := range runs {
		if got.res[i] != nil && want.res[i] != nil && !reflect.DeepEqual(got.res[i], want.res[i]) {
			r.fail("%s: %s result differs from the reference pass", runs[i].label, what)
		}
	}
}

// measure runs one workload: set-up, one untimed warm-up pass, timed
// passes for at least seconds, and with trace the traced passes.
func measure(w *workload, seed uint64, seconds float64, trace, small bool) (*report, error) {
	r := &report{}
	var runs []run
	for len(r.setup) < setupBatches {
		runtime.GC() // start every batch from a collected heap
		t0 := time.Now()
		n := 0
		for n == 0 || time.Since(t0).Seconds() < min(setupBatchSecs, seconds) {
			var err error
			if runs, err = w.setup(seed, small); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			n++
		}
		r.setup = append(r.setup, time.Since(t0).Seconds()/float64(n))
	}

	// The warm-up pass is the serial reference every later leg must
	// reproduce.
	ref := runPass(runs, 1, nil, r)
	for _, res := range ref.res {
		if res == nil {
			return r, nil // validation failed; nothing to time against
		}
	}
	r.model = w.model(runs, ref.res)
	if w.workers > 1 {
		r.check(runs, runPass(runs, w.workers, nil, r), ref, "warm-up parallel")
	}

	// A traced run spends about half its time on the traced pairs below,
	// so it takes about as long as an untraced one.
	budget := seconds
	if trace {
		budget /= 2
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var timed float64
	for i := 0; len(r.passes) < minPasses || timed < budget; i++ {
		// A traced run pairs each parallel leg with a serial one for
		// sim.intrarun_speedup. Untraced runs time parallel legs only,
		// which doubles the samples behind pass_s.
		if w.workers > 1 && trace {
			ser, par := pairOf(i,
				func() pass { return runPass(runs, 1, nil, r) },
				func() pass { return runPass(runs, w.workers, nil, r) })
			r.check(runs, ser, ref, "serial")
			r.check(runs, par, ref, "parallel")
			r.passes = append(r.passes, par.secs)
			r.serial = append(r.serial, ser.secs)
			timed += par.secs + ser.secs
			continue
		}
		p := runPass(runs, max(w.workers, 1), nil, r)
		r.check(runs, p, ref, "timed")
		r.passes = append(r.passes, p.secs)
		timed += p.secs
	}
	runtime.ReadMemStats(&m1)
	r.rssMB = peakRSSMB()

	for i, res := range ref.res {
		r.events += res.Events
		if !runs[i].hw {
			r.sums.add(res)
		}
	}
	legs := uint64(len(r.passes) + len(r.serial))
	r.timedEvents = r.events * legs
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	if trace {
		for i := 0; i < tracePairs; i++ {
			r.pkts = packetSums{}
			plain, traced := pairOf(i,
				func() pass { return runPass(runs, w.workers, nil, r) },
				func() pass { return runPass(runs, w.workers, &r.pkts, r) })
			r.check(runs, plain, ref, "untraced")
			r.check(runs, traced, ref, "traced")
			r.traceRatios = append(r.traceRatios, traced.secs/plain.secs)
		}
	}
	return r, nil
}

// pairOf runs a and b once each, a first on even i and b first on odd
// i, so drift on a shared box favours neither side of their ratio.
func pairOf(i int, a, b func() pass) (pass, pass) {
	if i%2 == 1 {
		pb := b()
		return a(), pb
	}
	pa := a()
	return pa, b()
}

// runDrivers times every per-layer driver of the registry; a traced run
// calls it after measure.
func (r *report) runDrivers() {
	r.drivers = map[string]testing.BenchmarkResult{}
	for _, m := range registry {
		if m.driver == nil {
			continue
		}
		var err error
		res := testing.Benchmark(func(b *testing.B) {
			if e := m.driver(b); e != nil && err == nil {
				err = e
			}
		})
		r.attempted++
		if err == nil && res.N == 0 {
			err = fmt.Errorf("no iterations ran")
		}
		if err != nil {
			r.fail("driver %s: %v", m.name, err)
			continue
		}
		r.drivers[m.name] = res
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median and quartiles follow Python's statistics.quantiles(n=4)
// (the default exclusive method), so reported spreads match it.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// ratio is a / b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
