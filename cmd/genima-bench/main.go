// Command genima-bench regenerates every table and figure of the paper's
// evaluation (Figures 1–4, Tables 1–5) from the simulated system.
//
// Usage:
//
//	genima-bench                  # everything, bench-scale problems
//	genima-bench -exp fig2,table3 # a subset
//	genima-bench -scale test      # tiny problems (seconds)
//	genima-bench -nodes 8         # cluster size for the 16-proc suite
//	genima-bench -j 1             # serial runs (default: GOMAXPROCS)
//	genima-bench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Every run of every experiment is validated against its sequential
// reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	genima "genima"
	"genima/internal/apps"
)

var (
	expFlag    = flag.String("exp", "all", "comma-separated experiments: fig1,fig2,fig3,fig4,table1,table2,table3,table4,table5 or all; plus scaling, faultsweep, scalesweep, serve and soak (not in all)")
	scaleFlag  = flag.String("scale", "bench", "problem scale: test or bench")
	nodesFlag  = flag.Int("nodes", 4, "SMP nodes for the main suite (the paper uses 4)")
	procsFlag  = flag.Int("procs", 4, "processors per node (the paper uses 4)")
	quietFlag  = flag.Bool("q", false, "suppress progress output")
	jFlag      = flag.Int("j", 0, "concurrent simulation workers (0 = GOMAXPROCS, 1 = serial)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	faultsFlag = flag.Float64("faults", 0, "link fault injection for the main suite: packet drop rate (0,1) per FaultMix; 0 disables")
	seedFlag   = flag.Uint64("fault-seed", 1, "deterministic seed for -faults and the faultsweep experiment")

	soakEvents    = flag.Uint64("soak-events", 100_000_000, "soak: stop once cumulative simulated events reach this total (0 = bound by -soak-iters alone)")
	soakIters     = flag.Uint64("soak-iters", 0, "soak: iteration cap (0 = bound by -soak-events alone)")
	soakHaltAfter = flag.Uint64("soak-stop-after", 0, "soak: halt after this many iterations this invocation, writing a checkpoint (CI restore hook; 0 = no cap)")
	soakCkpt      = flag.String("soak-checkpoint", "", "soak: rolling iteration-cursor checkpoint file")
	soakStats     = flag.String("soak-stats", "", "soak: append one JSON stats line per iteration to this file")
	soakRestore   = flag.Bool("soak-restore", false, "soak: resume from -soak-checkpoint (fresh campaign if the file does not exist yet)")
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genima-bench:", err)
	os.Exit(1)
}

// usage reports a bad flag value and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "genima-bench:", err)
	os.Exit(2)
}

// validExperiments lists every -exp name, in help order. "all" selects
// the paper figures/tables; the post-paper experiments (scaling,
// faultsweep, scalesweep, serve, soak) are opt-in by name.
var validExperiments = []string{
	"all", "fig1", "fig2", "fig3", "fig4",
	"table1", "table2", "table3", "table4", "table5",
	"scaling", "faultsweep", "scalesweep", "serve", "soak",
}

// parseExperiments splits a -exp value and rejects unknown names, so a
// typo fails loudly instead of silently running nothing.
func parseExperiments(s string) (map[string]bool, error) {
	valid := map[string]bool{}
	for _, v := range validExperiments {
		valid[v] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(s, ",") {
		name := strings.TrimSpace(e)
		if name == "" {
			continue
		}
		if !valid[name] {
			return nil, fmt.Errorf("unknown experiment %q; valid experiments: %s",
				name, strings.Join(validExperiments, ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("no experiments selected; valid experiments: %s",
			strings.Join(validExperiments, ", "))
	}
	return want, nil
}

// runSoak drives an unattended long-run campaign (genima.Soak):
// iterations cycle the app suite and the protocol ladder under per-
// iteration fault seeds, chaining trace hashes, streaming JSONL stats,
// and keeping a rolling O(1) checkpoint cursor. SIGINT/SIGTERM halt at
// the next iteration boundary with a checkpoint and exit 128+sig.
func runSoak(cfg genima.Config, scaleName string) {
	// Soak draws each iteration's fault plan from -faults itself.
	cfg.Faults = genima.FaultPlan{}
	opts := genima.SoakOptions{
		Scale:          scaleName,
		TargetEvents:   *soakEvents,
		Iters:          *soakIters,
		CheckpointPath: *soakCkpt,
		FaultRate:      *faultsFlag,
		FaultSeed:      *seedFlag,
	}
	if *soakRestore {
		st, err := genima.LoadCheckpoint(*soakCkpt)
		switch {
		case err == nil:
			opts.Restore = st
		case os.IsNotExist(err):
			// Fresh campaign; the checkpoint appears after iteration 1.
		default:
			fatal(err)
		}
	}
	var sig atomic.Int32
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		signal.Stop(ch)
		n := syscall.SIGINT
		if ss, ok := s.(syscall.Signal); ok {
			n = ss
		}
		sig.Store(int32(n))
	}()
	// Soak polls once before each iteration, so poll N+1 comes after
	// the Nth iteration of this invocation.
	var polls uint64
	opts.ShouldStop = func() bool {
		polls++
		return sig.Load() != 0 || (*soakHaltAfter > 0 && polls > *soakHaltAfter)
	}
	var stats *json.Encoder
	if *soakStats != "" {
		// Append mode: a restored campaign continues the same log.
		f, err := os.OpenFile(*soakStats, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		stats = json.NewEncoder(f)
	}
	opts.Emit = func(r genima.SoakRecord) {
		if stats != nil {
			if err := stats.Encode(r); err != nil {
				fatal(fmt.Errorf("soak: writing stats: %w", err))
			}
		}
		if !*quietFlag {
			fmt.Fprintf(os.Stderr, "soak: iter=%d %s/%s events=%d cum=%d chain=%s wall=%dms heap=%.1fMB\n",
				r.Iter, r.App, r.Proto, r.Events, r.CumEvents, r.Chain,
				r.WallMS, float64(r.HeapBytes)/(1<<20))
		}
	}
	res, err := genima.Soak(cfg, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("soak: iters=%d events=%d chain=%s interrupted=%v\n",
		res.Iters, res.Events, res.Chain, res.Interrupted)
	if n := sig.Load(); res.Interrupted && n != 0 {
		os.Exit(128 + int(n))
	}
}

func main() {
	// Every flag value is checked here, before any run; a bad one exits
	// 2 (usage).
	flag.Parse()
	scale, err := apps.ParseScale(*scaleFlag)
	if err != nil {
		usage(err)
	}
	want, err := parseExperiments(*expFlag)
	if err != nil {
		usage(err)
	}
	if want["soak"] && len(want) > 1 {
		usage(fmt.Errorf("-exp soak runs alone; name no other experiment with it"))
	}
	if !want["soak"] {
		flag.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "soak-") {
				usage(fmt.Errorf("-%s applies only to -exp soak", f.Name))
			}
		})
	}
	if want["soak"] && *soakRestore && *soakCkpt == "" {
		usage(fmt.Errorf("-soak-restore needs -soak-checkpoint"))
	}
	cfg := genima.DefaultConfig()
	cfg.Nodes = *nodesFlag
	cfg.ProcsPerNode = *procsFlag
	if *faultsFlag != 0 {
		cfg.Faults = genima.FaultMix(*faultsFlag, *seedFlag)
	}
	if err := cfg.Validate(); err != nil {
		usage(err)
	}
	if *memProfile != "" {
		// Record every allocation: the suite's remaining alloc count is
		// small enough that sampled profiles are all noise.
		runtime.MemProfileRate = 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}()

	if want["soak"] {
		runSoak(cfg, *scaleFlag)
		return
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	opt := genima.SuiteOptions{
		Scale:    scale,
		Hardware: true,
		Workers:  *jFlag,
		Progress: func(msg string) {
			if !*quietFlag {
				fmt.Fprintf(os.Stderr, "run: %s\n", msg)
			}
		},
	}

	needSuite := sel("fig1") || sel("fig2") || sel("fig3") || sel("fig4") ||
		sel("table1") || sel("table2") || sel("table3") || sel("table4")

	t0 := time.Now()
	if needSuite {
		s, err := genima.RunSuite(cfg, opt)
		if err != nil {
			fatal(err)
		}
		for _, x := range []struct {
			name string
			out  fmt.Stringer
		}{
			{"fig1", s.Figure1()}, {"table1", s.Table1()}, {"fig2", s.Figure2()}, {"fig3", s.Figure3()},
			{"fig4", s.Figure4()}, {"table2", s.Table2()}, {"table3", s.Table3()}, {"table4", s.Table4()},
		} {
			if sel(x.name) {
				fmt.Println(x.out)
			}
		}
	}
	// Table 5 is part of "all"; the post-paper experiments run by name.
	for _, x := range []struct {
		name string
		run  func() (fmt.Stringer, error)
	}{
		{"table5", func() (fmt.Stringer, error) { return genima.Table5(opt) }},
		{"scaling", func() (fmt.Stringer, error) { return genima.Scaling(opt) }},
		{"faultsweep", func() (fmt.Stringer, error) { return genima.FaultSweep(opt, *seedFlag) }},
		{"scalesweep", func() (fmt.Stringer, error) { return genima.ScaleSweep(opt, *seedFlag) }},
		{"serve", func() (fmt.Stringer, error) { return genima.Serve(opt, *seedFlag) }},
	} {
		if !want[x.name] && !(all && x.name == "table5") {
			continue
		}
		d, err := x.run()
		if err != nil {
			fatal(err)
		}
		fmt.Println(d)
	}
	if !*quietFlag {
		fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(t0))
	}
}
