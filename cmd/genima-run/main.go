// Command genima-run executes one application under one protocol and
// prints its speedup, execution-time breakdown, protocol accounting,
// and the NI firmware monitor's contention ratios.
//
// Usage:
//
//	genima-run -app fft -proto GeNIMA
//	genima-run -app barnes-sp -proto DW+RF+DD -nodes 8 -scale bench
//	genima-run -app radix -proto hw            # hardware-DSM model
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

import (
	genima "genima"
	"genima/internal/apps"
	"genima/internal/nic"
	"genima/internal/stats"
)

var (
	appFlag    = flag.String("app", "fft", "application: "+strings.Join(apps.Names(apps.Bench), ", "))
	protoFlag  = flag.String("proto", "GeNIMA", "protocol: Base, DW, DW+RF, DW+RF+DD, GeNIMA, or hw")
	scaleFlag  = flag.String("scale", "bench", "problem scale: test or bench")
	nodesFlag  = flag.Int("nodes", 4, "SMP nodes")
	procsFlag  = flag.Int("procs", 4, "processors per node")
	sgFlag     = flag.Bool("sg", false, "enable the NI scatter-gather extension for direct diffs")
	bcastFlag  = flag.Bool("broadcast", false, "enable NI broadcast for write notices")
	topoFlag   = flag.String("topo", "xbar8", "network fabric: xbar8, clos2, or fattree")
	radixFlag  = flag.Int("radix", 8, "switch radix for clos2/fattree (even, >= 4)")
	collFlag   = flag.Bool("collectives", false, "run barriers and notice broadcasts on the NI-firmware collective tree (DW and later)")
	arityFlag  = flag.Int("arity", 4, "collective tree fan-out (used with -collectives)")
	traceFlag  = flag.String("trace", "", "write a per-packet trace to this file")
	faultsFlag = flag.Float64("faults", 0, "link fault injection: packet drop rate (0,1), with dups/delays/corruption mixed in per FaultMix; 0 disables")
	seedFlag   = flag.Uint64("fault-seed", 1, "deterministic seed for the fault plan (used with -faults)")
	jrunFlag   = flag.Int("jrun", 1, "intra-run simulation workers executing shard logical processes; any value yields a byte-identical result")

	ckptFlag      = flag.String("checkpoint", "", "write a rolling checkpoint to this file (SIGINT/SIGTERM also flush one and exit 128+sig)")
	ckptEveryFlag = flag.Uint64("checkpoint-every", genima.DefaultCheckpointEvery, "trace events between checkpoint/stats boundaries")
	restoreFlag   = flag.String("restore", "", "resume from this checkpoint file (deterministic replay to the cut, then continue)")
	hashFlag      = flag.Bool("trace-hash", false, "print the canonical SHA-256 trace hash with event counts and wall-clock rate")
	statsFlag     = flag.String("stats", "", "append one JSON line of progress stats per boundary to this file")
	jsonFlag      = flag.Bool("json", false, "emit the full result as one JSON document on stdout instead of the human-readable report")
	stopAfter     = flag.Uint64("stop-after", 0, "halt gracefully at the Nth checkpoint boundary, as if signaled (deterministic testing hook; exits 130)")
)

func main() {
	// Every flag value is checked here, before the sequential reference
	// run; a bad one exits 2 (usage).
	flag.Parse()
	scale, err := apps.ParseScale(*scaleFlag)
	if err != nil {
		usage(err)
	}
	entry, ok := apps.ByName(scale, *appFlag)
	if !ok {
		usage(fmt.Errorf("unknown app %q; valid apps: %s", *appFlag, strings.Join(apps.Names(scale), ", ")))
	}
	// A flag that was set but would change nothing is a usage error too.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	controlled := *ckptFlag != "" || *restoreFlag != "" || *hashFlag || *statsFlag != "" || *stopAfter > 0
	var proto genima.Protocol
	if *protoFlag != "hw" {
		if proto, err = parseProto(*protoFlag); err != nil {
			usage(err)
		}
	} else {
		// The Origin model has no NI or fabric: nothing for these to act on.
		for _, name := range []string{"checkpoint", "checkpoint-every", "restore", "trace-hash", "stats", "stop-after",
			"trace", "sg", "broadcast", "collectives", "arity", "faults", "fault-seed", "topo", "radix", "jrun"} {
			if set[name] {
				usage(fmt.Errorf("-%s applies to SVM protocols, not -proto hw", name))
			}
		}
	}
	switch {
	case set["arity"] && !*collFlag:
		usage(fmt.Errorf("-arity sets the collective tree's fan-out; it needs -collectives"))
	case set["fault-seed"] && !(*faultsFlag > 0):
		usage(fmt.Errorf("-fault-seed seeds the fault plan; it needs -faults"))
	case set["checkpoint-every"] && !controlled:
		usage(fmt.Errorf("-checkpoint-every needs -checkpoint, -restore, -trace-hash, -stats or -stop-after"))
	}
	cfg := genima.DefaultConfig()
	cfg.Nodes = *nodesFlag
	cfg.ProcsPerNode = *procsFlag
	cfg.ScatterGather = *sgFlag
	cfg.NIBroadcast = *bcastFlag
	cfg.IntraRunWorkers = *jrunFlag
	topo, terr := genima.ParseTopo(*topoFlag)
	if terr != nil {
		usage(terr)
	}
	cfg.Topo = topo
	cfg.SwitchRadix = *radixFlag
	cfg.Collectives = *collFlag
	cfg.CollectiveArity = *arityFlag
	if *faultsFlag > 0 {
		cfg.Faults = genima.FaultMix(*faultsFlag, *seedFlag)
	}
	if err := cfg.Validate(); err != nil {
		usage(err)
	}

	// SIGINT/SIGTERM request a graceful halt: the flag is polled at the
	// next deterministic boundary of the controlled run, which writes a
	// final checkpoint (when -checkpoint is set), flushes partial stats,
	// and exits 128+sig. A second signal kills outright. Installed
	// before the sequential reference run so an early signal is
	// recorded, not fatal.
	var sig atomic.Int32
	if controlled {
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
	}

	seq, seqWS, err := genima.RunSequential(cfg, entry.App)
	if err != nil {
		fatal(err)
	}

	var res *genima.Result
	var ws *genima.Workspace
	var traceHash string
	var traceEvents uint64
	interrupted := 0 // signal number once a graceful halt is requested
	t0 := time.Now()
	if *protoFlag == "hw" {
		res, ws, err = genima.RunHardware(cfg, entry.App)
	} else {
		var emit func(genima.TraceEvent)
		if *traceFlag != "" {
			f, ferr := os.Create(*traceFlag)
			if ferr != nil {
				fatal(ferr)
			}
			defer f.Close()
			w := bufio.NewWriter(f)
			defer w.Flush()
			emit = func(ev genima.TraceEvent) {
				fmt.Fprintf(w, "t=%dns src=%d dst=%d size=%d kind=%s fw=%v src_ns=%d lanai_ns=%d net_ns=%d dest_ns=%d\n",
					ev.Time, ev.Src, ev.Dst, ev.Size, ev.Kind, ev.Firmware,
					ev.StageTime[0], ev.StageTime[1], ev.StageTime[2], ev.StageTime[3])
			}
		}
		if !controlled {
			res, ws, err = genima.RunTraced(cfg, proto, entry.App, emit)
		} else {
			opts := genima.CheckpointOptions{
				Path:  *ckptFlag,
				Every: *ckptEveryFlag,
				Scale: *scaleFlag,
			}
			if emit != nil {
				// On a restore, RunCheckpointed suppresses the replayed
				// prefix, so the trace file holds post-cut packets only.
				opts.OnTrace = func(_ uint64, ev genima.TraceEvent) { emit(ev) }
			}
			if *restoreFlag != "" {
				st, lerr := genima.LoadCheckpoint(*restoreFlag)
				if lerr != nil {
					fatal(lerr)
				}
				opts.Restore = st
			}
			var boundaries uint64
			opts.ShouldStop = func() bool {
				if sig.Load() != 0 {
					return true
				}
				if *stopAfter > 0 {
					boundaries++
					return boundaries >= *stopAfter
				}
				return false
			}
			if *statsFlag != "" {
				sf, serr := os.OpenFile(*statsFlag, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if serr != nil {
					fatal(serr)
				}
				defer sf.Close()
				enc := json.NewEncoder(sf)
				opts.OnBoundary = func(b *genima.Boundary) {
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					enc.Encode(map[string]any{
						"trace_events": b.TraceEvents, "sim_ns": int64(b.SimTime),
						"events": b.Events, "wall_ms": time.Since(t0).Milliseconds(),
						"heap_bytes": ms.HeapAlloc,
					})
				}
			}
			cr, cerr := genima.RunCheckpointed(cfg, proto, entry.App, opts)
			err = cerr
			if cerr == nil {
				res, ws = cr.Res, cr.WS
				traceHash, traceEvents = cr.TraceHash, cr.TraceEvents
				if cr.Interrupted {
					where := "no checkpoint file (-checkpoint not set)"
					if *ckptFlag != "" {
						where = "checkpoint saved to " + *ckptFlag
					}
					interrupted = int(sig.Load())
					cause := fmt.Sprintf("signal %d", interrupted)
					if interrupted == 0 {
						// -stop-after halts mimic SIGINT, exit code included.
						interrupted = int(syscall.SIGINT)
						cause = fmt.Sprintf("-stop-after %d", *stopAfter)
					}
					fmt.Fprintf(os.Stderr, "genima-run: %s: halted at trace event %d; %s\n",
						cause, cr.TraceEvents, where)
				}
			}
		}
	}
	if err != nil {
		fatal(err)
	}
	if interrupted != 0 {
		os.Exit(128 + interrupted)
	}
	wall := time.Since(t0)
	if *hashFlag && !*jsonFlag {
		fmt.Printf("trace-hash=%s trace-events=%d events=%d wall=%v eps=%.0f\n",
			traceHash, traceEvents, res.Events, wall.Round(time.Millisecond),
			float64(res.Events)/wall.Seconds())
	}
	if err := genima.Validate(entry.App, ws, seqWS); err != nil {
		fatal(fmt.Errorf("validation FAILED: %w", err))
	}
	if !*jsonFlag {
		fmt.Println("validation: output matches the sequential reference")
	}

	if *jsonFlag {
		doc := runJSON{
			App:          *appFlag,
			Protocol:     *protoFlag,
			Scale:        *scaleFlag,
			Nodes:        cfg.Nodes,
			ProcsPerNode: cfg.ProcsPerNode,
			Validated:    true, // every run is validated; a failure exits above
			SeqElapsedNs: int64(seq.Elapsed),
			Speedup:      genima.Speedup(seq, res),
			Result:       genima.NewResultJSON(res),
		}
		if *hashFlag {
			doc.TraceHash = traceHash
			doc.TraceEvents = traceEvents
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("%s (%s) on %s, %d nodes x %d procs\n",
		entry.PaperName, entry.OurSize, res.Label, cfg.Nodes, cfg.ProcsPerNode)
	fmt.Printf("uniprocessor time: %.3f s (simulated)\n", stats.Seconds(seq.Elapsed))
	fmt.Printf("parallel time:     %.3f s  -> speedup %.2f on %d processors\n",
		stats.Seconds(res.Elapsed), genima.Speedup(seq, res), res.Procs)

	fmt.Println("\nAverage execution-time breakdown:")
	fr := res.Avg.Fractions()
	for c := 0; c < stats.NumCategories; c++ {
		fmt.Printf("  %-8s %6.1f%%  (%.3f s)\n", stats.Category(c), 100*fr[c], stats.Seconds(res.Avg.T[c]))
	}

	a := res.Acct
	if a.PageFetches > 0 || a.LockOps > 0 {
		fmt.Println("\nProtocol accounting:")
		fmt.Printf("  page fetches %d (retries %d), remote lock ops %d, interrupts %d\n",
			a.PageFetches, a.FetchRetries, a.LockOps, a.Interrupts)
		fmt.Printf("  diff bytes %d, mprotect calls %d (%.3f s)\n",
			a.DiffBytes, a.MprotectOps, stats.Seconds(a.Mprotect))
	}
	if res.Latency.Count() > 0 {
		fmt.Println("\nRequest latency (open-loop serving, virtual time):")
		fmt.Printf("  %s\n  throughput %.2f kreq/s\n",
			res.Latency.Summary(), res.Latency.Throughput(res.Elapsed)/1e3)
	}
	if res.Monitor != nil {
		u := res.Util
		fmt.Printf("\nSubstrate utilization (busiest device): LANai %.0f%%, PCI %.0f%%, link %.0f%%, switch %.0f%%; worst NI backlog %.0f us\n",
			100*u.Firmware, 100*u.PCI, 100*u.Link, 100*u.Switch, float64(u.MaxBacklog)/1000)
		if res.PostQueueStalls > 0 {
			fmt.Printf("post-queue stalls: %d (%.3f s lost)\n",
				res.PostQueueStalls, stats.Seconds(res.PostQueueStallTime))
		}
		if f := &res.Faults; f.Any() {
			fmt.Println("\nFault injection and NI reliable delivery:")
			fmt.Printf("  injected: %d drops, %d dups, %d delays, %d corruptions, %d down-window drops\n",
				f.DropsInjected, f.DupsInjected, f.DelaysInjected, f.CorruptsInjected, f.DownDrops)
			fmt.Printf("  masked:   %d retransmissions, %d dups suppressed, %d out-of-order dropped, %d corrupt dropped\n",
				f.RetxSent, f.DupsSuppressed, f.OOODropped, f.CorruptDropped)
			fmt.Printf("  acks:     %d standalone, %d piggybacked\n", f.AcksSent, f.PiggybackAcks)
			fmt.Printf("  recovery: %d packets needed retransmission, mean %.0f us, max %.0f us\n",
				f.Recovered, float64(f.MeanRecovery())/1000, float64(f.MaxRecovery)/1000)
		}
		fmt.Println("\nNI firmware monitor (actual/uncontended per stage):")
		for _, class := range []nic.Class{nic.Small, nic.Large} {
			r := res.Monitor.Ratios(class)
			fmt.Printf("  %-5s msgs (%7d pkts):", class, res.Monitor.Packets(class))
			for st := 0; st < int(nic.NumStages); st++ {
				fmt.Printf(" %s=%.1f", nic.Stage(st), r[st])
			}
			fmt.Println()
		}
		fmt.Println("\nTraffic by message kind:")
		for _, k := range res.Monitor.TopKinds(8) {
			fmt.Printf("  %-14s %8d pkts %10d bytes\n", k.Kind, k.Packets, k.Bytes)
		}
	}
}

// runJSON is the `-json` document: run metadata wrapping the full
// ResultJSON view (see genima.ResultJSON for field semantics).
type runJSON struct {
	App          string             `json:"app"`
	Protocol     string             `json:"protocol"`
	Scale        string             `json:"scale"`
	Nodes        int                `json:"nodes"`
	ProcsPerNode int                `json:"procs_per_node"`
	Validated    bool               `json:"validated"`
	SeqElapsedNs int64              `json:"seq_elapsed_ns"`
	Speedup      float64            `json:"speedup"`
	TraceHash    string             `json:"trace_hash,omitempty"`
	TraceEvents  uint64             `json:"trace_events,omitempty"`
	Result       *genima.ResultJSON `json:"result"`
}

func parseProto(s string) (genima.Protocol, error) {
	var names []string
	for _, k := range genima.Protocols() {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("unknown protocol %q; valid protocols: %s, hw", s, strings.Join(names, ", "))
}

// usage reports a bad flag value and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "genima-run:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genima-run:", err)
	os.Exit(1)
}
