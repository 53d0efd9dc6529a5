// Tuning: the sensitivity studies behind the paper's §3.3 discussion —
// how the interrupt cost drives the Base protocol's losses, and how NI
// post-queue depth and send pipelining recover Barnes-spatial under
// direct diffs (the paper's Windows NT experiment that lifted its
// speedup to 12.21).
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"
)

import (
	genima "genima"
	"genima/internal/apps/barnes"
	"genima/internal/apps/ocean"
	"genima/internal/sim"
)

func main() {
	oc := reference(ocean.New(128, 6))
	bs := reference(barnes.NewSpatial(1024, 4, 2))
	interruptSensitivity(oc)
	fmt.Println()
	postQueueStudy(bs)
	fmt.Println()
	extensionStudy(bs, oc)
}

// ref is an app with its sequential reference run. None of the
// settings this example varies (interrupt cost, post-queue depth, send
// pipelining, scatter-gather, NI broadcast) enters a sequential run,
// so each app's reference runs once, on the default configuration.
type ref struct {
	app   genima.App
	seq   *genima.Result
	seqWS *genima.Workspace
}

func reference(a genima.App) ref {
	seq, seqWS, err := genima.RunSequential(genima.DefaultConfig(), a)
	if err != nil {
		log.Fatal(err)
	}
	return ref{a, seq, seqWS}
}

// interruptSensitivity sweeps the interrupt dispatch cost: the gap
// between Base and GeNIMA should shrink as interrupts get cheap.
func interruptSensitivity(a ref) {
	fmt.Println("Interrupt-cost sensitivity (Ocean):")
	fmt.Printf("%-14s %10s %10s %8s\n", "interrupt(us)", "Base", "GeNIMA", "gap")
	for _, us := range []float64{10, 30, 60, 120} {
		cfg := genima.DefaultConfig()
		cfg.Costs.Interrupt = sim.Micro(us)
		sb, _ := speedup(cfg, genima.Base, a)
		sg, _ := speedup(cfg, genima.GeNIMA, a)
		fmt.Printf("%-14.0f %10.2f %10.2f %7.1f%%\n", us, sb, sg, 100*(sg-sb)/sb)
	}
}

// speedup runs a's app under protocol k on cfg, exits non-zero if the
// protocol run's shared memory does not match the reference, and
// returns the speedup with the protocol run.
func speedup(cfg genima.Config, k genima.Protocol, a ref) (float64, *genima.Result) {
	res, ws, err := genima.Run(cfg, k, a.app)
	if err != nil {
		log.Fatal(err)
	}
	if err := genima.Validate(a.app, ws, a.seqWS); err != nil {
		log.Fatalf("%v: %v", k, err)
	}
	return genima.Speedup(a.seq, res), res
}

// extensionStudy evaluates the future-work NI extensions the paper
// discusses: scatter-gather direct diffs (§3.3) and NI broadcast for
// write notices (§5).
func extensionStudy(bs, wn ref) {
	fmt.Println("Future-work NI extensions (GeNIMA):")
	fmt.Printf("%-34s %10s\n", "configuration", "speedup")
	for _, c := range []struct {
		name string
		mut  func(*genima.Config)
	}{
		{"barnes-sp, per-run diffs", func(*genima.Config) {}},
		{"barnes-sp, NI scatter-gather", func(c *genima.Config) { c.ScatterGather = true }},
	} {
		cfg := genima.DefaultConfig()
		c.mut(&cfg)
		sp, _ := speedup(cfg, genima.GeNIMA, bs)
		fmt.Printf("%-34s %10.2f\n", c.name, sp)
	}
	for _, c := range []struct {
		name string
		mut  func(*genima.Config)
	}{
		{"ocean, unicast notices", func(*genima.Config) {}},
		{"ocean, NI broadcast notices", func(c *genima.Config) { c.NIBroadcast = true }},
	} {
		cfg := genima.DefaultConfig()
		c.mut(&cfg)
		sp, _ := speedup(cfg, genima.GeNIMA, wn)
		fmt.Printf("%-34s %10.2f\n", c.name, sp)
	}
}

// postQueueStudy reproduces the Barnes-spatial direct-diff recovery:
// deeper post queues and better NI send pipelining absorb the message
// explosion.
func postQueueStudy(a ref) {
	fmt.Println("Barnes-spatial under direct diffs (DW+RF+DD):")
	fmt.Printf("%-10s %-12s %10s %14s\n", "queue", "pipelining", "speedup", "send stalls")
	for _, c := range []struct{ depth, pipe int }{
		{16, 1}, {64, 1}, {256, 1}, {64, 4}, {256, 4},
	} {
		cfg := genima.DefaultConfig()
		cfg.PostQueueDepth = c.depth
		cfg.SendPipelining = c.pipe
		sp, res := speedup(cfg, genima.DWRFDD, a)
		fmt.Printf("%-10d %-12d %10.2f %14d\n", c.depth, c.pipe, sp, res.PostQueueStalls)
	}
}
