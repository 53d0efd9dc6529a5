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
	interruptSensitivity()
	fmt.Println()
	postQueueStudy()
	fmt.Println()
	extensionStudy()
}

// interruptSensitivity sweeps the interrupt dispatch cost: the gap
// between Base and GeNIMA should shrink as interrupts get cheap.
func interruptSensitivity() {
	a := ocean.New(128, 6)
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

// speedup runs a under protocol k and its sequential reference on cfg,
// exits non-zero if the protocol run's shared memory does not match
// the reference, and returns the speedup with the protocol run.
func speedup(cfg genima.Config, k genima.Protocol, a genima.App) (float64, *genima.Result) {
	seq, seqWS, err := genima.RunSequential(cfg, a)
	if err != nil {
		log.Fatal(err)
	}
	res, ws, err := genima.Run(cfg, k, a)
	if err != nil {
		log.Fatal(err)
	}
	if err := genima.Validate(a, ws, seqWS); err != nil {
		log.Fatalf("%v: %v", k, err)
	}
	return genima.Speedup(seq, res), res
}

// extensionStudy evaluates the future-work NI extensions the paper
// discusses: scatter-gather direct diffs (§3.3) and NI broadcast for
// write notices (§5).
func extensionStudy() {
	fmt.Println("Future-work NI extensions (GeNIMA):")
	fmt.Printf("%-34s %10s\n", "configuration", "speedup")
	bs := barnes.NewSpatial(1024, 4, 2)
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
	wn := ocean.New(128, 6)
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
func postQueueStudy() {
	a := barnes.NewSpatial(1024, 4, 2)
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
