// Quickstart: write a tiny shared-memory program against the genima
// API, run it on the simulated cluster under the GeNIMA protocol, and
// print the speedup and execution-time breakdown.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
)

import (
	genima "genima"
	"genima/internal/app"
	"genima/internal/memory"
	"genima/internal/stats"
)

// dotProduct is a minimal workload: each processor computes a partial
// dot product of two shared vectors and lock-accumulates it.
type dotProduct struct {
	n int
}

func (d *dotProduct) Name() string { return "dot" }

func (d *dotProduct) Setup(ws *app.Workspace) {
	x := ws.Alloc("x", 8*d.n, memory.Blocked)
	y := ws.Alloc("y", 8*d.n, memory.Blocked)
	ws.Alloc("result", 8, memory.RoundRobin)
	for i := 0; i < d.n; i++ {
		ws.SetF64(x, i, float64(i%100))
		ws.SetF64(y, i, float64((i*7)%100))
	}
}

func (d *dotProduct) Run(ctx *app.Ctx) {
	ws := ctx.Workspace()
	x, y := ws.Region("x"), ws.Region("y")
	lo, hi := ctx.ID()*d.n/ctx.NProc(), (ctx.ID()+1)*d.n/ctx.NProc()

	// Bulk-read both blocks (page faults happen here), then compute
	// on private buffers — the idiomatic SVM pattern.
	bx := make([]float64, hi-lo)
	by := make([]float64, hi-lo)
	ctx.CopyOutF64(x, lo, bx)
	ctx.CopyOutF64(y, lo, by)
	sum := 0.0
	for i := range bx {
		sum += bx[i] * by[i]
	}
	ctx.Compute(float64(hi-lo) * 2)

	ctx.Lock(0)
	ctx.AddF64(ws.Region("result"), 0, sum)
	ctx.Unlock(0)
	ctx.Barrier()
}

func main() {
	cfg := genima.DefaultConfig() // 4 nodes x 4-way SMPs, Myrinet-like NI
	a := &dotProduct{n: 1 << 18}

	seq, seqWS, err := genima.RunSequential(cfg, a)
	if err != nil {
		log.Fatal(err)
	}
	par, parWS, err := genima.Run(cfg, genima.GeNIMA, a)
	if err != nil {
		log.Fatal(err)
	}
	if err := genima.Validate(a, parWS, seqWS); err != nil {
		log.Fatal("wrong answer: ", err)
	}

	fmt.Printf("dot product of %d elements on %d simulated processors\n", a.n, par.Procs)
	fmt.Printf("result: %.0f\n", parWS.F64(parWS.Region("result"), 0))
	fmt.Printf("sequential %.2f ms, parallel %.2f ms -> speedup %.2f\n",
		stats.Seconds(seq.Elapsed)*1000, stats.Seconds(par.Elapsed)*1000, genima.Speedup(seq, par))
	fr := par.Avg.Fractions()
	for c := 0; c < stats.NumCategories; c++ {
		fmt.Printf("  %-8s %5.1f%%\n", stats.Category(c), 100*fr[c])
	}
	fmt.Printf("host interrupts taken under GeNIMA: %d\n", par.Acct.Interrupts)
}
