// Stencil: a user-written heat-diffusion kernel compared across the
// whole protocol ladder — the experiment you would run to decide which
// NI mechanisms matter for a barrier-synchronized, near-neighbor code.
//
//	go run ./examples/stencil
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

// heat is an iterative 1-D three-point diffusion over a shared vector,
// double-buffered, with a barrier per sweep.
type heat struct {
	n, iters int
}

func (h *heat) Name() string { return "heat" }

func (h *heat) Setup(ws *app.Workspace) {
	a := ws.Alloc("a", 8*h.n, memory.Blocked)
	ws.Alloc("b", 8*h.n, memory.Blocked)
	for i := 0; i < h.n; i++ {
		v := 0.0
		if i == 0 || i == h.n-1 {
			v = 1000 // hot ends
		}
		ws.SetF64(a, i, v)
	}
}

func (h *heat) Run(ctx *app.Ctx) {
	ws := ctx.Workspace()
	src, dst := ws.Region("a"), ws.Region("b")
	lo, hi := ctx.ID()*h.n/ctx.NProc(), (ctx.ID()+1)*h.n/ctx.NProc()
	if lo == 0 {
		lo = 1
	}
	if hi == h.n {
		hi = h.n - 1
	}
	buf := make([]float64, hi-lo+2)
	out := make([]float64, hi-lo)
	iters := h.iters
	if iters%2 != 0 {
		iters++ // result ends in "a"
	}
	for it := 0; it < iters; it++ {
		ctx.CopyOutF64(src, lo-1, buf)
		for i := range out {
			out[i] = 0.25*buf[i] + 0.5*buf[i+1] + 0.25*buf[i+2]
		}
		ctx.Compute(float64(len(out)) * 4)
		ctx.CopyInF64(dst, lo, out)
		ctx.Barrier()
		src, dst = dst, src
	}
}

func main() {
	cfg := genima.DefaultConfig()
	a := &heat{n: 1 << 17, iters: 10}

	seq, seqWS, err := genima.RunSequential(cfg, a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1-D heat diffusion, %d points, %d sweeps, %d processors\n\n", a.n, a.iters, cfg.NumProcs())
	fmt.Printf("%-10s %8s %10s %10s %10s %12s\n", "protocol", "speedup", "data%", "barrier%", "interrupts", "packets")
	for _, k := range genima.Protocols() {
		res, ws, err := genima.Run(cfg, k, a)
		if err != nil {
			log.Fatal(err)
		}
		if err := genima.Validate(a, ws, seqWS); err != nil {
			log.Fatalf("%v: wrong answer: %v", k, err)
		}
		fr := res.Avg.Fractions()
		fmt.Printf("%-10s %8.2f %9.1f%% %9.1f%% %10d %12d\n",
			k, genima.Speedup(seq, res),
			100*fr[stats.Data], 100*fr[stats.Barrier],
			res.Acct.Interrupts, res.Monitor.TotalPackets())
	}
}
