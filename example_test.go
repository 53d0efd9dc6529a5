package genima_test

import (
	"fmt"

	genima "genima"
	"genima/internal/app"
	"genima/internal/memory"
)

// counter is a minimal App: every processor increments a shared counter
// under a lock.
type counter struct{ perProc int }

func (c *counter) Name() string { return "counter" }

func (c *counter) Setup(ws *app.Workspace) {
	ws.Alloc("count", 8, memory.RoundRobin)
}

func (c *counter) Run(ctx *app.Ctx) {
	r := ctx.Workspace().Region("count")
	for i := 0; i < c.perProc; i++ {
		ctx.Lock(0)
		ctx.SetI64(r, 0, ctx.I64(r, 0)+1)
		ctx.Unlock(0)
		ctx.Compute(50)
	}
	ctx.Barrier()
}

// ExampleRun runs a tiny workload under the GeNIMA protocol and checks
// its result; the simulation is deterministic, so the output is too.
func ExampleRun() {
	cfg := genima.DefaultConfig() // 4 nodes x 4-way SMPs
	a := &counter{perProc: 8}

	res, ws, err := genima.Run(cfg, genima.GeNIMA, a)
	if err != nil {
		panic(err)
	}
	fmt.Println("count:", ws.I64(ws.Region("count"), 0))
	fmt.Println("interrupts:", res.Acct.Interrupts)
	// Output:
	// count: 128
	// interrupts: 0
}

// ExampleProtocols walks the evaluation ladder.
func ExampleProtocols() {
	for _, p := range genima.Protocols() {
		fmt.Println(p)
	}
	// Output:
	// Base
	// DW
	// DW+RF
	// DW+RF+DD
	// GeNIMA
}

// ExampleValidate shows the correctness check against a sequential run.
func ExampleValidate() {
	cfg := genima.DefaultConfig()
	a := &counter{perProc: 4}
	_, seqWS, _ := genima.RunSequential(cfg, a)
	_, parWS, _ := genima.Run(cfg, genima.Base, a)
	// The sequential run has 1 processor, so the counts differ by
	// design here; compare like with like in real use. For this
	// example, just show both.
	fmt.Println("sequential:", seqWS.I64(seqWS.Region("count"), 0))
	fmt.Println("parallel:  ", parWS.I64(parWS.Region("count"), 0))
	// Output:
	// sequential: 4
	// parallel:   64
}
