package app

import (
	"testing"

	"genima/internal/core"
	"genima/internal/memory"
	"genima/internal/stats"
	"genima/internal/topo"
)

// sumApp is a minimal workload: each processor squares its block of a
// shared vector, then lock-accumulates a partial sum into a shared cell,
// with barriers between phases.
type sumApp struct {
	n int
}

func (a *sumApp) Name() string { return "sum" }

func (a *sumApp) Setup(ws *Workspace) {
	v := ws.Alloc("vec", 8*a.n, memory.Blocked)
	ws.Alloc("sum", 8, memory.RoundRobin)
	for i := 0; i < a.n; i++ {
		ws.SetF64(v, i, float64(i%17)+1)
	}
}

func (a *sumApp) Run(ctx *Ctx) {
	v := ctx.ws.Region("vec")
	sum := ctx.ws.Region("sum")
	id, np := ctx.ID(), ctx.NProc()
	lo, hi := id*a.n/np, (id+1)*a.n/np

	local := 0.0
	for i := lo; i < hi; i++ {
		x := ctx.F64(v, i)
		x = x * x
		ctx.SetF64(v, i, x)
		local += x
	}
	ctx.Compute(float64(hi-lo) * 3)
	ctx.Barrier()

	ctx.Lock(0)
	ctx.AddF64(sum, 0, local)
	ctx.Unlock(0)
	ctx.Barrier()
}

// The sum result depends on accumulation order only in rounding; with
// integral values it is exact, so the default comparison works.

func testConfig() topo.Config {
	cfg := topo.Default()
	cfg.Nodes = 4
	cfg.ProcsPerNode = 2
	return cfg
}

func TestRunSeqProducesReference(t *testing.T) {
	a := &sumApp{n: 4096}
	res, ws, err := RunSeq(testConfig(), a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("sequential run has zero elapsed time")
	}
	want := 0.0
	for i := 0; i < a.n; i++ {
		x := float64(i%17) + 1
		want += x * x
	}
	if got := ws.F64(ws.Region("sum"), 0); got != want {
		t.Errorf("sequential sum = %g, want %g", got, want)
	}
}

func TestSVMMatchesSequentialAllProtocols(t *testing.T) {
	a := &sumApp{n: 4096}
	_, seqWS, err := RunSeq(testConfig(), a)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range core.Kinds() {
		res, parWS, err := RunSVM(testConfig(), k, a)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := Validate(a, parWS, seqWS); err != nil {
			t.Errorf("%v: wrong result: %v", k, err)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%v: zero elapsed", k)
		}
		if res.Avg.T[0] == 0 { // Compute
			t.Errorf("%v: no compute time recorded", k)
		}
	}
}

func TestHWMatchesSequential(t *testing.T) {
	a := &sumApp{n: 4096}
	_, seqWS, err := RunSeq(testConfig(), a)
	if err != nil {
		t.Fatal(err)
	}
	res, parWS, err := RunHW(testConfig(), a)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(a, parWS, seqWS); err != nil {
		t.Errorf("hwdsm wrong result: %v", err)
	}
	if res.Elapsed <= 0 {
		t.Error("zero elapsed")
	}
}

func TestHWFasterThanSVM(t *testing.T) {
	a := &sumApp{n: 16384}
	hw, _, err := RunHW(testConfig(), a)
	if err != nil {
		t.Fatal(err)
	}
	svm, _, err := RunSVM(testConfig(), core.Base, a)
	if err != nil {
		t.Fatal(err)
	}
	if hw.Elapsed >= svm.Elapsed {
		t.Errorf("hardware DSM (%d) not faster than Base SVM (%d)", hw.Elapsed, svm.Elapsed)
	}
}

func TestGeNIMABeatsBase(t *testing.T) {
	a := &sumApp{n: 16384}
	base, _, err := RunSVM(testConfig(), core.Base, a)
	if err != nil {
		t.Fatal(err)
	}
	gen, _, err := RunSVM(testConfig(), core.GeNIMA, a)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Elapsed >= base.Elapsed {
		t.Errorf("GeNIMA (%d) not faster than Base (%d)", gen.Elapsed, base.Elapsed)
	}
	if gen.Acct.Interrupts != 0 {
		t.Errorf("GeNIMA took %d interrupts", gen.Acct.Interrupts)
	}
	if base.Acct.Interrupts == 0 {
		t.Error("Base took no interrupts")
	}
}

func TestBreakdownCategoriesPopulated(t *testing.T) {
	a := &sumApp{n: 8192}
	res, _, err := RunSVM(testConfig(), core.Base, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Avg.T[stats.Compute] == 0 {
		t.Error("no Compute time")
	}
	if res.Avg.T[stats.Data] == 0 {
		t.Error("no Data time")
	}
	if res.Avg.T[stats.Barrier] == 0 {
		t.Error("no Barrier time")
	}
	tot := res.Avg.Total()
	if tot <= 0 || tot > res.Elapsed {
		t.Errorf("avg breakdown total %d vs elapsed %d", tot, res.Elapsed)
	}
}

func TestSpeedupHelper(t *testing.T) {
	seq := &Result{Elapsed: 1000}
	par := &Result{Elapsed: 250}
	if s := Speedup(seq, par); s != 4 {
		t.Errorf("speedup = %v, want 4", s)
	}
	if s := Speedup(seq, &Result{}); s != 0 {
		t.Errorf("speedup with zero elapsed = %v, want 0", s)
	}
}

func TestWorkspaceAccessors(t *testing.T) {
	cfg := testConfig()
	ws := NewWorkspace(&cfg)
	r := ws.Alloc("a", 4096, memory.RoundRobin)
	ws.SetF64(r, 3, 2.5)
	if v := ws.F64(r, 3); v != 2.5 {
		t.Errorf("F64 = %v", v)
	}
	ws.SetI32(r, 100, -7)
	if v := ws.I32(r, 100); v != -7 {
		t.Errorf("I32 = %v", v)
	}
	ws.SetI64(r, 60, 1<<40)
	if v := ws.I64(r, 60); v != 1<<40 {
		t.Errorf("I64 = %v", v)
	}
	if ws.Region("a") != r {
		t.Error("Region lookup mismatch")
	}
}

func TestCompareF64Tolerance(t *testing.T) {
	cfg := testConfig()
	a := NewWorkspace(&cfg)
	b := NewWorkspace(&cfg)
	ra := a.Alloc("x", 8*4, memory.RoundRobin)
	rb := b.Alloc("x", 8*4, memory.RoundRobin)
	for i := 0; i < 4; i++ {
		a.SetF64(ra, i, 100)
		b.SetF64(rb, i, 100)
	}
	a.SetF64(ra, 2, 100.000001)
	if err := CompareF64Tolerance(a, b, "x", 4, 1e-6); err != nil {
		t.Errorf("within tolerance rejected: %v", err)
	}
	a.SetF64(ra, 2, 101)
	if err := CompareF64Tolerance(a, b, "x", 4, 1e-6); err == nil {
		t.Error("out-of-tolerance accepted")
	}
}
