// Regression tests for protocol races found during development: the
// premature-version early-flush bug, intra-node invalidation races, and
// lock-release yield races. They drive the raw merge/read pattern that
// exposed them.
package waterns

import (
	"testing"

	"genima/internal/app"
	"genima/internal/core"
	"genima/internal/memory"
	"genima/internal/topo"
)

type miniApp struct{ got []float64 }

func (m *miniApp) Name() string { return "mini" }
func (m *miniApp) Setup(ws *app.Workspace) {
	ws.Alloc("f", 4096, memory.RoundRobin)
	ws.Alloc("out", 4096, memory.RoundRobin)
}
func (m *miniApp) Run(ctx *app.Ctx) {
	ws := ctx.Workspace()
	f := ws.Region("f")
	out := ws.Region("out")
	for step := 0; step < 3; step++ {
		ctx.Lock(5)
		ctx.AddF64(f, 0, float64(ctx.ID()+1))
		ctx.Unlock(5)
		ctx.Barrier()
		if ctx.ID() == 0 {
			v := ctx.F64(f, 0)
			ctx.SetF64(out, step, v)
			ctx.SetF64(f, 0, 0)
		}
		ctx.Barrier()
	}
}

func TestMiniAddClear(t *testing.T) {
	c := topo.Default()
	c.Nodes = 2
	c.ProcsPerNode = 1
	a := &miniApp{}
	want := 3.0 // 1 + 2 for two processors
	for _, k := range core.Kinds() {
		_, parWS, err := app.RunSVM(c, k, a)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			p := parWS.F64(parWS.Region("out"), step)
			if p != want {
				t.Errorf("%v step %d: got %v want %v", k, step, p, want)
			}
		}
	}
}

func TestIsolateSteps(t *testing.T) {
	c := topo.Default()
	c.Nodes = 2
	c.ProcsPerNode = 1
	for _, steps := range []int{1, 2} {
		a := New(48, steps)
		_, seqWS, err := app.RunSeq(c, a)
		if err != nil {
			t.Fatal(err)
		}
		_, parWS, err := app.RunSVM(c, core.DWRF, a)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Validate(a, parWS, seqWS); err != nil {
			t.Errorf("steps=%d: %v", steps, err)
		} else {
			t.Logf("steps=%d OK", steps)
		}
	}
}

// mergeOnly replicates waterns' force phase without integration so the
// merged force array itself can be inspected.
type mergeOnly struct{ n int }

func (m *mergeOnly) Name() string { return "merge-only" }
func (m *mergeOnly) Setup(ws *app.Workspace) {
	full := New(m.n, 1)
	full.Setup(ws)
}
func (m *mergeOnly) Run(ctx *app.Ctx) {
	ws := ctx.Workspace()
	pos := ws.Region("pos")
	force := ws.Region("force")
	id, np := ctx.ID(), ctx.NProc()
	lo, hi := id*m.n/np, (id+1)*m.n/np
	p := make([]float64, 3*m.n)
	partial := make([]float64, 3*m.n)
	ctx.CopyOutF64(pos, 0, p)
	for i := lo; i < hi; i++ {
		for j := i + 1; j < m.n; j++ {
			fx, fy, fz := pairForce(p, i, j)
			partial[3*i] += fx
			partial[3*i+1] += fy
			partial[3*i+2] += fz
			partial[3*j] -= fx
			partial[3*j+1] -= fy
			partial[3*j+2] -= fz
		}
	}
	for j := 0; j < m.n; j++ {
		if partial[3*j] == 0 && partial[3*j+1] == 0 && partial[3*j+2] == 0 {
			continue
		}
		ctx.Lock(lockBase + j)
		ctx.AddF64(force, 3*j, partial[3*j])
		ctx.AddF64(force, 3*j+1, partial[3*j+1])
		ctx.AddF64(force, 3*j+2, partial[3*j+2])
		ctx.Unlock(lockBase + j)
	}
	ctx.Barrier()
}

func TestIsolateMerge(t *testing.T) {
	c := topo.Default()
	c.Nodes = 2
	c.ProcsPerNode = 1
	a := &mergeOnly{n: 48}
	_, seqWS, err := app.RunSeq(c, a)
	if err != nil {
		t.Fatal(err)
	}
	_, parWS, err := app.RunSVM(c, core.DWRF, a)
	if err != nil {
		t.Fatal(err)
	}
	fs, fp := seqWS.Region("force"), parWS.Region("force")
	bad := 0
	for i := 0; i < 3*48; i++ {
		s, p := seqWS.F64(fs, i), parWS.F64(fp, i)
		d := s - p
		if d < 0 {
			d = -d
		}
		if d > 1e-9 {
			t.Logf("force[%d] (mol %d): par=%.12g seq=%.12g diff=%.3g", i, i/3, p, s, p-s)
			bad++
			if bad > 10 {
				break
			}
		}
	}
	if bad == 0 {
		t.Log("forces match")
	}
}

// readBack extends mergeOnly: after the barrier each proc reads its
// molecules' forces into a readout region (like the integration phase).
type readBack struct{ mergeOnly }

func (m *readBack) Name() string { return "read-back" }
func (m *readBack) Setup(ws *app.Workspace) {
	m.mergeOnly.Setup(ws)
	ws.Alloc("readout", 8*3*m.n, memory.Blocked)
}
func (m *readBack) Run(ctx *app.Ctx) {
	m.mergeOnly.Run(ctx) // merge + barrier
	ws := ctx.Workspace()
	force := ws.Region("force")
	readout := ws.Region("readout")
	id, np := ctx.ID(), ctx.NProc()
	lo, hi := id*m.n/np, (id+1)*m.n/np
	for i := lo; i < hi; i++ {
		for d := 0; d < 3; d++ {
			ctx.SetF64(readout, 3*i+d, ctx.F64(force, 3*i+d))
		}
	}
	ctx.Barrier()
}

func TestIsolateReadBack(t *testing.T) {
	c := topo.Default()
	c.Nodes = 2
	c.ProcsPerNode = 1
	a := &readBack{mergeOnly{n: 48}}
	_, seqWS, err := app.RunSeq(c, a)
	if err != nil {
		t.Fatal(err)
	}
	_, parWS, err := app.RunSVM(c, core.DWRF, a)
	if err != nil {
		t.Fatal(err)
	}
	rs, rp := seqWS.Region("readout"), parWS.Region("readout")
	fs, fp := seqWS.Region("force"), parWS.Region("force")
	bad := 0
	for i := 0; i < 3*48; i++ {
		s, p := seqWS.F64(rs, i), parWS.F64(rp, i)
		if d := s - p; d > 1e-9 || d < -1e-9 {
			t.Logf("readout[%d] (mol %d, proc %d): par=%.12g seq=%.12g finalF par=%.12g seq=%.12g",
				i, i/3, (i/3)/24, p, s, parWS.F64(fp, i), seqWS.F64(fs, i))
			bad++
			if bad > 6 {
				break
			}
		}
	}
	if bad == 0 {
		t.Log("readouts match")
	}
}
