package lu

import (
	"math"
	"testing"

	"genima/internal/app"
	"genima/internal/core"
	"genima/internal/topo"
)

func cfg() topo.Config {
	c := topo.Default()
	c.Nodes = 4
	c.ProcsPerNode = 2
	return c
}

// Rebuild A from the computed L and U factors and compare with the
// original matrix: proves the factorization is a real LU.
func TestFactorizationReconstructs(t *testing.T) {
	a := New(64, 16)
	// Original matrix.
	orig := app.NewWorkspace(func() *topo.Config { c := cfg(); return &c }())
	a.Setup(orig)
	matO := orig.Region("mat")

	_, ws, err := app.RunSeq(cfg(), a)
	if err != nil {
		t.Fatal(err)
	}
	mat := ws.Region("mat")

	get := func(w *app.Workspace, i, j int) float64 {
		bi, bj := i/a.b, j/a.b
		x, y := i%a.b, j%a.b
		off := a.blockOff(bi, bj) + x*a.b + y
		if w == orig {
			return orig.F64(matO, off)
		}
		return ws.F64(mat, off)
	}
	n := a.n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// (L*U)[i][j]
			var s float64
			for k := 0; k <= min(i, j); k++ {
				var l float64
				if k == i {
					l = 1
				} else if k < i {
					l = get(ws, i, k)
				}
				u := get(ws, k, j)
				if k <= j {
					s += l * u
				}
			}
			want := get(orig, i, j)
			if math.Abs(s-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("LU reconstruction at (%d,%d): %g vs %g", i, j, s, want)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestParallelMatchesSequential(t *testing.T) {
	a := New(64, 16)
	_, seqWS, err := app.RunSeq(cfg(), a)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []core.Kind{core.Base, core.GeNIMA} {
		_, parWS, err := app.RunSVM(cfg(), k, a)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := app.Validate(a, parWS, seqWS); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
	_, hwWS, err := app.RunHW(cfg(), a)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Validate(a, hwWS, seqWS); err != nil {
		t.Errorf("hwdsm: %v", err)
	}
}

func TestBadBlockSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("indivisible block size did not panic")
		}
	}()
	New(100, 16)
}
