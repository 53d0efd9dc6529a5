package lu

import (
	"math"
	"math/rand"
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

// multiplySubRef is the one-term-per-pass loop multiplySub must match
// bit for bit.
func multiplySubRef(blk, left, up []float64, b int) {
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			l := left[i*b+k]
			if l == 0 {
				continue
			}
			for j := 0; j < b; j++ {
				blk[i*b+j] -= l * up[k*b+j]
			}
		}
	}
}

// Random blocks with values over a wide exponent range (so that any
// change in the order of an element's subtractions changes its
// rounding), about a third of the left entries 0 or -0, and one row of
// left all zeros over a row of -0 in blk (so that dropping the zero
// skip turns -0 into +0).
func TestMultiplySubMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	val := func() float64 { return rnd.NormFloat64() * math.Ldexp(1, rnd.Intn(21)-10) }
	for _, b := range []int{16, 32, 33} {
		for trial := 0; trial < 20; trial++ {
			blk, left, up := make([]float64, b*b), make([]float64, b*b), make([]float64, b*b)
			for i := range blk {
				blk[i], up[i] = val(), val()
				switch rnd.Intn(6) {
				case 0:
					left[i] = 0
				case 1:
					left[i] = math.Copysign(0, -1)
				default:
					left[i] = val()
				}
			}
			z := rnd.Intn(b)
			for j := 0; j < b; j++ {
				left[z*b+j] = math.Copysign(0, float64(j%2)-0.5)
				blk[z*b+j] = math.Copysign(0, -1)
			}
			want := append([]float64(nil), blk...)
			multiplySubRef(want, left, up, b)
			multiplySub(blk, left, up, b)
			for i := range blk {
				if math.Float64bits(blk[i]) != math.Float64bits(want[i]) {
					t.Fatalf("b=%d trial %d: element (%d,%d) = %v (%#x), reference %v (%#x)",
						b, trial, i/b, i%b, blk[i], math.Float64bits(blk[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}
