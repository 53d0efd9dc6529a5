// Package lu is the reproduction of the SPLASH-2 LU-contiguous kernel:
// blocked dense LU factorization without pivoting, with each B×B block
// stored contiguously (the "contiguous" restructuring that avoids false
// sharing at page granularity). Blocks are owner-computed on a 2-D
// scatter; barriers separate the factor/perimeter/interior phases of
// each step. There are no locks.
package lu

import (
	"genima/internal/app"
	"genima/internal/memory"
)

// App is one LU problem instance.
type App struct {
	n  int // matrix dimension
	b  int // block size
	nb int // blocks per side
}

// New creates an n×n LU factorization with b×b blocks (b must divide n).
func New(n, b int) *App {
	if n%b != 0 || n < 2*b {
		panic("lu: b must divide n and n >= 2b")
	}
	return &App{n: n, b: b, nb: n / b}
}

// Name implements app.App.
func (a *App) Name() string { return "lu" }

// blockOff returns the element offset of block (i, j) in block-major
// storage.
func (a *App) blockOff(i, j int) int { return (i*a.nb + j) * a.b * a.b }

// owner returns the processor that owns block (i, j): a 2-D scatter.
func (a *App) owner(i, j, np int) int { return (i*a.nb + j) % np }

// Setup allocates the block-major matrix, diagonally dominant so the
// factorization is stable without pivoting.
func (a *App) Setup(ws *app.Workspace) {
	mat := ws.Alloc("mat", 8*a.n*a.n, memory.Blocked)
	seed := uint64(12345)
	for bi := 0; bi < a.nb; bi++ {
		for bj := 0; bj < a.nb; bj++ {
			off := a.blockOff(bi, bj)
			for x := 0; x < a.b; x++ {
				for y := 0; y < a.b; y++ {
					seed = seed*6364136223846793005 + 1442695040888963407
					v := float64(seed>>40) / float64(1<<24)
					if bi == bj && x == y {
						v += float64(a.n)
					}
					ws.SetF64(mat, off+x*a.b+y, v)
				}
			}
		}
	}
}

// Run factors the matrix in place.
func (a *App) Run(ctx *app.Ctx) {
	mat := ctx.Workspace().Region("mat")
	id, np := ctx.ID(), ctx.NProc()
	b := a.b
	bb := b * b
	diag := make([]float64, bb)
	blk := make([]float64, bb)
	left := make([]float64, bb)
	up := make([]float64, bb)

	for k := 0; k < a.nb; k++ {
		// Factor the diagonal block.
		if a.owner(k, k, np) == id {
			ctx.CopyOutF64(mat, a.blockOff(k, k), diag)
			factorDiag(diag, b)
			ctx.CopyInF64(mat, a.blockOff(k, k), diag)
			ctx.Compute(float64(b*b*b) / 3)
		}
		ctx.Barrier()

		// Perimeter: column blocks below and row blocks right of (k,k).
		ctx.CopyOutF64(mat, a.blockOff(k, k), diag)
		for i := k + 1; i < a.nb; i++ {
			if a.owner(i, k, np) == id {
				ctx.CopyOutF64(mat, a.blockOff(i, k), blk)
				solveRight(blk, diag, b) // blk = blk * U(k,k)^-1
				ctx.CopyInF64(mat, a.blockOff(i, k), blk)
				ctx.Compute(float64(b*b*b) / 2)
			}
			if a.owner(k, i, np) == id {
				ctx.CopyOutF64(mat, a.blockOff(k, i), blk)
				solveLeft(blk, diag, b) // blk = L(k,k)^-1 * blk
				ctx.CopyInF64(mat, a.blockOff(k, i), blk)
				ctx.Compute(float64(b*b*b) / 2)
			}
		}
		ctx.Barrier()

		// Interior update: A[i][j] -= A[i][k] * A[k][j].
		for i := k + 1; i < a.nb; i++ {
			for j := k + 1; j < a.nb; j++ {
				if a.owner(i, j, np) != id {
					continue
				}
				ctx.CopyOutF64(mat, a.blockOff(i, k), left)
				ctx.CopyOutF64(mat, a.blockOff(k, j), up)
				ctx.CopyOutF64(mat, a.blockOff(i, j), blk)
				multiplySub(blk, left, up, b)
				ctx.CopyInF64(mat, a.blockOff(i, j), blk)
				ctx.Compute(2 * float64(b*b*b))
			}
		}
		ctx.Barrier()
	}
}

// factorDiag performs an in-place unblocked LU (L unit-diagonal) of a
// b×b block.
func factorDiag(d []float64, b int) {
	for k := 0; k < b; k++ {
		pivot := d[k*b+k]
		for i := k + 1; i < b; i++ {
			d[i*b+k] /= pivot
			lik := d[i*b+k]
			for j := k + 1; j < b; j++ {
				d[i*b+j] -= lik * d[k*b+j]
			}
		}
	}
}

// solveRight computes blk = blk * U^-1 where U is the upper triangle of
// the factored diagonal block.
func solveRight(blk, diag []float64, b int) {
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			s := blk[i*b+j]
			for k := 0; k < j; k++ {
				s -= blk[i*b+k] * diag[k*b+j]
			}
			blk[i*b+j] = s / diag[j*b+j]
		}
	}
}

// solveLeft computes blk = L^-1 * blk where L is the unit lower triangle
// of the factored diagonal block.
func solveLeft(blk, diag []float64, b int) {
	for j := 0; j < b; j++ {
		for i := 0; i < b; i++ {
			s := blk[i*b+j]
			for k := 0; k < i; k++ {
				s -= diag[i*b+k] * blk[k*b+j]
			}
			blk[i*b+j] = s
		}
	}
}

// multiplySub computes blk -= left * up. Each row takes its nonzero
// left entries four at a time, so one pass over the row applies four
// updates per load and store. Every element still subtracts its terms
// one at a time in ascending k, so the result is bit-identical to one
// pass per term.
func multiplySub(blk, left, up []float64, b int) {
	for i := 0; i < b; i++ {
		row, lrow := blk[i*b:i*b+b], left[i*b:i*b+b]
		var ks [4]int
		nk := 0
		for k, l := range lrow {
			if l == 0 {
				continue
			}
			ks[nk] = k
			if nk++; nk == 4 {
				subRow4(row, lrow, up, ks, b)
				nk = 0
			}
		}
		for _, k := range ks[:nk] {
			l, u := lrow[k], up[k*b:][:len(row)]
			for j := range row {
				row[j] -= l * u[j]
			}
		}
	}
}

// subRow4 subtracts the four terms lrow[ks[t]] * up row ks[t] from row,
// in order t = 0..3, for every element.
func subRow4(row, lrow, up []float64, ks [4]int, b int) {
	l0, l1, l2, l3 := lrow[ks[0]], lrow[ks[1]], lrow[ks[2]], lrow[ks[3]]
	u0 := up[ks[0]*b:][:len(row)]
	u1 := up[ks[1]*b:][:len(row)]
	u2 := up[ks[2]*b:][:len(row)]
	u3 := up[ks[3]*b:][:len(row)]
	for j, r := range row {
		r -= l0 * u0[j]
		r -= l1 * u1[j]
		r -= l2 * u2[j]
		r -= l3 * u3[j]
		row[j] = r
	}
}
