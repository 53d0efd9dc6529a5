// Package fft is the reproduction of the SPLASH-2 FFT kernel: a
// 1-D complex FFT of n = 2^m points computed with the transpose-based
// six-step algorithm over a √n × √n matrix. All-to-all communication in
// the transpose phases gives the high inherent bandwidth demand and the
// coarse-grained access pattern the paper describes; there are no locks,
// only barriers between phases.
package fft

import (
	"math"

	"genima/internal/app"
	"genima/internal/memory"
)

// App is one FFT problem instance.
type App struct {
	m    int // log2(n); must be even
	n    int // points
	side int // matrix side = 2^(m/2)

	sc []procScratch // per-processor scratch, reused across phases
}

// procScratch holds one processor's reusable buffers. Every buffer is
// fully overwritten before it is read, so reuse cannot leak state
// between phases or runs.
type procScratch struct {
	block []float64
	seg   []float64
	row   []float64
}

// scratch returns the calling processor's scratch slot. The table is
// sized in Setup, before the processors start: sizing it lazily here
// would race when processors on different simulation workers hit their
// first phase concurrently.
func (a *App) scratch(ctx *app.Ctx) *procScratch {
	return &a.sc[ctx.ID()]
}

// grow returns s resized to n elements, reallocating only when the
// capacity is insufficient.
func grow(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// New creates an n = 2^m point FFT (m must be even).
func New(m int) *App {
	if m%2 != 0 || m < 4 {
		panic("fft: m must be even and >= 4")
	}
	return &App{m: m, n: 1 << m, side: 1 << (m / 2)}
}

// Name implements app.App.
func (a *App) Name() string { return "fft" }

// MemIntensity marks FFT as memory-bus bound within an SMP (§3.4).
func (a *App) MemIntensity() float64 { return 1.0 }

// Setup allocates the data and transpose-scratch matrices, homed in
// blocked row panels matching the processor partitioning.
func (a *App) Setup(ws *app.Workspace) {
	if np := ws.Cfg.NumProcs(); len(a.sc) != np {
		a.sc = make([]procScratch, np)
	}
	bytes := 16 * a.n // complex128 per point
	data := ws.Alloc("data", bytes, memory.Blocked)
	ws.Alloc("trans", bytes, memory.Blocked)
	// Deterministic pseudo-random input.
	seed := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < a.n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		re := float64(int32(seed>>33)) / float64(1<<31)
		seed = seed*6364136223846793005 + 1442695040888963407
		im := float64(int32(seed>>33)) / float64(1<<31)
		ws.SetF64(data, 2*i, re)
		ws.SetF64(data, 2*i+1, im)
	}
}

// Run implements the six-step FFT; the final result lands in "trans" in
// natural order.
func (a *App) Run(ctx *app.Ctx) {
	data := regionOf(ctx, "data")
	trans := regionOf(ctx, "trans")

	a.transpose(ctx, data, trans)
	ctx.Barrier()
	a.fftRows(ctx, trans, true)
	ctx.Barrier()
	a.transpose(ctx, trans, data)
	ctx.Barrier()
	a.fftRows(ctx, data, false)
	ctx.Barrier()
	a.transpose(ctx, data, trans)
	ctx.Barrier()
}

func regionOf(ctx *app.Ctx, name string) memory.Region {
	return ctx.Workspace().Region(name)
}

// rowRange gives this processor's block of matrix rows.
func (a *App) rowRange(ctx *app.Ctx) (int, int) {
	id, np := ctx.ID(), ctx.NProc()
	return id * a.side / np, (id + 1) * a.side / np
}

// transpose writes dst[r][c] = src[c][r] for this processor's dst rows,
// using the blocked algorithm: for each source row, bulk-read the
// segment covering our destination rows, then scatter locally.
func (a *App) transpose(ctx *app.Ctx, src, dst memory.Region) {
	r0, r1 := a.rowRange(ctx)
	myRows := r1 - r0
	if myRows == 0 {
		return
	}
	side := a.side
	sc := a.scratch(ctx)
	block := grow(&sc.block, myRows*2*side) // dst rows r0..r1, full width
	seg := grow(&sc.seg, 2*myRows)
	for c := 0; c < side; c++ {
		// src row c, columns r0..r1 — contiguous in src.
		ctx.CopyOutF64(src, 2*(c*side+r0), seg)
		for r := 0; r < myRows; r++ {
			block[r*2*side+2*c] = seg[2*r]
			block[r*2*side+2*c+1] = seg[2*r+1]
		}
	}
	ctx.Compute(float64(myRows*side) * 2)
	for r := 0; r < myRows; r++ {
		ctx.CopyInF64(dst, 2*(r0+r)*side, block[r*2*side:(r+1)*2*side])
	}
}

// fftRows runs an in-place radix-2 FFT on each of this processor's rows
// (rows are local after the preceding transpose); with twiddle, each
// element is additionally scaled by W_n^(row·col) afterwards.
func (a *App) fftRows(ctx *app.Ctx, reg memory.Region, twiddle bool) {
	r0, r1 := a.rowRange(ctx)
	side := a.side
	row := grow(&a.scratch(ctx).row, 2*side)
	for r := r0; r < r1; r++ {
		ctx.CopyOutF64(reg, 2*r*side, row)
		fftInPlace(row)
		if twiddle {
			applyTwiddle(row, r, a.n)
		}
		ctx.CopyInF64(reg, 2*r*side, row)
		ops := 5 * float64(side) * math.Log2(float64(side))
		if twiddle {
			ops += 6 * float64(side)
		}
		ctx.Compute(ops)
	}
}

// fftInPlace computes an iterative radix-2 DIT FFT over interleaved
// (re, im) pairs, length must be a power of two.
func fftInPlace(row []float64) {
	n := len(row) / 2
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			row[2*i], row[2*j] = row[2*j], row[2*i]
			row[2*i+1], row[2*j+1] = row[2*j+1], row[2*i+1]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			curRe, curIm := 1.0, 0.0
			half := length / 2
			for k := 0; k < half; k++ {
				i0, i1 := start+k, start+k+half
				uRe, uIm := row[2*i0], row[2*i0+1]
				vRe := row[2*i1]*curRe - row[2*i1+1]*curIm
				vIm := row[2*i1]*curIm + row[2*i1+1]*curRe
				row[2*i0], row[2*i0+1] = uRe+vRe, uIm+vIm
				row[2*i1], row[2*i1+1] = uRe-vRe, uIm-vIm
				curRe, curIm = curRe*wRe-curIm*wIm, curRe*wIm+curIm*wRe
			}
		}
	}
}

// applyTwiddle multiplies row element c by W_n^(r·c).
func applyTwiddle(row []float64, r, n int) {
	cols := len(row) / 2
	for c := 0; c < cols; c++ {
		ang := -2 * math.Pi * float64(r) * float64(c) / float64(n)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		re, im := row[2*c], row[2*c+1]
		row[2*c] = re*wRe - im*wIm
		row[2*c+1] = re*wIm + im*wRe
	}
}
