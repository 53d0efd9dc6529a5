// Package radix reproduces the Radix-local integer sort: a parallel
// radix sort whose permutation phase writes keys to rank-determined
// positions across the whole destination array. The "local"
// restructuring buckets keys privately first so each digit's keys land
// as one contiguous span — but at page granularity the spans of all
// processors interleave across the destination, so Radix remains the
// paper's false-sharing stress case, with barrier time dominated by
// protocol processing and mprotect (Table 2 reports 57.7% barrier
// time, 94% of it protocol, for Radix).
package radix

import (
	"fmt"

	"genima/internal/app"
	"genima/internal/memory"
)

// DigitBits is the radix width per pass.
const DigitBits = 8

// R is the number of buckets per pass.
const R = 1 << DigitBits

// App is one Radix sort instance.
type App struct {
	n      int // keys
	passes int // digit passes (keys are passes*DigitBits wide)
}

// New creates an n-key sort over `passes` 8-bit digit passes.
func New(n, passes int) *App {
	if n < R || passes < 1 || passes > 3 {
		panic("radix: need n >= 256 and 1 <= passes <= 3")
	}
	return &App{n: n, passes: passes}
}

// Name implements app.App.
func (a *App) Name() string { return "radix" }

// N returns the key count.
func (a *App) N() int { return a.n }

// Setup allocates the double-buffered key arrays and the per-processor
// histogram table, and generates uniform keys.
func (a *App) Setup(ws *app.Workspace) {
	keys := ws.Alloc("keys0", 4*a.n, memory.Blocked)
	ws.Alloc("keys1", 4*a.n, memory.Blocked)
	// Histograms: sized for the largest processor count we run (64).
	ws.Alloc("hist", 4*64*R, memory.RoundRobin)
	seed := uint64(31337)
	max := int32(1) << (DigitBits * a.passes)
	for i := 0; i < a.n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		ws.SetI32(keys, i, int32(seed>>33)&(max-1))
	}
}

// Run sorts the keys; the result lands in "keys0" if passes is even,
// "keys1" if odd.
func (a *App) Run(ctx *app.Ctx) {
	ws := ctx.Workspace()
	bufs := [2]memory.Region{ws.Region("keys0"), ws.Region("keys1")}
	hist := ws.Region("hist")
	id, np := ctx.ID(), ctx.NProc()
	lo, hi := id*a.n/np, (id+1)*a.n/np

	local := make([]int32, hi-lo)
	counts := make([]int32, R)
	offsets := make([]int, R)
	all := make([]int32, np*R)
	bucketed := make([]int32, hi-lo)
	cursor := make([]int, R)

	for pass := 0; pass < a.passes; pass++ {
		src, dst := bufs[pass%2], bufs[(pass+1)%2]
		shift := uint(pass * DigitBits)

		// Local histogram over my block.
		ctx.CopyOutI32(src, lo, local)
		for i := range counts {
			counts[i] = 0
		}
		for _, k := range local {
			counts[(k>>shift)&(R-1)]++
		}
		ctx.Compute(float64(len(local)) * 6)
		ctx.CopyInI32(hist, id*R, counts)
		ctx.Barrier()

		// Global ranks: my starting offset for each digit (prefix sum
		// over digits, then over lower-ranked processors).
		ctx.CopyOutI32(hist, 0, all)
		cum := 0
		for d := 0; d < R; d++ {
			offsets[d] = cum
			for p := 0; p < np; p++ {
				cum += int(all[p*R+d])
			}
			for p := 0; p < id; p++ {
				offsets[d] += int(all[p*R+d])
			}
		}
		ctx.Compute(float64(R * 2 * np))

		// Permutation, with the "local" restructuring: keys are first
		// bucketed privately so each digit's keys can be written as one
		// contiguous span (stable within the block). Page-granularity
		// sharing remains at every span boundary — the false sharing
		// that keeps Radix data- and barrier-bound — but the writes are
		// bulk, not single words.
		// Counting placement into one flat buffer: cursor[d] walks span
		// d, so the bucketing is stable and allocation-free.
		start := 0
		for d := 0; d < R; d++ {
			cursor[d] = start
			start += int(counts[d])
		}
		for _, k := range local {
			d := (k >> shift) & (R - 1)
			bucketed[cursor[d]] = k
			cursor[d]++
		}
		begin := 0
		for d := 0; d < R; d++ {
			end := cursor[d] // == span start + counts[d]
			if end > begin {
				ctx.CopyInI32(dst, offsets[d], bucketed[begin:end])
			}
			begin = end
		}
		// The real permutation does address arithmetic, bounds checks
		// and key movement per element (~20 ops).
		ctx.Compute(float64(len(local)) * 20)
		ctx.Barrier()
	}
}

// Compare checks the sorted output exactly; the histogram table is
// per-processor scratch and legitimately depends on the processor
// count, so it is excluded.
func (a *App) Compare(par, seq *app.Workspace) error {
	out := fmt.Sprintf("keys%d", a.passes%2)
	rp, rs := par.Region(out), seq.Region(out)
	for i := 0; i < a.n; i++ {
		if p, s := par.I32(rp, i), seq.I32(rs, i); p != s {
			return fmt.Errorf("radix: output[%d] = %d, want %d", i, p, s)
		}
	}
	return nil
}

// Verify checks the output is sorted (a self-check that needs no
// reference run).
func (a *App) Verify(ws *app.Workspace) error {
	out := ws.Region(fmt.Sprintf("keys%d", a.passes%2))
	prev := int32(-1)
	for i := 0; i < a.n; i++ {
		k := ws.I32(out, i)
		if k < prev {
			return fmt.Errorf("radix: output not sorted at %d: %d < %d", i, k, prev)
		}
		prev = k
	}
	return nil
}
