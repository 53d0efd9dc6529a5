// Package apps assembles the paper's application suite (Table 1): the
// ten workloads at test- and benchmark-scale problem sizes. Paper-scale
// inputs (4M-point FFT, 4096² LU, ...) are impractical inside a
// discrete-event simulation; the benchmark sizes keep every sharing
// pattern while shrinking data so a full protocol sweep runs in
// seconds. EXPERIMENTS.md records the scaling next to each result.
package apps

import (
	"fmt"
	"strings"

	"genima/internal/app"
	"genima/internal/apps/barnes"
	"genima/internal/apps/barrierbench"
	"genima/internal/apps/fft"
	"genima/internal/apps/lu"
	"genima/internal/apps/ocean"
	"genima/internal/apps/radix"
	"genima/internal/apps/raytrace"
	"genima/internal/apps/svmkv"
	"genima/internal/apps/volrend"
	"genima/internal/apps/waterns"
	"genima/internal/apps/watersp"
)

// Scale selects problem sizes.
type Scale int

// Problem-size scales.
const (
	// Test sizes run the whole suite in well under a second per
	// protocol; used by integration tests.
	Test Scale = iota
	// Bench sizes drive the table/figure regeneration.
	Bench
)

// scaleNames are the scales' command-line names, in Scale order.
var scaleNames = []string{"test", "bench"}

// ParseScale maps a scale name, "test" or "bench", to its Scale. Any
// other name is an error that lists the valid ones, so a typo fails
// instead of silently running the wrong problem sizes.
func ParseScale(name string) (Scale, error) {
	for i, n := range scaleNames {
		if n == name {
			return Scale(i), nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q; valid scales: %s", name, strings.Join(scaleNames, ", "))
}

// Entry pairs an application with the paper's metadata for it.
type Entry struct {
	App app.App
	// PaperName is the application's name in the paper's tables.
	PaperName string
	// PaperSize is the problem size the paper ran.
	PaperSize string
	// OurSize describes the scaled-down problem used here.
	OurSize string
}

// Suite returns the ten applications in the paper's table order.
func Suite(s Scale) []Entry {
	if s == Test {
		return []Entry{
			{fft.New(10), "FFT", "4M points", "1K points"},
			{lu.New(64, 16), "LU-contiguous", "4096x4096 matrix", "64x64, B=16"},
			{ocean.New(32, 2), "Ocean-rowwise", "514x514 ocean", "34x34, 2 iters"},
			{waterns.New(48, 1), "Water-nsquared", "4096 molecules", "48 molecules, 1 step"},
			{watersp.New(64, 4, 1), "Water-spatial", "4096 molecules", "64 molecules, 4x4 cells"},
			{radix.New(2048, 2), "Radix-local", "4M keys", "2K keys, 2 passes"},
			{volrend.New(16, 32, 8), "Volrend-stealing", "256x256x256 cst head", "16^3 volume, 32^2 image"},
			{raytrace.New(32, 8, 12), "Raytrace", "256x256 car", "32^2 image, 12 spheres"},
			{barnes.NewOriginal(96, 3, 1), "Barnes-original", "32K particles", "96 bodies, depth 3"},
			{barnes.NewSpatial(128, 3, 1), "Barnes-spatial", "128K particles", "128 bodies, depth 3"},
		}
	}
	return []Entry{
		{fft.New(16), "FFT", "4M points", "64K points (256x256)"},
		{lu.New(512, 32), "LU-contiguous", "4096x4096 matrix", "512x512, B=32"},
		{ocean.New(256, 8), "Ocean-rowwise", "514x514 ocean", "258x258, 8 iters"},
		{waterns.New(1024, 1), "Water-nsquared", "4096 molecules", "1K molecules, 1 step"},
		{watersp.New(1024, 8, 2), "Water-spatial", "4096 molecules", "1K molecules, 8x8 cells"},
		{radix.New(262144, 2), "Radix-local", "4M keys", "256K keys, 2 passes"},
		{volrend.New(48, 96, 8), "Volrend-stealing", "256x256x256 cst head", "48^3 volume, 96^2 image"},
		{raytrace.New(128, 8, 32), "Raytrace", "256x256 car", "128^2 image, 32 spheres"},
		{barnes.NewOriginal(1024, 4, 2), "Barnes-original", "32K particles", "1K bodies, depth 4"},
		{barnes.NewSpatial(2048, 5, 2), "Barnes-spatial", "128K particles", "2K bodies, depth 5"},
	}
}

// ByName returns the suite entry with the given app name. It also
// resolves the non-paper workloads that Suite/Names deliberately omit:
// the synthetic "barrierbench" microbenchmark (scalesweep experiment)
// and the "svmkv" request-serving workload (serve experiment, soak
// rotation).
func ByName(s Scale, name string) (Entry, bool) {
	if name == "barrierbench" {
		r := 8
		if s == Bench {
			r = 16
		}
		return Entry{barrierbench.New(r), "Barrier-bench", "n/a", "synthetic"}, true
	}
	if name == "svmkv" {
		p := svmkv.DefaultParams(s == Bench)
		return Entry{svmkv.New(p), "SVM-KV", "n/a", "open-loop KV serving"}, true
	}
	for _, e := range Suite(s) {
		if e.App.Name() == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names lists the app names in suite order.
func Names(s Scale) []string {
	var out []string
	for _, e := range Suite(s) {
		out = append(out, e.App.Name())
	}
	return out
}
