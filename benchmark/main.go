// Command benchmark measures the genima simulator end to end and layer
// by layer. One process runs one workload: set-up (repeated, median
// reported), one untimed warm-up pass, then timed passes for at least
// -seconds, validating every run against its sequential reference and
// against the warm-up pass. It prints each metric by name and unit,
// then, as the last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// -trace 0 reports the end-to-end metrics; -trace 1 is the separate
// traced run and reports the per-layer metrics instead. Usage, from the
// repository root:
//
//	bash benchmark/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
//	go -C benchmark run . -spec > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

func main() {
	testing.Init() // registers the flags testing.Benchmark reads
	workload := flag.String("workload", "", "workload to run: "+strings.Join(all, ", "))
	seed := flag.Uint64("seed", 1, "input seed: svmkv request schedules and every fault plan")
	seconds := flag.Float64("seconds", runSeconds, "minimum host seconds of timed passes")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with the per-layer metrics")
	spec := flag.Bool("spec", false, "print BENCHMARK.json, generated from the metric registry, and exit")
	flag.Parse()

	if *spec {
		data, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q; want one of %s", *workload, strings.Join(all, ", ")))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is %d; want 0 or 1", *trace))
	}
	if err := flag.Set("test.benchtime", driverBenchtime); err != nil {
		fatal(err)
	}
	r, err := measure(w, *seed, *seconds, *trace == 1, false)
	if err != nil {
		fatal(err)
	}
	if *trace == 1 {
		r.runDrivers()
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", e)
	}
	if err := printReport(os.Stdout, r, *trace == 1); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes one line per metric, then the result object as the
// last line: the end-to-end metrics, or with traced the layer metrics.
func printReport(w io.Writer, r *report, traced bool) error {
	out := result{Metrics: map[string]metricValue{}}
	for _, m := range registry {
		if m.e2e == traced {
			continue
		}
		kind := "host"
		if m.virtual {
			kind = "simulated"
		}
		var v float64
		if m.e2e {
			xs := m.samples(r)
			q1, med, q3 := quartiles(xs)
			v = med
			fmt.Fprintf(w, "%-12s %-3s median %-12.6g q1 %-12.6g q3 %-12.6g n %-3d %s\n", m.name, m.unit, med, q1, q3, len(xs), kind)
		} else {
			v = layerValue(m, r)
			fmt.Fprintf(w, "%-28s %-10s %-14.6g %-9s moves %s on %s\n", m.name, m.unit, v, kind, m.moves, strings.Join(m.on, ","))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is %v", m.name, v)
			v = 0
		}
		out.Metrics[m.name] = metricValue{v, m.unit}
	}
	out.Correct, out.Attempted, out.Failed = r.failed == 0, r.attempted, r.failed
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// spec is the layout of BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specE2E      `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkSpec derives BENCHMARK.json from the workloads and the
// registry.
func benchmarkSpec() spec {
	s := spec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	for _, m := range registry {
		if m.e2e {
			s.EndToEnd = append(s.EndToEnd, specE2E{m.name, m.unit, m.better, m.bound})
		} else {
			s.PerLayer = append(s.PerLayer, specLayer{m.name, m.unit, m.better})
		}
	}
	return s
}
