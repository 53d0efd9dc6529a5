package genima_test

// svmkv serving-workload regression: the open-loop KV server must obey
// the repo's core invariant — packet traces byte-identical for any
// -jrun, faults on and off — validate
// byte-exact against the sequential reference on every protocol rung,
// compose with the multi-stage fabrics at scale, and report a complete
// latency distribution through app.Result.

import (
	"testing"

	genima "genima"
)

// TestSvmkvValidatesAcrossLadder runs the serving workload on every
// protocol rung and validates the final store, per-shard order
// checksums, and hot counters byte-for-byte against the sequential
// reference — with and without 1% faults on the top/bottom rungs.
func TestSvmkvValidatesAcrossLadder(t *testing.T) {
	a, _ := appByName(t, "svmkv")
	seqRes, seqWS, err := genima.RunSequential(genima.DefaultConfig(), a)
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.Latency.Count() == 0 {
		t.Fatal("sequential run recorded no latencies")
	}
	for _, proto := range genima.Protocols() {
		for _, faults := range []bool{false, true} {
			if faults && proto != genima.Base && proto != genima.GeNIMA {
				continue
			}
			cfg := genima.DefaultConfig()
			if faults {
				cfg.Faults = genima.FaultMix(0.01, 42)
			}
			res, ws, err := genima.Run(cfg, proto, a)
			if err != nil {
				t.Fatalf("%v faults=%v: %v", proto, faults, err)
			}
			if err := genima.Validate(a, ws, seqWS); err != nil {
				t.Errorf("%v faults=%v: validation failed: %v", proto, faults, err)
			}
			if got := res.Latency.Count(); got != seqRes.Latency.Count() {
				t.Errorf("%v faults=%v: %d latencies recorded, want %d",
					proto, faults, got, seqRes.Latency.Count())
			}
		}
	}
}

// TestSvmkvTraceByteIdentical: the serving workload's packet trace must
// be byte-identical across -jrun 1/2/4, faults on and off, on both an
// interrupt-driven and a synchronous-NI rung.
func TestSvmkvTraceByteIdentical(t *testing.T) {
	for _, proto := range []genima.Protocol{genima.Base, genima.GeNIMA} {
		for _, faults := range []bool{false, true} {
			serial := traceHash(t, "svmkv", proto, jrunConfig(1, faults))
			for _, workers := range []int{2, 4} {
				if got := traceHash(t, "svmkv", proto, jrunConfig(workers, faults)); got != serial {
					t.Errorf("svmkv/%v faults=%v: -jrun %d trace differs from serial:\n got %s\nwant %s",
						proto, faults, workers, got, serial)
				}
			}
		}
	}
}

// TestSvmkvScaleTraceByteIdentical composes the serving workload with
// the multi-stage fabrics at 64–512 nodes, with and without faults: each
// serial leg is pinned to a recorded golden hash and -jrun 4 must match
// it byte for byte. The 512-node fat-tree leg is skipped under -short
// (same budget rule as TestIntraRunScaleTraceByteIdentical).
func TestSvmkvScaleTraceByteIdentical(t *testing.T) {
	for _, pt := range []struct {
		name        string
		nodes       int
		topo        genima.Topology
		radix       int
		proto       genima.Protocol
		collectives bool
		golden      [2]string // serial trace hash, faults off and on
	}{
		{"clos2-64", 64, genima.TopoClos2, 16, genima.GeNIMA, true, [2]string{
			"bfe05d9866b244a9fa1460531a405d2162a31e3e4073a25c1fe982b3c1ad18a3",
			"9a834c4b0d26cef3ddb107a1b812c9b0572089ae9a4aac52da231e4779d20695"}},
		{"fattree-512", 512, genima.TopoFatTree, 16, genima.Base, false, [2]string{
			"d125587f0fa1dd1b5e0093654c04fa6b467f2d61f81867a6cb0badd30a56100c",
			"d23bcc1c0bd54f6f9a7d712d812d36dcc38c5f5053bb5919151401626e24becd"}},
	} {
		if pt.nodes >= 512 && testing.Short() {
			continue
		}
		for fi, faults := range []bool{false, true} {
			serial := traceHash(t, "svmkv", pt.proto,
				scaleMatrixConfig(pt.nodes, pt.topo, pt.radix, pt.collectives, 1, faults))
			if serial != pt.golden[fi] {
				t.Errorf("svmkv %s faults=%v: serial trace drifted from golden:\n got %s\nwant %s",
					pt.name, faults, serial, pt.golden[fi])
			}
			got := traceHash(t, "svmkv", pt.proto,
				scaleMatrixConfig(pt.nodes, pt.topo, pt.radix, pt.collectives, 4, faults))
			if got != serial {
				t.Errorf("svmkv %s faults=%v: -jrun 4 trace differs from serial:\n got %s\nwant %s",
					pt.name, faults, got, serial)
			}
		}
	}
}

// TestSvmkvLatencySummary sanity-checks the merged latency report of a
// parallel run: every request accounted for, quantiles monotone, and a
// positive throughput over the run's elapsed virtual time.
func TestSvmkvLatencySummary(t *testing.T) {
	a, _ := appByName(t, "svmkv")
	res, _, err := genima.Run(genima.DefaultConfig(), genima.GeNIMA, a)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Latency.Summary()
	if s.Count == 0 {
		t.Fatal("no latencies recorded")
	}
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("quantiles not monotone: %v", s)
	}
	if s.Mean <= 0 || s.Max <= 0 {
		t.Fatalf("degenerate latency summary: %v", s)
	}
	if tput := res.Latency.Throughput(res.Elapsed); tput <= 0 {
		t.Fatalf("throughput = %v", tput)
	}
}
