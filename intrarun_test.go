package genima_test

// Intra-run parallel simulation regression: a run partitioned into
// shard-granular logical processes (Config.IntraRunWorkers > 1, one
// shard per worker) must produce a packet-level event trace
// byte-identical to the serial engine — for every worker count, with
// and without fault injection. The serial
// goldens in trace_golden_test.go therefore pin the parallel engine
// too: -jrun 1 must still match them, and -jrun N must match -jrun 1.

import (
	"runtime"
	"testing"

	genima "genima"
)

// intraRunPoints are the (app, protocol) coverage points: the two
// golden-trace points plus a middle-ladder rung with direct writes and
// remote fetch, so the interrupt path, the NI-lock path, and the
// remote-fetch path all cross logical processes under test.
var intraRunPoints = []struct {
	app   string
	proto genima.Protocol
}{
	{"fft", genima.Base},
	{"lu", genima.DWRF},
	{"water-nsq", genima.GeNIMA},
}

func jrunConfig(workers int, faults bool) genima.Config {
	cfg := genima.DefaultConfig()
	cfg.IntraRunWorkers = workers
	if faults {
		cfg.Faults = genima.FaultMix(0.01, 42)
	}
	return cfg
}

func TestIntraRunTraceByteIdentical(t *testing.T) {
	for _, pt := range intraRunPoints {
		for _, faults := range []bool{false, true} {
			serial := traceHash(t, pt.app, pt.proto, jrunConfig(1, faults))
			for _, workers := range []int{2, 4} {
				got := traceHash(t, pt.app, pt.proto, jrunConfig(workers, faults))
				if got != serial {
					t.Errorf("%s/%v faults=%v: -jrun %d trace differs from serial:\n got %s\nwant %s",
						pt.app, pt.proto, faults, workers, got, serial)
				}
			}
		}
	}
}

// multiStageConfig is the default cluster on a radix-4 clos2 (two
// hosts per leaf, so cross-leaf routes take 3 switch hops even at 4
// nodes) — the smallest config where packets cross intermediate
// switches on the fabric LP.
func multiStageConfig(workers int, faults, collectives bool) genima.Config {
	cfg := jrunConfig(workers, faults)
	cfg.Topo = genima.TopoClos2
	cfg.SwitchRadix = 4
	cfg.Collectives = collectives
	return cfg
}

// TestIntraRunMultiStageTraceByteIdentical extends the byte-identical
// guarantee to multi-stage fabrics and the collective-tree protocol:
// for any worker count, with and without faults, the packet trace must
// match the serial engine exactly.
func TestIntraRunMultiStageTraceByteIdentical(t *testing.T) {
	for _, pt := range []struct {
		app         string
		proto       genima.Protocol
		collectives bool
	}{
		{"fft", genima.Base, false},
		{"fft", genima.GeNIMA, true},
		{"water-nsq", genima.GeNIMA, true},
	} {
		for _, faults := range []bool{false, true} {
			serial := traceHash(t, pt.app, pt.proto, multiStageConfig(1, faults, pt.collectives))
			for _, workers := range []int{2, 4} {
				got := traceHash(t, pt.app, pt.proto, multiStageConfig(workers, faults, pt.collectives))
				if got != serial {
					t.Errorf("%s/%v clos2 collectives=%v faults=%v: -jrun %d trace differs from serial:\n got %s\nwant %s",
						pt.app, pt.proto, pt.collectives, faults, workers, got, serial)
				}
			}
		}
	}
}

// scaleMatrixConfig is one point of the at-scale determinism matrix:
// barrierbench at ProcsPerNode=1 on a large multi-stage fabric.
func scaleMatrixConfig(nodes int, tp genima.Topology, radix int, collectives bool, workers int, faults bool) genima.Config {
	cfg := jrunConfig(workers, faults)
	cfg.Nodes = nodes
	cfg.ProcsPerNode = 1
	cfg.Topo = tp
	cfg.SwitchRadix = radix
	cfg.Collectives = collectives
	return cfg
}

// TestIntraRunScaleTraceByteIdentical is the at-scale determinism
// matrix: a 128-node clos2 and a 512-node fat tree, with and without 1%
// faults. Each serial leg is pinned to a recorded golden hash, and
// -jrun 4 (four node shards) must match it byte for byte. The 512-node
// leg is skipped under -short (it dominates the race-detector budget;
// the 128-node leg still covers sharded clusters there).
func TestIntraRunScaleTraceByteIdentical(t *testing.T) {
	for _, pt := range []struct {
		name        string
		nodes       int
		topo        genima.Topology
		radix       int
		proto       genima.Protocol
		collectives bool
		golden      [2]string // serial trace hash, faults off and on
	}{
		// NI-firmware collective tree on a 2-stage clos: fabric-heavy.
		{"clos2-128", 128, genima.TopoClos2, 16, genima.GeNIMA, true, [2]string{
			"090088af80fed1029f06f7ab8cfeef34975af97ed9d1e4f440216f1d2c9e0417",
			"20382efb1d78c0c5bf0716c724aa266b671ec6f24443681d9de4e5192aa28181"}},
		// Flat interrupt barrier on a 3-stage fat tree: interrupt-heavy.
		{"fattree-512", 512, genima.TopoFatTree, 16, genima.Base, false, [2]string{
			"749e5282bc7207cc0e20f23a029d062a42e7de30c8140b64403a3cb8115526d1",
			"100867ea9cbfae93dd4e7ed5448d79d42046ab82b09304a52a0b48d7c6e9a31d"}},
	} {
		if pt.nodes >= 512 && testing.Short() {
			continue
		}
		for fi, faults := range []bool{false, true} {
			serial := traceHash(t, "barrierbench", pt.proto,
				scaleMatrixConfig(pt.nodes, pt.topo, pt.radix, pt.collectives, 1, faults))
			if serial != pt.golden[fi] {
				t.Errorf("%s faults=%v: serial trace drifted from golden:\n got %s\nwant %s",
					pt.name, faults, serial, pt.golden[fi])
			}
			got := traceHash(t, "barrierbench", pt.proto,
				scaleMatrixConfig(pt.nodes, pt.topo, pt.radix, pt.collectives, 4, faults))
			if got != serial {
				t.Errorf("%s faults=%v: -jrun 4 trace differs from serial:\n got %s\nwant %s",
					pt.name, faults, got, serial)
			}
		}
	}
}

// TestIntraRunSerialMatchesGolden pins -jrun 1 to the committed serial
// golden hashes: the parallel engine's serial mode must be the exact
// engine the goldens were recorded on, not a one-worker parallel run.
func TestIntraRunSerialMatchesGolden(t *testing.T) {
	if got := traceHash(t, "fft", genima.Base, jrunConfig(1, false)); got != goldenFFTBase {
		t.Errorf("-jrun 1 fft/Base drifted from golden:\n got %s\nwant %s", got, goldenFFTBase)
	}
	if got := traceHash(t, "water-nsq", genima.GeNIMA, jrunConfig(1, false)); got != goldenWaterGeNIMA {
		t.Errorf("-jrun 1 water-nsq/GeNIMA drifted from golden:\n got %s\nwant %s", got, goldenWaterGeNIMA)
	}
}

// TestTracedRunDrivesCluster: a traced run with IntraRunWorkers > 1
// must execute on the PDES cluster, and a serial one must not, or the
// byte-identity tests above would compare the serial engine with
// itself. The tracer looks for the cluster's Run on its call stack.
func TestTracedRunDrivesCluster(t *testing.T) {
	for _, workers := range []int{1, 2} {
		a, _ := appByName(t, "fft")
		onCluster := false
		_, _, err := genima.RunTraced(jrunConfig(workers, false), genima.Base, a, func(genima.TraceEvent) {
			if onCluster {
				return
			}
			pc := make([]uintptr, 128)
			frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
			for more := true; more && !onCluster; {
				var f runtime.Frame
				f, more = frames.Next()
				onCluster = f.Function == "genima/internal/sim.(*Cluster).Run"
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if onCluster != (workers > 1) {
			t.Errorf("IntraRunWorkers %d: trace delivered on the cluster = %v, want %v", workers, onCluster, workers > 1)
		}
	}
}
