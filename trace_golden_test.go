package genima_test

// Zero-overhead off-switch regression: with fault injection disabled,
// the packet-level event trace of a run must be byte-identical to the
// pre-faults baseline. The golden hashes below were captured from the
// commit immediately before internal/faults existed; if either test
// fails, the fault/reliability plumbing has leaked timing or events
// into the fault-free path.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	genima "genima"
)

// traceHash runs app under proto at test scale and returns a SHA-256
// over the canonical rendering of every delivered packet, in delivery
// order, plus the run's final elapsed time and event count.
func traceHash(t *testing.T, appName string, proto genima.Protocol, cfg genima.Config) string {
	t.Helper()
	a, _ := appByName(t, appName)
	h := sha256.New()
	res, _, err := genima.RunTraced(cfg, proto, a, func(ev genima.TraceEvent) {
		fmt.Fprintf(h, "%d|%d|%d|%d|%s|%v|%d|%d|%d|%d\n",
			ev.Time, ev.Src, ev.Dst, ev.Size, ev.Kind, ev.Firmware,
			ev.StageTime[0], ev.StageTime[1], ev.StageTime[2], ev.StageTime[3])
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "elapsed=%d events=%d\n", res.Elapsed, res.Events)
	return hex.EncodeToString(h.Sum(nil))
}

// Golden hashes of the pre-faults baseline (fault injection disabled).
const (
	goldenFFTBase     = "ff9fed61efeb81509d901807de7eb3ceda4096f1958061db68305fcfde959ed6"
	goldenWaterGeNIMA = "dafa10df04a99cf51e0e52e9cfe403e869a7f1730c6a6ba28972871e88d299ef"
)

func TestTraceGoldenFaultFreeFFTBase(t *testing.T) {
	cfg := genima.DefaultConfig()
	if got := traceHash(t, "fft", genima.Base, cfg); got != goldenFFTBase {
		t.Errorf("fault-free fft/Base trace hash drifted:\n got %s\nwant %s", got, goldenFFTBase)
	}
}

func TestTraceGoldenFaultFreeWaterGeNIMA(t *testing.T) {
	cfg := genima.DefaultConfig()
	if got := traceHash(t, "water-nsq", genima.GeNIMA, cfg); got != goldenWaterGeNIMA {
		t.Errorf("fault-free water-nsq/GeNIMA trace hash drifted:\n got %s\nwant %s", got, goldenWaterGeNIMA)
	}
}

// Protocol-process regression: the floating protocol process's lock
// grants (interval close, diff flush, write-notice fan-out in every
// notice mode), its queued page-request retry after a diff, and its
// direct-diff and scatter-gather flushes all shape the packet trace.
// Water-nsq on 16 single-processor nodes reaches the grant, interval
// close and pending-retry paths in every row below; the svmkv row adds
// the direct-diff run deposits and scatter-gather diffs a grant
// flushes under DW+RF+DD. Recorded from the resumable state-machine
// form of the process; any other form must reproduce them.
func TestTraceGoldenProtocolProcess(t *testing.T) {
	base := genima.DefaultConfig()
	base.Nodes, base.ProcsPerNode = 16, 1
	bcast := base
	bcast.NIBroadcast = true
	coll := base
	coll.Collectives = true
	faulty := base
	faulty.Faults = genima.FaultMix(0.01, 42)
	sg := base
	sg.ScatterGather = true
	for _, tc := range []struct {
		name  string
		app   string
		proto genima.Protocol
		cfg   genima.Config
		want  string
	}{
		{"water-nsq/Base", "water-nsq", genima.Base, base,
			"38b5e63be58916757a17148747382a27a7a49bc51599dc17d6c4cbe6b0829777"},
		{"water-nsq/DW", "water-nsq", genima.DW, base,
			"96ae5e058b2aa7bb7b909bddb87d902ca63dc5fc9961f9360bd48167f2725ad1"},
		{"water-nsq/DW-nibroadcast", "water-nsq", genima.DW, bcast,
			"35945e4f322891cc6384ed73571152cc689f8b87e3a9e1ed5ecd3fc3aaadb5bf"},
		{"water-nsq/DW-collectives", "water-nsq", genima.DW, coll,
			"b3678ab2ee4f4425be2075cf417966be1c358108ae406da8b4a00ab7426390a8"},
		{"water-nsq/Base-faults", "water-nsq", genima.Base, faulty,
			"5b0981f064162547b6e8e76969a42f35355c1205306ae16dcb2f63132d228d7f"},
		{"svmkv/DW+RF+DD-scattergather", "svmkv", genima.DWRFDD, sg,
			"0eda683e0a830d90dce57ecdd78315519f43bc2de88d4ee2d7be4302a4e41adf"},
	} {
		if got := traceHash(t, tc.app, tc.proto, tc.cfg); got != tc.want {
			t.Errorf("%s: trace hash drifted:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
