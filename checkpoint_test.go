package genima_test

// Checkpoint/restore acceptance: a run halted at a cut and restored
// from its checkpoint must finish with a trace hash byte-identical to
// an uninterrupted run — with fault injection on and off, including a
// link down-window spanning the cut, and under any IntraRunWorkers
// (a checkpointed run always executes on the serial engine).

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	genima "genima"
)

// ckptFull runs uninterrupted (no checkpoint file) and returns the
// final canonical trace hash.
func ckptFull(t *testing.T, cfg genima.Config, proto genima.Protocol, appName string) string {
	t.Helper()
	a, _ := appByName(t, appName)
	cr, err := genima.RunCheckpointed(cfg, proto, a, genima.CheckpointOptions{
		Scale: "test", Every: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cr.TraceHash
}

// ckptHalt halts the run at its stopAt-th boundary (Every 50), writing
// a checkpoint, and returns the checkpoint loaded back from disk.
func ckptHalt(t *testing.T, cfg genima.Config, proto genima.Protocol, a genima.App, stopAt int) *genima.Checkpoint {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	boundaries := 0
	cr, err := genima.RunCheckpointed(cfg, proto, a, genima.CheckpointOptions{
		Path: path, Every: 50, Scale: "test",
		ShouldStop: func() bool {
			boundaries++
			return boundaries >= stopAt
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Interrupted {
		t.Fatalf("run finished (%d trace events) before boundary %d; shrink Every", cr.TraceEvents, stopAt)
	}
	st, err := genima.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceEvents != cr.TraceEvents {
		t.Fatalf("checkpoint cut %d != halt point %d", st.TraceEvents, cr.TraceEvents)
	}
	return st
}

// ckptCutAndResume halts the run at its stopAt-th boundary (writing a
// checkpoint), restores from that checkpoint, and returns the cut
// ordinal and the resumed run's final hash.
func ckptCutAndResume(t *testing.T, cfg genima.Config, proto genima.Protocol, appName string, stopAt int) (uint64, string) {
	t.Helper()
	a, _ := appByName(t, appName)
	st := ckptHalt(t, cfg, proto, a, stopAt)
	res, err := genima.RunCheckpointed(cfg, proto, a, genima.CheckpointOptions{
		Scale: "test", Every: 50, Restore: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("restored run reported Interrupted")
	}
	return st.TraceEvents, res.TraceHash
}

func TestCheckpointRestoreByteIdentical(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		name := "serial"
		if faulted {
			name += "_faults"
		}
		t.Run(name, func(t *testing.T) {
			cfg := genima.DefaultConfig()
			if faulted {
				cfg.Faults = genima.FaultMix(0.02, 7)
			}
			want := ckptFull(t, cfg, genima.GeNIMA, "fft")
			cut, got := ckptCutAndResume(t, cfg, genima.GeNIMA, "fft", 2)
			if cut == 0 {
				t.Fatal("cut at trace event 0")
			}
			if got != want {
				t.Errorf("restored-at-%d hash %s != uninterrupted %s", cut, got, want)
			}
		})
	}
}

// A run halted by ShouldStop leaves its processors suspended
// mid-body; the runner must release them, or every interrupted run
// leaks one goroutine and its stack per processor. A completed Base run
// leaves its nodes' protocol processes parked on empty queues, which
// the runner must release too. Five interrupted GeNIMA runs and three
// completed Base runs, serial and intra-run parallel, end with the
// goroutine count back at its starting value.
func TestInterruptedRunsReleaseProcesses(t *testing.T) {
	a, _ := appByName(t, "fft")
	for _, workers := range []int{1, 2} {
		cfg := genima.DefaultConfig()
		cfg.IntraRunWorkers = workers
		start := runtime.NumGoroutine()
		for i := 0; i < 5; i++ {
			boundaries := 0
			cr, err := genima.RunCheckpointed(cfg, genima.GeNIMA, a, genima.CheckpointOptions{
				Every: 50, Scale: "test",
				ShouldStop: func() bool { boundaries++; return boundaries >= 2 },
			})
			if err != nil {
				t.Fatal(err)
			}
			if !cr.Interrupted {
				t.Fatalf("workers=%d: run finished before the stop boundary", workers)
			}
		}
		for i := 0; i < 3; i++ {
			res, _, err := genima.Run(cfg, genima.Base, a)
			if err != nil {
				t.Fatal(err)
			}
			if res.Acct.Interrupts == 0 {
				t.Fatalf("workers=%d: Base run took no interrupts, so no protocol process ran", workers)
			}
		}
		// The cluster's worker goroutines exit once their channels
		// close, which need not happen before Run returns.
		got := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); got > start && time.Now().Before(deadline); got = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if got > start {
			t.Errorf("workers=%d: %d goroutines after 5 interrupted and 3 completed runs, want %d", workers, got, start)
		}
	}
}

// IntraRunWorkers does not reach a checkpointed run, so a checkpoint
// taken under one value restores under another, in both directions,
// with the uninterrupted hash and with every check of the cut in force:
// a copy whose live-state digest was altered is refused.
func TestCheckpointRestoreAcrossModes(t *testing.T) {
	serial := genima.DefaultConfig()
	par := serial
	par.IntraRunWorkers = 4
	want := ckptFull(t, serial, genima.GeNIMA, "fft")
	a, _ := appByName(t, "fft")
	for _, c := range []struct {
		name          string
		save, restore genima.Config
	}{
		{"serial to w4", serial, par},
		{"w4 to serial", par, serial},
	} {
		st := ckptHalt(t, c.save, genima.GeNIMA, a, 2)
		res, err := genima.RunCheckpointed(c.restore, genima.GeNIMA, a, genima.CheckpointOptions{
			Scale: "test", Every: 50, Restore: st,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.TraceHash != want {
			t.Errorf("%s: hash %s != %s", c.name, res.TraceHash, want)
		}
		bad := *st
		bad.StateDigest ^= 1
		_, err = genima.RunCheckpointed(c.restore, genima.GeNIMA, a, genima.CheckpointOptions{
			Scale: "test", Every: 50, Restore: &bad,
		})
		if err == nil || !strings.Contains(err.Error(), "diverged") {
			t.Errorf("%s with an altered StateDigest: err = %v, want a divergence at the cut", c.name, err)
		}
	}
}

// A link down-window open across the checkpoint cut must not disturb
// restore determinism: the retransmission state in flight at the cut is
// reproduced by the replay.
func TestCheckpointRestoreAcrossDownWindow(t *testing.T) {
	cfg := genima.DefaultConfig()
	cfg.Faults = genima.FaultPlan{
		Enabled: true,
		Seed:    11,
		Down: []genima.DownWindow{
			// Node 1 dark for most of the run: every checkpoint boundary
			// a short fft run reaches falls inside this window.
			{Node: 1, Dir: genima.BothDirs, From: 100_000, Until: 3_000_000},
		},
	}
	want := ckptFull(t, cfg, genima.GeNIMA, "fft")
	cut, got := ckptCutAndResume(t, cfg, genima.GeNIMA, "fft", 2)
	if got != want {
		t.Errorf("restored-at-%d hash %s != uninterrupted %s", cut, got, want)
	}
}

// Restoring against the wrong run identity must be rejected up front.
func TestCheckpointRestoreRejectsMismatch(t *testing.T) {
	cfg := genima.DefaultConfig()
	a, _ := appByName(t, "fft")
	st := ckptHalt(t, cfg, genima.GeNIMA, a, 1)
	cases := []struct {
		name string
		run  func() error
	}{
		{"app", func() error {
			lu, _ := appByName(t, "lu")
			_, err := genima.RunCheckpointed(cfg, genima.GeNIMA, lu, genima.CheckpointOptions{Scale: "test", Restore: st})
			return err
		}},
		{"proto", func() error {
			_, err := genima.RunCheckpointed(cfg, genima.Base, a, genima.CheckpointOptions{Scale: "test", Restore: st})
			return err
		}},
		{"config", func() error {
			other := cfg
			other.Nodes = 8
			_, err := genima.RunCheckpointed(other, genima.GeNIMA, a, genima.CheckpointOptions{Scale: "test", Restore: st})
			return err
		}},
	}
	for _, c := range cases {
		if err := c.run(); err == nil {
			t.Errorf("%s mismatch accepted", c.name)
		} else if !strings.Contains(err.Error(), "mismatch") {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
	}
}

// OnTrace ordinals: a restore suppresses the replayed prefix, emitting
// exactly the post-cut packets with continuous global ordinals.
func TestCheckpointRestoreSuppressesPrefix(t *testing.T) {
	cfg := genima.DefaultConfig()
	a, _ := appByName(t, "fft")
	st := ckptHalt(t, cfg, genima.GeNIMA, a, 2)
	var got []uint64
	res, err := genima.RunCheckpointed(cfg, genima.GeNIMA, a, genima.CheckpointOptions{
		Scale: "test", Restore: st,
		OnTrace: func(idx uint64, _ genima.TraceEvent) { got = append(got, idx) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != res.TraceEvents-st.TraceEvents {
		t.Fatalf("emitted %d events, want %d post-cut", len(got), res.TraceEvents-st.TraceEvents)
	}
	for i, idx := range got {
		if want := st.TraceEvents + uint64(i); idx != want {
			t.Fatalf("ordinal %d at position %d, want %d", idx, i, want)
		}
	}
}

// Guard against silent boundary drift: the helper cut must land on an
// Every multiple.
func TestCheckpointCutOnBoundary(t *testing.T) {
	cfg := genima.DefaultConfig()
	cut, _ := ckptCutAndResume(t, cfg, genima.GeNIMA, "fft", 2)
	if cut%50 != 0 {
		t.Errorf("cut %d not on an Every=50 boundary", cut)
	}
	if cut != 100 {
		// Two boundaries at Every=50: documents the expected cut so a
		// behavioural change here is loud, not silent.
		t.Errorf("cut %d, want 100", cut)
	}
}

// A restore must refuse a cut its replay does not reproduce: altering
// any one of the checkpoint's trace prefix sum, live-state digest,
// virtual clock or engine event count fails the restore at the cut,
// and a cut past the end of the run fails it at the end.
func TestCheckpointRestoreRefusesAlteredCut(t *testing.T) {
	cfg := genima.DefaultConfig()
	a, _ := appByName(t, "fft")
	st := ckptHalt(t, cfg, genima.GeNIMA, a, 2)
	for _, c := range []struct {
		name  string
		alter func(st *genima.Checkpoint)
	}{
		{"PrefixSum", func(st *genima.Checkpoint) { st.PrefixSum[0] ^= 1 }},
		{"StateDigest", func(st *genima.Checkpoint) { st.StateDigest ^= 1 }},
		{"SimTime", func(st *genima.Checkpoint) { st.SimTime++ }},
		{"Events", func(st *genima.Checkpoint) { st.Events++ }},
		{"TraceEvents", func(st *genima.Checkpoint) { st.TraceEvents += 1 << 40 }},
	} {
		bad := *st
		c.alter(&bad)
		_, err := genima.RunCheckpointed(cfg, genima.GeNIMA, a, genima.CheckpointOptions{
			Every: 50, Scale: "test", Restore: &bad,
		})
		if err == nil || !strings.Contains(err.Error(), "diverged") {
			t.Errorf("restore with altered %s: err = %v, want a divergence at the cut", c.name, err)
		}
	}
}
