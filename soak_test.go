package genima_test

import (
	"path/filepath"
	"testing"

	genima "genima"
)

// stopAfter returns a SoakOptions.ShouldStop that halts a campaign
// after n iterations: Soak polls once before each iteration.
func stopAfter(n int) func() bool {
	polls := 0
	return func() bool { polls++; return polls > n }
}

// A soak campaign halted mid-way and resumed from its checkpoint cursor
// must end with the same verification chain as an uninterrupted one,
// and its two halves must emit exactly one record per iteration.
func TestSoakResumeMatchesUninterrupted(t *testing.T) {
	cfg := genima.DefaultConfig()
	base := genima.SoakOptions{Iters: 5, FaultRate: 0.01, FaultSeed: 3}

	full, err := genima.Soak(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if full.Interrupted || full.Iters != 5 {
		t.Fatalf("uninterrupted campaign: %+v", full)
	}

	ck := filepath.Join(t.TempDir(), "soak.ckpt")
	var iters []uint64
	emit := func(r genima.SoakRecord) { iters = append(iters, r.Iter) }

	first := base
	first.CheckpointPath, first.Emit, first.ShouldStop = ck, emit, stopAfter(2)
	r1, err := genima.Soak(cfg, first)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Interrupted || r1.Iters != 2 {
		t.Fatalf("stop-after-2 campaign: %+v", r1)
	}
	if r1.Chain == full.Chain {
		t.Fatal("partial chain equals full chain")
	}

	st, err := genima.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	if st.SoakIter != 2 {
		t.Fatalf("checkpoint cursor at iteration %d, want 2", st.SoakIter)
	}
	second := base
	second.CheckpointPath, second.Emit, second.Restore = ck, emit, st
	r2, err := genima.Soak(cfg, second)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Interrupted || r2.Iters != 5 {
		t.Fatalf("resumed campaign: %+v", r2)
	}
	if r2.Chain != full.Chain {
		t.Errorf("resumed chain %s != uninterrupted %s", r2.Chain, full.Chain)
	}
	if r2.Events != full.Events {
		t.Errorf("resumed events %d != uninterrupted %d", r2.Events, full.Events)
	}

	// The two halves emit all 5 iterations exactly once, in order.
	if len(iters) != 5 {
		t.Fatalf("emitted %d records, want 5", len(iters))
	}
	for i, it := range iters {
		if it != uint64(i) {
			t.Fatalf("record %d has iter %d", i, it)
		}
	}
}

// Restoring a soak checkpoint under different campaign parameters must
// be rejected: a silently diverging chain would be worse than an error.
func TestSoakRestoreRejectsParameterMismatch(t *testing.T) {
	cfg := genima.DefaultConfig()
	dir := t.TempDir()
	ck := filepath.Join(dir, "soak.ckpt")
	opts := genima.SoakOptions{Iters: 3, FaultRate: 0.01, FaultSeed: 3, CheckpointPath: ck, ShouldStop: stopAfter(1)}
	if _, err := genima.Soak(cfg, opts); err != nil {
		t.Fatal(err)
	}
	st, err := genima.LoadCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.Restore = st
	bad.FaultRate = 0.05
	if _, err := genima.Soak(cfg, bad); err == nil {
		t.Error("fault-rate change accepted on restore")
	}
	badCfg := cfg
	badCfg.Nodes = 8
	good := opts
	good.Restore = st
	if _, err := genima.Soak(badCfg, good); err == nil {
		t.Error("config change accepted on restore")
	}
}

// The campaign needs at least one bound, or it would run forever.
func TestSoakRequiresBound(t *testing.T) {
	if _, err := genima.Soak(genima.DefaultConfig(), genima.SoakOptions{}); err == nil {
		t.Fatal("unbounded soak accepted")
	}
}
