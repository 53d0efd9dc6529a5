package genima

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"genima/internal/apps"
	"genima/internal/checkpoint"
)

// SoakRecord is one soak iteration's stats record. Everything the
// verification chain covers (trace hash, events, elapsed) is
// deterministic; wall-clock and heap figures are operational telemetry
// and deliberately excluded from the chain.
type SoakRecord struct {
	Iter        uint64 `json:"iter"`
	App         string `json:"app"`
	Proto       string `json:"proto"`
	FaultSeed   uint64 `json:"fault_seed,omitempty"`
	Events      uint64 `json:"events"`
	CumEvents   uint64 `json:"cum_events"`
	ElapsedNS   int64  `json:"elapsed_ns"`
	TraceEvents uint64 `json:"trace_events"`
	TraceHash   string `json:"trace_hash"`
	Chain       string `json:"chain"`
	WallMS      int64  `json:"wall_ms"`
	HeapBytes   uint64 `json:"heap_bytes"`
}

// SoakOptions configures a Soak campaign. At least one of TargetEvents
// and Iters must be set.
type SoakOptions struct {
	// Scale is the problem scale per iteration: "test" (default, runs
	// the whole ladder in seconds) or "bench".
	Scale string
	// TargetEvents stops the campaign once cumulative engine events
	// reach this total (0 = bound by Iters alone).
	TargetEvents uint64
	// Iters caps the number of iterations (0 = bound by TargetEvents
	// alone).
	Iters uint64
	// CheckpointPath is where the rolling iteration-cursor checkpoint
	// goes ("" disables). Soak checkpoints at run boundaries, where no
	// simulation state is live, so restores are O(1) cursor seeks.
	CheckpointPath string
	// Restore resumes a campaign from its checkpoint cursor.
	Restore *Checkpoint
	// FaultRate enables FaultMix fault injection per iteration, seeded
	// FaultSeed+iter so every iteration explores a distinct fault
	// pattern deterministically (0 = fault-free).
	FaultRate float64
	FaultSeed uint64
	// ShouldStop is polled once before each iteration; returning true
	// writes a checkpoint and halts gracefully (the signal hook).
	ShouldStop func() bool
	// Emit observes each iteration's record, in iteration order (a
	// stats log, for example); a restored campaign emits only the
	// iterations it runs itself.
	Emit func(SoakRecord)
}

// SoakResult is a Soak campaign's outcome.
type SoakResult struct {
	// Iters counts completed iterations over the whole campaign,
	// including iterations restored from a checkpoint.
	Iters uint64
	// Events is the cumulative engine-event total.
	Events uint64
	// Chain is the hex chained hash over all completed iterations:
	// chain' = SHA-256(chain || traceHash || events || elapsed). Equal
	// chains prove two campaigns (interrupted+restored vs.
	// uninterrupted) executed identical simulations.
	Chain string
	// Interrupted reports a graceful halt via ShouldStop; the
	// checkpoint on disk resumes the campaign.
	Interrupted bool
}

// Soak runs an unattended long-run campaign: iterations cycle through
// the application suite and the protocol ladder, each under a fresh
// deterministic fault seed, chaining every run's canonical trace hash
// into a campaign-wide verification chain. Each iteration is a
// checkpointed run (RunCheckpointed, so it executes serially and its
// trace hash comes from the same producer as every other run's),
// validated against a sequential reference. A reference depends only on
// the app, the scale and the cluster shape, so each app's is computed
// once per campaign, when the app first comes up, and kept. Memory
// stays bounded: each iteration's simulation is dropped before the next
// begins, one reference is kept per app, and stats stream out through Emit
// instead of accumulating. The iteration recipe is a pure function of
// the iteration index, so a campaign restored from its checkpoint
// cursor produces the same chain as an uninterrupted one.
func Soak(cfg Config, opts SoakOptions) (*SoakResult, error) {
	if opts.TargetEvents == 0 && opts.Iters == 0 {
		return nil, fmt.Errorf("soak: need TargetEvents or Iters")
	}
	scaleName := opts.Scale
	if scaleName == "" {
		scaleName = "test"
	}
	scale, err := apps.ParseScale(scaleName)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	// Campaign identity: the base config with per-iteration fault plans
	// cleared (they are derived from the iteration index), plus the
	// fault parameters folded into the protocol label so a restore with
	// different fault settings is rejected rather than silently
	// diverging the chain.
	base := cfg
	base.Faults = FaultPlan{}
	ident := fmt.Sprintf("ladder/faults=%g/seed=%d", opts.FaultRate, opts.FaultSeed)

	id := checkpoint.Identity(&base, "soak", ident, scaleName)
	var iter, cum uint64
	var chain [32]byte
	if st := opts.Restore; st != nil {
		if err := st.CompatibleWith(id); err != nil {
			return nil, err
		}
		iter, cum, chain = st.SoakIter, st.SoakEvents, st.SoakChain
	}
	writeCkpt := func(note string) error {
		if opts.CheckpointPath == "" {
			return nil
		}
		ck := *id
		ck.SoakIter, ck.SoakEvents, ck.SoakChain, ck.Note = iter, cum, chain, note
		return checkpoint.Save(opts.CheckpointPath, &ck)
	}
	result := func(interrupted bool) *SoakResult {
		return &SoakResult{Iters: iter, Events: cum, Chain: hex.EncodeToString(chain[:]), Interrupted: interrupted}
	}
	names := soakApps(scale)
	ladder := Protocols()
	refs := make(map[string]*Workspace, len(names))
	for {
		if opts.Iters > 0 && iter >= opts.Iters {
			break
		}
		if opts.TargetEvents > 0 && cum >= opts.TargetEvents {
			break
		}
		if opts.ShouldStop != nil && opts.ShouldStop() {
			if err := writeCkpt("stop"); err != nil {
				return nil, err
			}
			return result(true), nil
		}

		name, proto := soakPick(iter, names, ladder)
		c := cfg
		var seed uint64
		if opts.FaultRate > 0 {
			seed = opts.FaultSeed + iter
			c.Faults = FaultMix(opts.FaultRate, seed)
		}
		mk := func() App { e, _ := apps.ByName(scale, name); return e.App }
		t0 := time.Now()
		ref, ok := refs[name]
		if !ok {
			if _, ref, err = RunSequential(cfg, mk()); err != nil {
				return nil, fmt.Errorf("soak reference (%s): %w", name, err)
			}
			refs[name] = ref
		}
		a := mk()
		cr, err := RunCheckpointed(c, proto, a, CheckpointOptions{})
		if err == nil {
			err = Validate(a, cr.WS, ref)
		}
		if err != nil {
			return nil, fmt.Errorf("soak iteration %d (%s on %s): %w", iter, name, proto, err)
		}
		res := cr.Res
		wall := time.Since(t0)

		h := sha256.New()
		h.Write(chain[:])
		io.WriteString(h, cr.TraceHash)
		var w [16]byte
		binary.LittleEndian.PutUint64(w[:8], res.Events)
		binary.LittleEndian.PutUint64(w[8:], uint64(res.Elapsed))
		h.Write(w[:])
		copy(chain[:], h.Sum(nil))

		iter++
		cum += res.Events

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rec := SoakRecord{
			Iter: iter - 1, App: name, Proto: proto.String(), FaultSeed: seed,
			Events: res.Events, CumEvents: cum, ElapsedNS: int64(res.Elapsed),
			TraceEvents: cr.TraceEvents, TraceHash: cr.TraceHash,
			Chain:  hex.EncodeToString(chain[:8]),
			WallMS: wall.Milliseconds(), HeapBytes: ms.HeapAlloc,
		}
		if opts.Emit != nil {
			opts.Emit(rec)
		}
		if err := writeCkpt("rolling"); err != nil {
			return nil, err
		}
	}
	if err := writeCkpt("complete"); err != nil {
		return nil, err
	}
	return result(false), nil
}

// soakApps is the soak rotation's app list: the SPLASH suite plus the
// svmkv serving workload (registered by name only, so the suite
// goldens stay put).
func soakApps(scale apps.Scale) []string {
	return append(apps.Names(scale), "svmkv")
}

// soakPick returns iteration iter's (app, protocol): apps rotate
// slowly and the ladder quickly, so every pair recurs, each time under
// a fresh fault seed.
func soakPick(iter uint64, names []string, ladder []Protocol) (string, Protocol) {
	return names[(iter/uint64(len(ladder)))%uint64(len(names))], ladder[iter%uint64(len(ladder))]
}
