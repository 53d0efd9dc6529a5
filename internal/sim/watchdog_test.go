package sim

import (
	"strings"
	"testing"
)

// A cluster whose backlog never drains must trip the progress watchdog
// with per-LP diagnostics instead of spinning commit-only passes
// forever. The stall is synthesized by claiming an uncommitted log
// entry that no LP actually holds: every round is then a no-op barrier
// pass with an unchanged progress signature.
func TestWatchdogTripsOnStalledCluster(t *testing.T) {
	cl := NewCluster(4, 2, 1, 10, 10)
	cl.SetWatchdog(50)
	cl.exec = true
	cl.pending = 1 // synthetic: backlog that can never commit

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run returned; want watchdog panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("recovered %T (%v); want string", r, r)
		}
		for _, want := range []string{"watchdog", "no progress in 50 rounds", "shard LP 0", "shard LP 1", "fabric LP", "horizons:"} {
			if !strings.Contains(msg, want) {
				t.Errorf("watchdog panic missing %q:\n%s", want, msg)
			}
		}
	}()
	cl.Run()
}

// A healthy run must never trip the watchdog, even with a tiny
// threshold: every productive round changes the progress signature.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	cl := NewCluster(2, 2, 2, 10, 10)
	cl.SetWatchdog(2)
	eng := cl.Main()
	other := eng.LPNode(1)
	var got int
	// Ping-pong a handler between the two shard LPs via plain events.
	var ping func(e *Engine, depth int)
	ping = func(e *Engine, depth int) {
		got++
		if depth == 0 {
			return
		}
		to := other
		if e == other {
			to = eng
		}
		e.Send(to, e.Now()+10, e.Now(), handlerFunc(func(_, _ Time) { ping(to, depth-1) }))
	}
	schedule(eng, 0, func() { ping(eng, 100) })
	cl.Run()
	if got != 101 {
		t.Fatalf("executed %d pings, want 101", got)
	}
}

// Two engines that execute the same schedule must produce the same
// digest; diverging by one event must change it.
func TestEngineDigestDeterminism(t *testing.T) {
	build := func(extra bool) uint64 {
		e := NewEngine()
		schedule(e, 5, func() { schedule(e, e.Now()+7, func() {}) })
		schedule(e, 9, func() {})
		e.Run(6) // leave events in the heap so the digest covers them
		if extra {
			schedule(e, 11, func() {})
		}
		d := NewDigest()
		e.DigestInto(d)
		return d.Sum()
	}
	a, b := build(false), build(false)
	if a != b {
		t.Fatalf("identical runs digest differently: %#x vs %#x", a, b)
	}
	if c := build(true); c == a {
		t.Fatalf("divergent run digests equal: %#x", c)
	}
}
