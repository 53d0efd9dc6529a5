package checkpoint

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"genima/internal/nic"
	"genima/internal/topo"
)

func sampleState() *State {
	st := &State{
		App: "fft", Proto: "GeNIMA", Scale: "test",
		ModeWorkers: 4, ModeShards: 2,
		TraceEvents: 12345, SimTime: 987654321, Events: 400000,
		StateDigest: 0xdeadbeefcafef00d,
		HashState:   []byte{1, 2, 3, 4, 5},
		SoakIter:    7, SoakEvents: 1 << 30,
		Note: "unit test",
	}
	cfg := topo.Default()
	st.ConfigSum = ConfigSum(&cfg)
	for i := range st.SoakChain {
		st.SoakChain[i] = byte(i)
	}
	return st
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	want := sampleState()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ConfigSum != want.ConfigSum || got.App != want.App || got.Proto != want.Proto ||
		got.Scale != want.Scale || got.ModeWorkers != want.ModeWorkers || got.ModeShards != want.ModeShards ||
		got.TraceEvents != want.TraceEvents || got.SimTime != want.SimTime || got.Events != want.Events ||
		got.StateDigest != want.StateDigest || got.SoakIter != want.SoakIter ||
		got.SoakEvents != want.SoakEvents || got.SoakChain != want.SoakChain || got.Note != want.Note {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if string(got.HashState) != string(want.HashState) {
		t.Fatalf("HashState mismatch: %v vs %v", got.HashState, want.HashState)
	}
}

// Every single-byte flip anywhere in the file must be rejected (the
// whole-file checksum covers header and payload; flips inside the
// trailer invalidate the checksum itself).
func TestLoadRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Stride through the file; every position must be caught.
	for pos := 0; pos < len(raw); pos += 7 {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Fatalf("flip at byte %d loaded cleanly", pos)
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 8, 15, 16, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, sampleState()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[4] = 99 // version word
	// Refresh the trailer so ONLY the version check can reject it.
	sum := sha256.Sum256(raw[:len(raw)-sha256.Size])
	copy(raw[len(raw)-sha256.Size:], sum[:])
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

func TestCompatibleWith(t *testing.T) {
	st := sampleState()
	cfg := topo.Default()
	if err := st.CompatibleWith(&cfg, "fft", "GeNIMA", "test"); err != nil {
		t.Fatalf("matching run rejected: %v", err)
	}
	if err := st.CompatibleWith(&cfg, "lu", "GeNIMA", "test"); err == nil {
		t.Fatal("app mismatch accepted")
	}
	other := topo.Default()
	other.Nodes = 16
	if err := st.CompatibleWith(&other, "fft", "GeNIMA", "test"); err == nil {
		t.Fatal("config mismatch accepted")
	}
	// The mode field must NOT participate in ConfigSum: a checkpoint can
	// be restored under a different -jrun.
	modal := topo.Default()
	modal.IntraRunWorkers = 8
	if err := st.CompatibleWith(&modal, "fft", "GeNIMA", "test"); err != nil {
		t.Fatalf("mode-only config change rejected: %v", err)
	}
}

// A hasher restored from a midstate snapshot must finish with exactly
// the hash an uninterrupted hasher produces.
func TestTraceHasherMidstateResume(t *testing.T) {
	evs := make([]nic.TraceEvent, 50)
	for i := range evs {
		evs[i] = nic.TraceEvent{Time: int64(1000 * i), Src: i % 4, Dst: (i + 1) % 4,
			Size: 64 + i, Kind: "page-req", Firmware: i%2 == 0}
	}
	straight := NewTraceHasher()
	for _, ev := range evs {
		straight.Add(ev)
	}
	want := straight.Final(777777, 999)

	first := NewTraceHasher()
	for _, ev := range evs[:20] {
		first.Add(ev)
	}
	snap, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed := NewTraceHasher()
	if err := resumed.Restore(snap, first.Count()); err != nil {
		t.Fatal(err)
	}
	if resumed.Count() != 20 {
		t.Fatalf("resumed count %d, want 20", resumed.Count())
	}
	for _, ev := range evs[20:] {
		resumed.Add(ev)
	}
	if got := resumed.Final(777777, 999); got != want {
		t.Fatalf("resumed hash %s, want %s", got, want)
	}
}
