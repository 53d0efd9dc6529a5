package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
		SoakIter:    7, SoakEvents: 1 << 30,
		Note: "unit test",
	}
	cfg := topo.Default()
	st.ConfigSum = ConfigSum(&cfg)
	for i := range st.SoakChain {
		st.SoakChain[i] = byte(i)
		st.PrefixSum[i] = byte(100 + i)
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
		got.StateDigest != want.StateDigest || got.PrefixSum != want.PrefixSum || got.SoakIter != want.SoakIter ||
		got.SoakEvents != want.SoakEvents || got.SoakChain != want.SoakChain || got.Note != want.Note {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestLoadV2File reads a v2 file written by an earlier build (the
// FuzzLoad corpus's valid seed) and checks every decoded field against
// the values it was saved with, then that Save writes the same bytes.
// A round trip through this build alone cannot catch two fields that
// swap places on the wire, since Save and Load would swap them alike.
func TestLoadV2File(t *testing.T) {
	seed, err := os.ReadFile("testdata/fuzz/FuzzLoad/valid")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(seed)), "\n")
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
	file, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("corpus entry is not a quoted []byte: %v", err)
	}
	path := filepath.Join(t.TempDir(), "v2.ckpt")
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	want := &State{
		App: "fft", Proto: "GeNIMA", Scale: "test",
		ModeWorkers: 4, ModeShards: 2,
		TraceEvents: 12345, SimTime: 987654321, Events: 400000,
		StateDigest: 0xdeadbeefcafef00d,
		SoakIter:    7, SoakEvents: 1 << 30,
		Note: "unit test",
	}
	sum, _ := hex.DecodeString("bf78f6c6e1ebac7439da481f1e9f861c98e30c51b10fd3acde0c50a7e144cc0f")
	copy(want.ConfigSum[:], sum)
	for i := range want.SoakChain {
		want.SoakChain[i] = byte(i)
		want.PrefixSum[i] = byte(100 + i)
	}
	if *got != *want {
		t.Fatalf("v2 file decoded wrong:\n got %+v\nwant %+v", got, want)
	}

	out := filepath.Join(t.TempDir(), "out.ckpt")
	if err := Save(out, got); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, []byte(file)) {
		t.Fatalf("Save does not reproduce the v2 file\nfile: %x\n got: %x", file, back)
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
	if err := st.CompatibleWith(Identity(&cfg, "fft", "GeNIMA", "test")); err != nil {
		t.Fatalf("matching run rejected: %v", err)
	}
	if err := st.CompatibleWith(Identity(&cfg, "lu", "GeNIMA", "test")); err == nil {
		t.Fatal("app mismatch accepted")
	}
	other := topo.Default()
	other.Nodes = 16
	if err := st.CompatibleWith(Identity(&other, "fft", "GeNIMA", "test")); err == nil {
		t.Fatal("config mismatch accepted")
	}
	// The mode field must NOT participate in ConfigSum: a checkpoint can
	// be restored under a different -jrun.
	modal := topo.Default()
	modal.IntraRunWorkers = 8
	if err := st.CompatibleWith(Identity(&modal, "fft", "GeNIMA", "test")); err != nil {
		t.Fatalf("mode-only config change rejected: %v", err)
	}
}

// Taking a PrefixSum mid-stream must not disturb the running hash, and
// two hashers' prefix sums agree exactly when they folded the same
// events: a restore's verification rests on both.
func TestTraceHasherPrefixSum(t *testing.T) {
	evs := make([]nic.TraceEvent, 50)
	for i := range evs {
		evs[i] = nic.TraceEvent{Time: int64(1000 * i), Src: i % 4, Dst: (i + 1) % 4,
			Size: 64 + i, Kind: "page-req", Firmware: i%2 == 0}
	}
	straight, probed := NewTraceHasher(), NewTraceHasher()
	for _, ev := range evs {
		straight.Add(ev)
		probed.Add(ev)
		probed.PrefixSum()
	}
	if got, want := probed.Final(777777, 999), straight.Final(777777, 999); got != want {
		t.Fatalf("probed hash %s, want %s", got, want)
	}

	a, b := NewTraceHasher(), NewTraceHasher()
	for _, ev := range evs[:20] {
		a.Add(ev)
		b.Add(ev)
	}
	if a.PrefixSum() != b.PrefixSum() {
		t.Fatal("equal prefixes have different sums")
	}
	b.Add(evs[20])
	if a.PrefixSum() == b.PrefixSum() {
		t.Fatal("a longer prefix has the same sum")
	}
}
