// Package checkpoint implements deterministic checkpoint/restore for
// soak-scale simulation runs.
//
// A Go simulation whose compute processors are goroutines cannot
// serialize their stacks, so a checkpoint is not a byte image of the
// process. Instead it records the *cut point* of a deterministic run —
// the number of trace events emitted, the SHA-256 midstate of the
// canonical trace prefix, the virtual clock, and a digest of the live
// simulator state (event heaps, pools, version-vector tables, protocol
// process queues, reliable-delivery flows, fault cursors, collective trees;
// see the DigestInto methods across internal/...) — plus everything
// needed to rebuild the run from its inputs. Restore re-executes the
// run from event zero with trace emission suppressed up to the cut,
// verifies that the replayed prefix reproduces the recorded hash
// midstate (and, when the execution mode matches, the state digest),
// and then continues normally. The resumed trace is byte-identical to
// an uninterrupted run by construction, and the verification turns "by
// construction" into a checked invariant. Soak mode (genima.Soak)
// checkpoints at run boundaries, where no goroutine state is live at
// all, so its restores are true O(1) cursor seeks.
//
// The on-disk format is versioned and checksummed: a fixed header
// (magic, format version, payload length), a field-wise binary payload,
// and a whole-file SHA-256 trailer. Files are written to a temp path
// and renamed into place, so a crash mid-write never leaves a partial
// checkpoint under the real name.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"genima/internal/topo"
)

// Format constants.
const (
	// Magic identifies a genima checkpoint file.
	Magic = uint32(0x474e434b) // "GNCK"
	// Version is the current format version. Load rejects other
	// versions: the payload layout is not self-describing.
	Version = uint32(1)
)

// Sentinel errors, matchable with errors.Is.
var (
	ErrCorrupt = errors.New("checkpoint: corrupt file")
	ErrVersion = errors.New("checkpoint: unsupported format version")
)

// State is everything a checkpoint records. Mode fields capture the
// execution mode the checkpoint was taken under; the trace stream is
// mode-independent, so a restore may run under a different mode, but
// the live-state digest is only comparable when the mode matches (a
// parallel run's deferred-commit backlog makes its live state at trace
// event k legitimately differ from a serial run's).
type State struct {
	// Run identity.
	ConfigSum [32]byte // ConfigSum(cfg): the topology/cost/fault fingerprint
	App       string
	Proto     string
	Scale     string

	// Execution mode at checkpoint time.
	ModeWorkers int
	ModeShards  int

	// Cut point.
	TraceEvents uint64 // trace events emitted before the cut
	SimTime     int64  // virtual clock at the cut
	Events      uint64 // engine events executed at the cut
	StateDigest uint64 // sim/nic/core/memory/faults live-state digest
	HashState   []byte // SHA-256 midstate of the canonical trace prefix

	// Soak-mode cursor (zero outside soak runs).
	SoakIter   uint64   // completed soak iterations
	SoakEvents uint64   // cumulative events across completed iterations
	SoakChain  [32]byte // chained hash over completed iterations

	// Note is free-form context (which signal triggered the write, ...).
	Note string
}

// ConfigSum fingerprints a cluster configuration for restore-time
// compatibility checking. The execution-mode field IntraRunWorkers is
// zeroed first: it changes how the run is executed, not what it
// computes, and a checkpoint taken under one mode may be restored under
// another.
func ConfigSum(cfg *topo.Config) [32]byte {
	c := *cfg
	c.IntraRunWorkers = 0
	return sha256.Sum256([]byte(fmt.Sprintf("%#v", c)))
}

// Save writes st to path atomically: temp file in the same directory,
// fsync, rename. The resulting file carries a whole-file SHA-256
// trailer that Load verifies.
func Save(path string, st *State) error {
	payload := st.encode()
	head := make([]byte, 16)
	binary.LittleEndian.PutUint32(head[0:], Magic)
	binary.LittleEndian.PutUint32(head[4:], Version)
	binary.LittleEndian.PutUint64(head[8:], uint64(len(payload)))
	h := sha256.New()
	h.Write(head)
	h.Write(payload)
	sum := h.Sum(nil)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	for _, chunk := range [][]byte{head, payload, sum} {
		if _, err := tmp.Write(chunk); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, path)
}

// Load reads and verifies a checkpoint file.
func Load(path string) (*State, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 16+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes, below minimum", ErrCorrupt, len(raw))
	}
	if got := binary.LittleEndian.Uint32(raw[0:]); got != Magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, got)
	}
	if got := binary.LittleEndian.Uint32(raw[4:]); got != Version {
		return nil, fmt.Errorf("%w: file is v%d, this build reads v%d", ErrVersion, got, Version)
	}
	plen := binary.LittleEndian.Uint64(raw[8:])
	if plen != uint64(len(raw)-16-sha256.Size) {
		return nil, fmt.Errorf("%w: payload length %d does not match file size %d", ErrCorrupt, plen, len(raw))
	}
	body := raw[:16+plen]
	want := raw[16+plen:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(want) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	st := &State{}
	if err := st.decode(body[16:]); err != nil {
		return nil, err
	}
	return st, nil
}

// CompatibleWith checks that a loaded checkpoint belongs to the run the
// caller is about to rebuild, returning a descriptive error naming the
// first mismatched dimension.
func (st *State) CompatibleWith(cfg *topo.Config, app, proto, scale string) error {
	if sum := ConfigSum(cfg); sum != st.ConfigSum {
		return fmt.Errorf("checkpoint: config mismatch (checkpoint %x..., current %x...)", st.ConfigSum[:4], sum[:4])
	}
	if app != st.App {
		return fmt.Errorf("checkpoint: app mismatch (checkpoint %q, current %q)", st.App, app)
	}
	if proto != st.Proto {
		return fmt.Errorf("checkpoint: protocol mismatch (checkpoint %q, current %q)", st.Proto, proto)
	}
	if scale != st.Scale {
		return fmt.Errorf("checkpoint: scale mismatch (checkpoint %q, current %q)", st.Scale, scale)
	}
	return nil
}

// SameMode reports whether the checkpoint was taken under the given
// execution mode — the gate for comparing StateDigest.
func (st *State) SameMode(workers, shards int) bool {
	return st.ModeWorkers == workers && st.ModeShards == shards
}

// --- payload encoding -------------------------------------------------

type encoder struct{ b []byte }

func (e *encoder) u64(v uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	e.b = append(e.b, w[:]...)
}

func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *encoder) str(s string) { e.bytes([]byte(s)) }

type decoder struct{ b []byte }

func (d *decoder) u64() (uint64, error) {
	if len(d.b) < 8 {
		return 0, fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v, nil
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.b)) < n {
		return nil, fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

func (st *State) encode() []byte {
	var e encoder
	e.bytes(st.ConfigSum[:])
	e.str(st.App)
	e.str(st.Proto)
	e.str(st.Scale)
	e.u64(uint64(st.ModeWorkers))
	e.u64(uint64(st.ModeShards))
	e.u64(st.TraceEvents)
	e.u64(uint64(st.SimTime))
	e.u64(st.Events)
	e.u64(st.StateDigest)
	e.bytes(st.HashState)
	e.u64(st.SoakIter)
	e.u64(st.SoakEvents)
	e.bytes(st.SoakChain[:])
	e.str(st.Note)
	return e.b
}

func (st *State) decode(payload []byte) error {
	d := decoder{b: payload}
	fail := func(field string, err error) error {
		return fmt.Errorf("checkpoint: field %s: %w", field, err)
	}
	b, err := d.bytes()
	if err != nil {
		return fail("ConfigSum", err)
	}
	if len(b) != len(st.ConfigSum) {
		return fmt.Errorf("%w: ConfigSum is %d bytes", ErrCorrupt, len(b))
	}
	copy(st.ConfigSum[:], b)
	if st.App, err = d.str(); err != nil {
		return fail("App", err)
	}
	if st.Proto, err = d.str(); err != nil {
		return fail("Proto", err)
	}
	if st.Scale, err = d.str(); err != nil {
		return fail("Scale", err)
	}
	var v uint64
	if v, err = d.u64(); err != nil {
		return fail("ModeWorkers", err)
	}
	st.ModeWorkers = int(v)
	if v, err = d.u64(); err != nil {
		return fail("ModeShards", err)
	}
	st.ModeShards = int(v)
	if st.TraceEvents, err = d.u64(); err != nil {
		return fail("TraceEvents", err)
	}
	if v, err = d.u64(); err != nil {
		return fail("SimTime", err)
	}
	st.SimTime = int64(v)
	if st.Events, err = d.u64(); err != nil {
		return fail("Events", err)
	}
	if st.StateDigest, err = d.u64(); err != nil {
		return fail("StateDigest", err)
	}
	if st.HashState, err = d.bytes(); err != nil {
		return fail("HashState", err)
	}
	if st.SoakIter, err = d.u64(); err != nil {
		return fail("SoakIter", err)
	}
	if st.SoakEvents, err = d.u64(); err != nil {
		return fail("SoakEvents", err)
	}
	if b, err = d.bytes(); err != nil {
		return fail("SoakChain", err)
	}
	if len(b) != len(st.SoakChain) {
		return fmt.Errorf("%w: SoakChain is %d bytes", ErrCorrupt, len(b))
	}
	copy(st.SoakChain[:], b)
	if st.Note, err = d.str(); err != nil {
		return fail("Note", err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.b))
	}
	return nil
}
