// Package checkpoint implements deterministic checkpoint/restore for
// soak-scale simulation runs.
//
// A Go simulation whose compute processors are goroutines cannot
// serialize their stacks, so a checkpoint is not a byte image of the
// process. Instead it records the *cut point* of a deterministic run —
// the number of trace events emitted, the SHA-256 of the canonical
// trace prefix, the virtual clock, the engine event count, and a digest
// of the live simulator state (event heaps, pools, version-vector
// tables, protocol process queues, reliable-delivery flows, fault
// cursors, collective trees; see the DigestInto methods across
// internal/...) — plus everything needed to rebuild the run from its
// inputs. Restore re-executes the run from event zero with trace
// emission suppressed up to the cut, verifies that the replayed prefix
// reproduces the recorded prefix sum (and, when the execution mode
// matches, the virtual clock, the event count and the state digest),
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
	// versions: the payload layout is not self-describing. Version 1
	// stored the trace hash's midstate where version 2 stores its sum.
	Version = uint32(2)
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
// parallel run's LPs run ahead to the round horizon before its boundary
// hooks run, so its live state at trace event k legitimately differs
// from a serial run's).
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
	TraceEvents uint64   // trace events emitted before the cut
	SimTime     int64    // virtual clock at the cut
	Events      uint64   // engine events executed at the cut
	StateDigest uint64   // sim/nic/core/memory/faults live-state digest
	PrefixSum   [32]byte // SHA-256 of the canonical trace prefix

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

// Identity is the identity of a run (or soak campaign) of cfg: its
// ConfigSum, app, protocol and scale, which a restore must match, and
// the execution mode it runs under: the worker count and the shard
// count, one per worker clamped to Nodes as sim.NewCluster does (0
// shards on the serial path, which builds no cluster at all). A save
// starts from it; CompatibleWith and SameMode check against it.
func Identity(cfg *topo.Config, app, proto, scale string) *State {
	id := &State{ConfigSum: ConfigSum(cfg), App: app, Proto: proto, Scale: scale, ModeWorkers: 1}
	if cfg.IntraRunWorkers > 1 && cfg.Nodes > 1 {
		id.ModeWorkers, id.ModeShards = cfg.IntraRunWorkers, min(cfg.IntraRunWorkers, cfg.Nodes)
	}
	return id
}

// CompatibleWith checks that a loaded checkpoint belongs to the run the
// caller is about to rebuild, whose Identity is id, returning a
// descriptive error naming the first mismatched dimension.
func (st *State) CompatibleWith(id *State) error {
	if id.ConfigSum != st.ConfigSum {
		return fmt.Errorf("checkpoint: config mismatch (checkpoint %x..., current %x...)", st.ConfigSum[:4], id.ConfigSum[:4])
	}
	if id.App != st.App {
		return fmt.Errorf("checkpoint: app mismatch (checkpoint %q, current %q)", st.App, id.App)
	}
	if id.Proto != st.Proto {
		return fmt.Errorf("checkpoint: protocol mismatch (checkpoint %q, current %q)", st.Proto, id.Proto)
	}
	if id.Scale != st.Scale {
		return fmt.Errorf("checkpoint: scale mismatch (checkpoint %q, current %q)", st.Scale, id.Scale)
	}
	return nil
}

// SameMode reports whether the checkpoint was taken under id's
// execution mode — the gate for comparing StateDigest.
func (st *State) SameMode(id *State) bool {
	return st.ModeWorkers == id.ModeWorkers && st.ModeShards == id.ModeShards
}

// --- payload encoding -------------------------------------------------

// field is one payload entry: its name for error messages and a pointer
// to the State field it carries.
type field struct {
	name string
	p    any
}

// fields is the payload layout, in wire order; encode and decode both
// walk it. Every entry starts with one little-endian 8-byte word:
// integers are that word, while strings and digests are a length word
// followed by their bytes.
func (st *State) fields() []field {
	return []field{
		{"ConfigSum", &st.ConfigSum},
		{"App", &st.App},
		{"Proto", &st.Proto},
		{"Scale", &st.Scale},
		{"ModeWorkers", &st.ModeWorkers},
		{"ModeShards", &st.ModeShards},
		{"TraceEvents", &st.TraceEvents},
		{"SimTime", &st.SimTime},
		{"Events", &st.Events},
		{"StateDigest", &st.StateDigest},
		{"PrefixSum", &st.PrefixSum},
		{"SoakIter", &st.SoakIter},
		{"SoakEvents", &st.SoakEvents},
		{"SoakChain", &st.SoakChain},
		{"Note", &st.Note},
	}
}

func (st *State) encode() []byte {
	var b []byte
	le := binary.LittleEndian
	for _, f := range st.fields() {
		switch p := f.p.(type) {
		case *uint64:
			b = le.AppendUint64(b, *p)
		case *int64:
			b = le.AppendUint64(b, uint64(*p))
		case *int:
			b = le.AppendUint64(b, uint64(*p))
		case *string:
			b = append(le.AppendUint64(b, uint64(len(*p))), *p...)
		case *[32]byte:
			b = append(le.AppendUint64(b, uint64(len(p))), p[:]...)
		}
	}
	return b
}

func (st *State) decode(b []byte) error {
	for _, f := range st.fields() {
		if len(b) < 8 {
			return fmt.Errorf("%w: field %s truncated", ErrCorrupt, f.name)
		}
		w := binary.LittleEndian.Uint64(b)
		b = b[8:]
		switch p := f.p.(type) {
		case *uint64:
			*p = w
		case *int64:
			*p = int64(w)
		case *int:
			*p = int(w)
		default: // w is the length of the bytes that follow
			if uint64(len(b)) < w {
				return fmt.Errorf("%w: field %s truncated", ErrCorrupt, f.name)
			}
			v := b[:w]
			b = b[w:]
			switch p := p.(type) {
			case *string:
				*p = string(v)
			case *[32]byte:
				if len(v) != len(p) {
					return fmt.Errorf("%w: field %s is %d bytes", ErrCorrupt, f.name, len(v))
				}
				copy(p[:], v)
			}
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(b))
	}
	return nil
}
