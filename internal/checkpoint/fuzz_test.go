package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode feeds arbitrary payloads to the decoder. Whatever the
// bytes, decode must not panic: it either fails with an error wrapping
// ErrCorrupt, or it succeeds and encode reproduces the payload byte for
// byte, since the format has exactly one encoding per State. The seed
// corpus in testdata/fuzz/FuzzDecode holds a valid payload, a truncated
// one and one whose first length prefix is huge.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var st State
		if err := st.decode(payload); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %q does not wrap ErrCorrupt", err)
			}
			return
		}
		if got := st.encode(); !bytes.Equal(got, payload) {
			t.Fatalf("encode(decode(p)) differs from p\n   p: %x\ngot: %x", payload, got)
		}
	})
}

// FuzzLoad feeds arbitrary file bytes to Load. Whatever the bytes, Load
// must not panic: it either fails with an error wrapping ErrCorrupt or
// ErrVersion, or it succeeds and Save writes the same bytes back, since
// header, payload and trailer each have exactly one encoding. The seed
// corpus in testdata/fuzz/FuzzLoad holds a valid file, copies of it
// with a bad magic, a wrong version and a bad trailer, and a file of
// the previous format, v2.
func FuzzLoad(f *testing.F) {
	dir := f.TempDir() // inputs run one at a time in each process
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(dir, "in.ckpt")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Load error %q wraps neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		out := filepath.Join(dir, "out.ckpt")
		if err := Save(out, st); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("Save(Load(f)) differs from f\n   f: %x\ngot: %x", raw, got)
		}
	})
}
