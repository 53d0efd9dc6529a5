package checkpoint

import (
	"bytes"
	"errors"
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
