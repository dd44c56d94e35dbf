package vclock

import (
	"bytes"
	"testing"
)

// FuzzDecodeVector checks the binary decoder never panics, never
// over-reads, and round-trips whatever it accepts, through DecodeVector and
// UnmarshalBinary alike.
func FuzzDecodeVector(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 5})
	f.Add([]byte{3, 1, 2, 3})
	f.Add(Vector{1 << 40, 0, 7}.AppendBinary(nil))
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add(Vector{0, 0, 9}.AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, used, err := DecodeVector(data)
		if err != nil {
			return
		}
		if used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		// Accepted input must re-encode to a prefix-equivalent canonical
		// form that decodes to an equal vector.
		re := v.AppendBinary(nil)
		v2, used2, err := DecodeVector(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if used2 != len(re) || !v2.Equal(v) {
			t.Fatalf("round trip changed vector: %v -> %v", v, v2)
		}
		_ = bytes.Equal(re, data[:used]) // may differ: canonicalization trims zeros
		var back Vector
		if err := back.UnmarshalBinary(re); err != nil {
			t.Fatalf("UnmarshalBinary of the re-encoding: %v", err)
		}
		if !back.Equal(v) {
			t.Fatalf("UnmarshalBinary round trip %v, want %v", back, v)
		}
	})
}
