package varint

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestLenMatchesEncoding: the size rule is encoding/binary's, at every
// 7-bit boundary and both signs.
func TestLenMatchesEncoding(t *testing.T) {
	vals := []uint64{0, 1, math.MaxUint64}
	for s := uint(7); s < 64; s += 7 {
		vals = append(vals, 1<<s-1, 1<<s, 1<<s+1)
	}
	for _, v := range vals {
		if got, want := Len(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Fatalf("Len(%d) = %d, encoding/binary writes %d bytes", v, got, want)
		}
		for _, s := range []int64{int64(v), -int64(v)} {
			if got, want := ZigZagLen(s), len(binary.AppendVarint(nil, s)); got != want {
				t.Fatalf("ZigZagLen(%d) = %d, encoding/binary writes %d bytes", s, got, want)
			}
		}
	}
}
