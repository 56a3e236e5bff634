// Package varint is the one definition of how many bytes a varint takes.
// The wire codecs (internal/wire, internal/secagg) and the version 2 RTK
// payload (internal/core, which wire imports) all size what they encode
// before encoding it, and a reply's carried length equals its frame's
// only while they agree on this rule — so it lives in a leaf package
// they all import. Encoding and decoding are encoding/binary's.
package varint

import "math/bits"

// Len returns the encoded length of v as an unsigned varint.
func Len(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// ZigZagLen returns the encoded length of v as a zig-zag varint.
func ZigZagLen(v int64) int { return Len(uint64(v)<<1 ^ uint64(v>>63)) }
