package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// appendPackedRef and bitReaderRef are the version 2 run loops as they
// were before the word-at-a-time kernels: one value at a time through a
// 64-bit accumulator, flushed or refilled 32 bits at once. The kernels
// must agree with them bit for bit.

// appendPackedRef appends vals, w bits each (w <= 32, every value below
// 1<<w), LSB-first, the last byte zero-padded.
func appendPackedRef(dst []byte, vals []uint32, w uint) []byte {
	if w == 0 {
		return dst
	}
	acc, n := uint64(0), uint(0)
	for _, v := range vals {
		acc |= uint64(v) << n
		if n += w; n >= 32 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(acc))
			acc >>= 32
			n -= 32
		}
	}
	for ; n > 0; n -= min(n, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// bitReaderRef unpacks what appendPackedRef wrote.
type bitReaderRef struct {
	data []byte
	acc  uint64
	n    uint
}

// read fills dst with the next len(dst) values of w bits and returns
// their OR. The caller has checked that data holds that many bits.
func (b *bitReaderRef) read(dst []uint32, w uint) uint32 {
	if w == 0 {
		clear(dst)
		return 0
	}
	data, acc, n := b.data, b.acc, b.n
	mask, or := uint64(1)<<w-1, uint32(0)
	for i := range dst {
		if n < w {
			if len(data) >= 4 {
				acc |= uint64(binary.LittleEndian.Uint32(data)) << n
				data = data[4:]
				n += 32
			} else {
				for ; n < w; n += 8 {
					acc |= uint64(data[0]) << n
					data = data[1:]
				}
			}
		}
		v := uint32(acc & mask)
		acc >>= w
		n -= w
		dst[i] = v
		or |= v
	}
	b.data, b.acc, b.n = data, acc, n
	return or
}

// done reports whether everything left unread is zero padding.
func (b *bitReaderRef) done() bool { return len(b.data) == 0 && b.acc == 0 }

// TestRunKernelsMatchReference sweeps every width a run can have and
// lengths around the word loop's group of eight, over zeros, all-ones
// at the width and random values: the packers write exactly the bytes
// of the reference loop, and the unpackers read back the values, the
// delta OR, the largest index and the padding verdict the reference
// reader gives — for a clean run and one with a padding bit set, each
// bare and with a word of 0xff beyond its length, which the word loops
// may load but must not use.
func TestRunKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var table [rtkMaxDict]float64
	for i := range table {
		table[i] = float64(i) + 0.5
	}
	for w := uint(0); w <= 32; w++ {
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 65, 250} {
			for _, pattern := range []string{"zeros", "ones", "random"} {
				name := fmt.Sprintf("w=%d n=%d %s", w, n, pattern)
				vals := make([]uint32, n)
				for i := range vals {
					switch pattern {
					case "ones":
						vals[i] = uint32(uint64(1)<<w - 1)
					case "random":
						vals[i] = uint32(rng.Uint64() & (uint64(1)<<w - 1))
					}
				}
				want := appendPackedRef(nil, vals, w)

				// Ranks: the identity refs through a rank table of the values.
				refs := make([]uint32, n)
				for i := range refs {
					refs[i] = uint32(i)
				}
				prefix := []byte{0xa5}
				got := packRanks(slices.Grow(slices.Clone(prefix), len(want)+8), refs, vals, w)
				if !bytes.Equal(got, append(slices.Clone(prefix), want...)) {
					t.Fatalf("%s: packRanks wrote % x, want % x", name, got[1:], want)
				}
				// Deltas: ids that step by 1 + each value, wrapping as int32
				// does past MaxInt32, from a random first id.
				ids := make([]int32, n+1)
				ids[0] = int32(rng.Uint32())
				for i, v := range vals {
					ids[i+1] = ids[i] + 1 + int32(v)
				}
				got = packDeltas(slices.Grow(slices.Clone(prefix), len(want)+8), ids, w)
				if !bytes.Equal(got, append(slices.Clone(prefix), want...)) {
					t.Fatalf("%s: packDeltas wrote % x, want % x", name, got[1:], want)
				}

				runs := map[string][]byte{"clean": want}
				if n*int(w)%8 != 0 {
					dirty := slices.Clone(want)
					dirty[len(dirty)-1] |= 0x80
					runs["padding bit set"] = dirty
				}
				for how, run := range runs {
					ref := bitReaderRef{data: run}
					refVals := make([]uint32, n)
					refOr := ref.read(refVals, w)
					refDone := ref.done()
					for _, beyond := range []bool{false, true} {
						data := slices.Clip(run)
						if beyond {
							data = append(data, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)[:len(run)]
						}
						at := fmt.Sprintf("%s, %s run (word beyond: %v)", name, how, beyond)

						out := make([]int32, n+1)
						last, or, canonical := unpackIDs(out, int64(ids[0]), data, w)
						sum := int64(ids[0])
						for k, v := range refVals {
							sum += 1 + int64(v)
							if out[k+1] != int32(sum) {
								t.Fatalf("%s: unpackIDs gave id %d at %d, want %d", at, out[k+1], k+1, int32(sum))
							}
						}
						if out[0] != ids[0] || last != sum || or != uint64(refOr) || canonical != refDone {
							t.Fatalf("%s: unpackIDs gave first %d, last %d, or %#x, canonical %v; want %d, %d, %#x, %v",
								at, out[0], last, or, canonical, ids[0], sum, refOr, refDone)
						}

						if w > rtkDictBits {
							continue
						}
						var used [rtkMaxDict]uint8
						got := make([]float64, n)
						hi, canonical := unpackRefs(got, data, w, &table, &used)
						var wantHi uint64
						var wantUsed [rtkMaxDict]uint8
						for k, v := range refVals {
							if got[k] != table[v] {
								t.Fatalf("%s: unpackRefs gave %v at %d, want %v", at, got[k], k, table[v])
							}
							wantHi = max(wantHi, uint64(v))
							wantUsed[v] = 1
						}
						if hi != wantHi || canonical != refDone || used != wantUsed {
							t.Fatalf("%s: unpackRefs gave largest index %d, canonical %v, or other flags; want %d, %v",
								at, hi, canonical, wantHi, refDone)
						}
					}
				}
			}
		}
	}
}
