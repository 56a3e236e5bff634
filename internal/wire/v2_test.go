package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csfltr/internal/core"
)

// v2Frame wraps a hand-built version 2 payload in its frame.
func v2Frame(payload ...byte) []byte { return appendStored(nil, VersionRTK, payload) }

// le64 is the dictionary form of a value.
func le64(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }

func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// malformedV2 is one hostile or non-canonical version 2 frame per rule
// of the decoder, with the words of the rejection it must draw. Each is
// a seed of FuzzWireDecode and, in TestV2RejectsMalformed, an
// ErrMalformed.
func malformedV2() []struct {
	name, why string
	frame     []byte
} {
	one, two, three := le64(1), le64(2), le64(3)
	maxID := AppendVarint(nil, math.MaxInt32)
	return []struct {
		name, why string
		frame     []byte
	}{
		{"dictionary index out of range", "index out of range", v2Frame(concat([]byte{1, 3}, one, two, three, []byte{1, 10, 0, 3})...)},
		{"id width over 32", "id width", v2Frame(concat([]byte{1, 1}, one, []byte{2, 10, 33, 0, 0, 0, 0, 0})...)},
		{"id past MaxInt32", "id out of range", v2Frame(concat([]byte{1, 1}, one, []byte{2}, maxID, []byte{0})...)},
		{"entries without bytes, both widths zero", "entry count", v2Frame(concat([]byte{1, 1}, one, AppendUvarint(nil, 1<<40), []byte{0, 0})...)},
		{"entries over the cap", "entry count", v2Frame(concat([]byte{1, 1}, one, AppendUvarint(nil, 1<<16+1), []byte{0, 0})...)},
		{"dictionary descends", "does not ascend", v2Frame(concat([]byte{1, 2}, two, one, []byte{2, 10, 0, 2})...)},
		{"dictionary repeats", "does not ascend", v2Frame(concat([]byte{1, 2}, one, one, []byte{2, 10, 0, 2})...)},
		{"dictionary entry unused", "unused dictionary entry", v2Frame(concat([]byte{1, 2}, one, two, []byte{2, 10, 0, 0})...)},
		{"dictionary over the cap", "dictionary size", v2Frame(concat([]byte{0}, AppendUvarint(nil, 1<<12+1))...)},
		{"dictionary without bytes", "dictionary size", v2Frame(1, 200, 1)},
		{"trailing bytes", "trailing bytes", v2Frame(concat([]byte{1, 1}, one, []byte{1, 10, 0, 0})...)},
		{"cells without bytes", "cell count", v2Frame(200, 1, 0)},
		{"non-minimal count", "entry count", v2Frame(concat([]byte{1, 1}, one, []byte{0x81, 0, 10, 0})...)},
		{"wider ids than needed", "not packed canonically", v2Frame(concat([]byte{1, 1}, one, []byte{2, 10, 3, 1})...)},
		{"width on a single id", "not packed canonically", v2Frame(concat([]byte{1, 1}, one, []byte{1, 10, 5})...)},
		{"padding bits set", "not packed canonically", v2Frame(concat([]byte{1, 1}, one, []byte{2, 10, 1, 0x81})...)},
		{"runs cut short", "exceed the input", v2Frame(concat([]byte{1, 2}, one, two, []byte{9, 10, 4, 0xff})...)},
		{"compressed flag", "unknown flags", concat([]byte{VersionRTK, flagCompressed, 3}, []byte{0, 0, 0})},
		{"non-minimal frame length", "bad payload length", concat([]byte{VersionRTK, 0, 0x82, 0}, []byte{0, 0})},
		{"frame length lies", "length mismatch", concat([]byte{VersionRTK, 0, 9}, []byte{0, 0})},
	}
}

// malformedV2Grouped are twins of malformedV2 cases with at least 17
// entries, so that the decoder meets the fault inside the loops that
// read eight entries to the word, or in the tail after them; each must
// draw the words its short twin draws. They are FuzzWireDecode seeds
// too, after all the others.
func malformedV2Grouped() []struct {
	name, why string
	frame     []byte
} {
	one, two, three := le64(1), le64(2), le64(3)
	cycle := func(n, period int, head ...uint64) []uint64 {
		vals := append([]uint64(nil), head...)
		for i := len(vals); i < n; i++ {
			vals = append(vals, uint64(i%period))
		}
		return vals
	}
	dirty := bitsLE(3, cycle(19, 5)...)
	dirty[len(dirty)-1] |= 0x80 // the top bit of the last byte: bits 57 to 63 are padding
	nearMax := AppendVarint(nil, math.MaxInt32-40)
	return []struct {
		name, why string
		frame     []byte
	}{
		{"dictionary index out of range in a full group", "index out of range",
			v2Frame(concat([]byte{1, 3}, one, two, three, []byte{40, 20, 0}, bitsLE(2, cycle(40, 3, 0, 1, 3)...))...)},
		{"padding bits set after grouped deltas", "not packed canonically",
			v2Frame(concat([]byte{1, 2}, one, two, []byte{20, 20, 3}, dirty, bitsLE(1, cycle(20, 2)...))...)},
		{"wider ids than needed in full groups", "not packed canonically",
			v2Frame(concat([]byte{1, 1}, one, []byte{33, 20, 4}, bitsLE(4, cycle(32, 8)...))...)},
		{"id past MaxInt32 inside a group", "id out of range",
			v2Frame(concat([]byte{1, 1}, one, []byte{20}, nearMax, []byte{4}, bitsLE(4, cycle(19, 1, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8)...))...)},
	}
}

// bitsLE packs vals at w bits each, LSB-first, zero-padded to a byte.
func bitsLE(w uint, vals ...uint64) []byte {
	out := make([]byte, (len(vals)*int(w)+7)/8)
	for i, v := range vals {
		for b := uint(0); b < w; b++ {
			if v>>b&1 != 0 {
				at := uint(i)*w + b
				out[at/8] |= 1 << (at % 8)
			}
		}
	}
	return out
}

func TestV2RejectsMalformed(t *testing.T) {
	// The smallest well-formed neighbours of the table decode.
	for name, good := range map[string][]byte{
		"empty reply":   v2Frame(0, 0),
		"empty cell":    v2Frame(1, 0, 0),
		"one document":  v2Frame(concat([]byte{1, 1}, le64(1), []byte{1, 10, 0})...),
		"two documents": v2Frame(concat([]byte{1, 2}, le64(1), le64(2), []byte{2, 10, 1, 1, 2})...),
	} {
		r, err := DecodeRTKResponse(good)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := AppendRTKResponse(nil, r); !bytes.Equal(again, good) {
			t.Fatalf("%s: re-encodes to % x, want % x", name, again, good)
		}
	}
	for _, bad := range append(malformedV2(), malformedV2Grouped()...) {
		r, err := DecodeRTKResponse(bad.frame)
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), bad.why) {
			t.Errorf("%s: decoded to %+v, err %v; want ErrMalformed for %q", bad.name, r, err, bad.why)
		}
		if _, err := Unpack(bad.frame); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Unpack of a version 2 frame: %v, want ErrMalformed", bad.name, err)
		}
	}
}

// TestV2Canonical: a version 2 frame has one encoding. Decoding a frame
// and encoding the result gives the frame back; the frame of a reply
// that carries its length equals the frame of the same cells measured;
// and values survive bit for bit, whatever they are.
func TestV2Canonical(t *testing.T) {
	specials := &core.RTKResponse{Cells: []core.RTKCell{
		{IDs: []int32{math.MinInt32, -1, 0, math.MaxInt32}, Values: []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(-1)}},
		{},
		{IDs: []int32{7}, Values: []float64{math.Float64frombits(0x7ff8000000000001)}}, // another NaN
		{IDs: []int32{1, 2, 3}, Values: []float64{1e300, -1e300, 5e-324}},
	}}
	wide := geometryResponse(5)
	for i := range wide.Cells[3].Values { // counts far outside any producer's window, plus noise
		wide.Cells[3].Values[i] = float64(int64(1)<<40+int64(i)) + 0.37
	}
	for name, resp := range map[string]*core.RTKResponse{
		"geometry": geometryResponse(4), "specials": specials, "wide counts": wide,
		"no cells": {}, "empty cells": {Cells: make([]core.RTKCell, 3)},
	} {
		frame := AppendRTKResponse(nil, resp)
		if frame[0] != VersionRTK {
			t.Fatalf("%s: framed as version %d", name, frame[0])
		}
		got, err := DecodeRTKResponse(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !respEqual(got, resp) {
			t.Fatalf("%s: round trip diverged", name)
		}
		if again := AppendRTKResponse(nil, got); !bytes.Equal(again, frame) {
			t.Fatalf("%s: encode(decode(frame)) differs from frame", name)
		}
		if again := AppendRTKResponse(nil, &core.RTKResponse{Cells: got.Cells}); !bytes.Equal(again, frame) {
			t.Fatalf("%s: the decoded cells, measured, encode to another frame", name)
		}
		if size := SizeRTKResponse(got); size != int64(len(frame)) {
			t.Fatalf("%s: decoded reply sized %d, frame %d bytes", name, size, len(frame))
		}
	}
}

// TestV1FallsBack: what version 2 cannot represent is framed as version
// 1, sized as version 1, and round-trips.
func TestV1FallsBack(t *testing.T) {
	many := &core.RTKResponse{Cells: []core.RTKCell{{IDs: make([]int32, 5000), Values: make([]float64, 5000)}}}
	for i := range many.Cells[0].IDs {
		many.Cells[0].IDs[i], many.Cells[0].Values[i] = int32(i), float64(i)+0.5
	}
	// Consecutive ids and one value: entries that take no bytes, which is
	// why the decoder caps their number.
	run := func(n int) *core.RTKResponse {
		resp := &core.RTKResponse{Cells: []core.RTKCell{{IDs: make([]int32, n), Values: make([]float64, n)}}}
		for i := range resp.Cells[0].IDs {
			resp.Cells[0].IDs[i], resp.Cells[0].Values[i] = int32(i), 1.5
		}
		return resp
	}
	atCap := AppendRTKResponse(nil, run(1<<16))
	if got, err := DecodeRTKResponse(atCap); atCap[0] != VersionRTK || err != nil || !respEqual(got, run(1<<16)) {
		t.Fatalf("a reply at the entry cap: version %d frame of %d bytes, decode: %v", atCap[0], len(atCap), err)
	}
	for name, resp := range map[string]*core.RTKResponse{
		"descending ids":            {Cells: []core.RTKCell{{IDs: []int32{9, 3}, Values: []float64{1, 2}}}},
		"repeated id":               {Cells: []core.RTKCell{{IDs: []int32{3, 3}, Values: []float64{1, 2}}}},
		"over the dictionary's cap": many,
		"over the entry cap":        run(1<<16 + 1),
	} {
		frame := AppendRTKResponse(nil, resp)
		if frame[0] != Version {
			t.Fatalf("%s: framed as version %d", name, frame[0])
		}
		if want := PackedSize(sizeRTKPayloadV1(resp)); SizeRTKResponse(resp) != want {
			t.Fatalf("%s: sized %d, want the version 1 size %d", name, SizeRTKResponse(resp), want)
		}
		got, err := DecodeRTKResponse(frame)
		if err != nil || !respEqual(got, resp) {
			t.Fatalf("%s: round trip diverged: %v", name, err)
		}
	}
}

// goldenV1Response is the reply testdata/rtk_v1.golden holds, given by
// arithmetic so the test does not depend on any generator: noisy cells
// long enough to compress, an empty one, one out of order.
func goldenV1Response() *core.RTKResponse {
	resp := &core.RTKResponse{Cells: make([]core.RTKCell, 6)}
	for c := range resp.Cells[:4] {
		ids, vals := make([]int32, 100), make([]float64, 100)
		for i := range ids {
			ids[i] = int32(c + 3*i + i*i%7)
			vals[i] = float64(1+(i*7+c)%6) + 0.4375
		}
		resp.Cells[c] = core.RTKCell{IDs: ids, Values: vals}
	}
	resp.Cells[5] = core.RTKCell{IDs: []int32{40, 12, 13}, Values: []float64{3, 1, 2}}
	return resp
}

// TestV1GoldenDecodes: the encoder no longer produces version 1 for a
// canonical reply, so a frame the previous encoder produced
// (AppendRTKResponse at the commit before version 2) is checked in.
func TestV1GoldenDecodes(t *testing.T) {
	frame, err := os.ReadFile(filepath.Join("testdata", "rtk_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != Version || frame[1] != flagCompressed {
		t.Fatalf("golden frame starts %#x %#x, want a compressed version 1 frame", frame[0], frame[1])
	}
	got, err := DecodeRTKResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !respEqual(got, goldenV1Response()) {
		t.Fatal("the version 1 golden frame decodes to another reply")
	}
}

// goldenV2Seed is the seed of the owner reply testdata/rtk_v2.golden
// holds.
const goldenV2Seed = 5

// TestV2Golden pins the version 2 bytes: testdata/rtk_v2.golden is the
// frame the encoder wrote for ownerResponse(goldenV2Seed), a reply with
// cells whose runs pack 8 entries to the word and leave a tail. The
// file decodes to the reply rebuilt from the seed, and encoding that
// reply gives the file back.
func TestV2Golden(t *testing.T) {
	frame, err := os.ReadFile(filepath.Join("testdata", "rtk_v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := ownerResponse(t, goldenV2Seed)
	// A cell of n > 8 entries at widths up to 8 packs by the word, and one
	// of its two runs (n-1 deltas, n indexes) leaves a tail.
	grouped := 0
	for _, c := range want.Cells {
		if len(c.IDs) > 8 && bits.Len64(deltaOR(c.IDs)) <= 8 {
			grouped++
		}
	}
	if grouped == 0 {
		t.Fatal("no cell of the golden reply packs by the word")
	}
	if frame[0] != VersionRTK || frame[1] != 0 {
		t.Fatalf("golden frame starts %#x %#x, want a stored version 2 frame", frame[0], frame[1])
	}
	got, err := DecodeRTKResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !respEqual(got, want) {
		t.Fatal("the version 2 golden frame decodes to another reply")
	}
	if again := AppendRTKResponse(nil, want); !bytes.Equal(again, frame) {
		t.Fatalf("the golden reply encodes to %d other bytes than the %d of the golden frame", len(again), len(frame))
	}
}

// deltaOR is the OR of a cell's (id - previous id - 1).
func deltaOR(ids []int32) uint64 {
	or := uint64(0)
	for k := 1; k < len(ids); k++ {
		or |= uint64(int64(ids[k]) - int64(ids[k-1]) - 1)
	}
	return or
}
