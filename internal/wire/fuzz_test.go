package wire

import (
	"bytes"
	"errors"
	"testing"

	"csfltr/internal/core"
)

// FuzzWireDecode drives every decoder with arbitrary bytes: malformed
// input must return an error — never panic, and never allocate beyond
// what the input length itself, or the version 2 decoder's caps,
// justify. Valid inputs that decode must re-encode to a frame that
// decodes to the same value; a version 2 frame that decodes must
// re-encode to itself, byte for byte, and be sized as what it is. A
// decoded reply that is released must not change what the next decode
// of the same bytes returns.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{Version, 0, 0})
	f.Add(Pack(nil, AppendUvarint(nil, 0)))
	f.Add(AppendTFQuery(nil, &core.TFQuery{Cols: []uint32{1, 5, 199}}))
	f.Add(AppendTFResponse(nil, &core.TFResponse{Values: []float64{1, 2.5, -7}}))
	small := &core.RTKResponse{Cells: []core.RTKCell{
		{IDs: []int32{3, 9, 11}, Values: []float64{4, 1, 2}},
		{IDs: []int32{}, Values: []float64{}},
	}}
	f.Add(Pack(nil, appendRTKPayloadV1(nil, small)))
	f.Add(AppendRowMatrix(nil, [][]int64{{1, -2, 3}, {0, 0, 9}}))
	// A compressed (version 1) frame cut short, then the whole frame: the
	// pooled inflate state the first one leaves behind must not reach the
	// second.
	compressed := Pack(nil, appendRTKPayloadV1(nil, geometryResponse(4)))
	f.Add(compressed[:len(compressed)/2])
	f.Add(compressed)
	// Version 2: well-formed frames, then one frame per decoder rule.
	f.Add(AppendRTKResponse(nil, small))
	stored := AppendRTKResponse(nil, geometryResponse(4))
	f.Add(stored)
	f.Add(stored[:len(stored)/2])
	for _, bad := range malformedV2() {
		f.Add(bad.frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeRTKResponse(data); err == nil {
			frame := AppendRTKResponse(nil, r)
			again, err := DecodeRTKResponse(frame)
			if err != nil || !respEqual(again, r) {
				t.Fatalf("RTK re-encode diverged: %v", err)
			}
			if data[0] == VersionRTK && !bytes.Equal(frame, data) {
				t.Fatalf("version 2 frame % x decodes, and re-encodes to % x", data, frame)
			}
			if frame[0] == VersionRTK && SizeRTKResponse(r) != int64(len(frame)) {
				t.Fatalf("reply sized %d, frame %d bytes", SizeRTKResponse(r), len(frame))
			}
			// Both replies end here; the same bytes, decoded into what they
			// left behind, must give the reply frame was encoded from.
			again.Release()
			r.Release()
			if r, err = DecodeRTKResponse(data); err != nil || !bytes.Equal(AppendRTKResponse(nil, r), frame) {
				t.Fatalf("decoding % x again, into recycled memory, gave another reply (%v)", data, err)
			}
		} else if !errors.Is(err, ErrMalformed) {
			t.Fatalf("RTK decode failed with %v, want ErrMalformed", err)
		}
		if q, err := DecodeTFQuery(data); err == nil {
			if _, err := DecodeTFQuery(AppendTFQuery(nil, q)); err != nil {
				t.Fatalf("TFQuery re-encode failed: %v", err)
			}
		}
		if r, err := DecodeTFResponse(data); err == nil {
			if _, err := DecodeTFResponse(AppendTFResponse(nil, r)); err != nil {
				t.Fatalf("TFResponse re-encode failed: %v", err)
			}
		}
		if rows, err := DecodeRowMatrix(data); err == nil {
			if _, err := DecodeRowMatrix(AppendRowMatrix(nil, rows)); err != nil {
				t.Fatalf("RowMatrix re-encode failed: %v", err)
			}
		}
		_, _ = Unpack(data)
	})
}
