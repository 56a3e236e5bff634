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
// decoded reply — RTK or TF — that is released must not change what the
// next decode of the same bytes returns. The same bytes are also read as a batch
// body — frames back to back — of queries and of one to three replies:
// a body that decodes re-encodes to a body that decodes alike, and one
// that does not is refused whole, with no reply left held.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{Version, 0, 0})
	f.Add(Pack(nil, AppendUvarint(nil, 0)))
	f.Add(AppendTFQueries(nil, []*core.TFQuery{{Cols: []uint32{1, 5, 199}}}))
	f.Add(AppendTFResponse(nil, &core.TFResponse{Values: []float64{1, 2.5, -7}}))
	small := &core.RTKResponse{Cells: []core.RTKCell{
		{IDs: []int32{3, 9, 11}, Values: []float64{4, 1, 2}},
		{IDs: []int32{}, Values: []float64{}},
	}}
	f.Add(Pack(nil, appendRTKPayloadV1(nil, small)))
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
	// Batch bodies: three frames, the last cut short, bytes after the last,
	// and a compressed frame where only a stored one can be delimited.
	q := &core.TFQuery{Cols: []uint32{1, 5, 199}}
	queries := AppendTFQueries(nil, []*core.TFQuery{q, q, q})
	f.Add(queries)
	f.Add(queries[:len(queries)-2])
	f.Add(append(bytes.Clone(queries), 7))
	replies := AppendRTKResponses(nil, []*core.RTKResponse{small, geometryResponse(4), small})
	f.Add(replies)
	f.Add(replies[:len(replies)-2])
	f.Add(append(bytes.Clone(replies), 7))
	f.Add(append(bytes.Clone(compressed), stored...))
	// Version 2 faults the decoder meets eight entries to the word.
	for _, bad := range malformedV2Grouped() {
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
		if frame, rest, err := NextFrame(data); err == nil {
			if len(frame) == 0 || len(frame)+len(rest) != len(data) || !bytes.Equal(frame, data[:len(frame)]) {
				t.Fatalf("NextFrame cut % x into % x and % x", data, frame, rest)
			}
		} else if !errors.Is(err, ErrMalformed) {
			t.Fatalf("NextFrame failed with %v, want ErrMalformed", err)
		}
		if qs, err := DecodeTFQueries(data, core.MaxRTKBatch); err == nil {
			again, err := DecodeTFQueries(AppendTFQueries(nil, qs), len(qs))
			if err != nil || len(again) != len(qs) || len(qs) == 0 || len(qs) > core.MaxRTKBatch {
				t.Fatalf("a body of %d queries re-encodes to one of %d (%v)", len(qs), len(again), err)
			}
		} else if !errors.Is(err, ErrMalformed) || qs != nil {
			t.Fatalf("query batch decode: %d queries and %v, want none and ErrMalformed", len(qs), err)
		}
		for k := 1; k <= 3; k++ {
			out := make([]*core.RTKResponse, k)
			if err := DecodeRTKResponses(data, out); err != nil {
				if !errors.Is(err, ErrMalformed) || out[0] != nil || out[k-1] != nil {
					t.Fatalf("reply batch of %d refused with %v, holding %v", k, err, out)
				}
				continue
			}
			again := make([]*core.RTKResponse, k)
			if err := DecodeRTKResponses(AppendRTKResponses(nil, out), again); err != nil {
				t.Fatalf("a body of %d replies does not survive its own encoding: %v", k, err)
			}
			for i := range out {
				if !respEqual(out[i], again[i]) {
					t.Fatalf("reply %d of %d diverged on re-encoding", i, k)
				}
				out[i].Release()
				again[i].Release()
			}
		}
		if q, err := DecodeTFQuery(data); err == nil {
			if _, err := DecodeTFQuery(AppendTFQueries(nil, []*core.TFQuery{q})); err != nil {
				t.Fatalf("TFQuery re-encode failed: %v", err)
			}
		}
		if r, err := DecodeTFResponse(data); err == nil {
			frame := AppendTFResponse(nil, r)
			again, err := DecodeTFResponse(frame)
			if err != nil || !bytes.Equal(AppendTFResponse(nil, again), frame) {
				t.Fatalf("TFResponse re-encode diverged: %v", err)
			}
			// Every decoded reply is released, so the next decode draws
			// the memory these leave behind: the same bytes must still give
			// the reply frame was encoded from.
			again.Release()
			r.Release()
			if r, err = DecodeTFResponse(data); err != nil || !bytes.Equal(AppendTFResponse(nil, r), frame) {
				t.Fatalf("decoding % x again, into recycled memory, gave another TF reply (%v)", data, err)
			}
			r.Release()
		} else if !errors.Is(err, ErrMalformed) {
			t.Fatalf("TF decode failed with %v, want ErrMalformed", err)
		}
		_, _ = Unpack(data)
	})
}
