package wire

import (
	"testing"

	"csfltr/internal/core"
)

// FuzzWireDecode drives every decoder with arbitrary bytes: malformed
// input must return an error — never panic, and never allocate beyond
// what the input length itself justifies (the checkCount discipline).
// Valid inputs that decode must re-encode to a frame that decodes to
// the same value.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{Version, 0, 0})
	f.Add(Pack(nil, AppendUvarint(nil, 0)))
	f.Add(AppendTFQuery(nil, &core.TFQuery{Cols: []uint32{1, 5, 199}}))
	f.Add(AppendTFResponse(nil, &core.TFResponse{Values: []float64{1, 2.5, -7}}))
	f.Add(AppendRTKResponse(nil, &core.RTKResponse{Cells: []core.RTKCell{
		{IDs: []int32{3, 9, 11}, Values: []float64{4, 1, 2}},
		{IDs: []int32{}, Values: []float64{}},
	}}))
	f.Add(AppendEntries(nil, []core.Entry{{DocID: 4, Value: -2}, {DocID: 90, Value: 7}}))
	f.Add(AppendRowMatrix(nil, [][]int64{{1, -2, 3}, {0, 0, 9}}))
	// A compressed frame cut short, then the whole frame: the pooled
	// inflate state the first one leaves behind must not reach the second.
	compressed := AppendRTKResponse(nil, geometryResponse(4))
	f.Add(compressed[:len(compressed)/2])
	f.Add(compressed)

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := DecodeRTKResponse(data); err == nil {
			again, err := DecodeRTKResponse(AppendRTKResponse(nil, r))
			if err != nil || !respEqual(again, r) {
				t.Fatalf("RTK re-encode diverged: %v", err)
			}
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
		if es, err := DecodeEntries(data); err == nil {
			if _, err := DecodeEntries(AppendEntries(nil, es)); err != nil {
				t.Fatalf("Entries re-encode failed: %v", err)
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
