package wire

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"csfltr/internal/core"
)

// batchFixtures returns three queries and three replies that between
// them take every frame form: stored version 1 queries and one long
// enough to compress, version 2 replies and a version 1 fallback (ids
// out of order) long enough to compress.
func batchFixtures() ([]*core.TFQuery, []*core.RTKResponse) {
	long := &core.TFQuery{Cols: make([]uint32, 2*CompressThreshold)}
	for i := range long.Cols {
		long.Cols[i] = uint32(i % 7)
	}
	qs := []*core.TFQuery{{Cols: []uint32{1, 5, 199}}, long, {Cols: []uint32{0, 0, 3}}}
	return qs, []*core.RTKResponse{geometryResponse(4), goldenV1Response(), geometryResponse(5)}
}

// TestBatchOfOneIsTheSingleFrame: the batch encoders did not change the
// format — for one query they write the query's payload packed in one
// frame, for one reply the bytes AppendRTKResponse writes, whatever the
// frame form, and the batch decoder reads the frame checked in before
// version 2 existed.
func TestBatchOfOneIsTheSingleFrame(t *testing.T) {
	qs, rs := batchFixtures()
	for i, q := range qs {
		if got, want := AppendTFQueries(nil, qs[i:i+1]), Pack(nil, appendTFQueryPayload(nil, q)); !bytes.Equal(got, want) {
			t.Fatalf("query %d: a batch of one is % x, the single frame % x", i, got, want)
		}
	}
	for i, r := range rs {
		if got, want := AppendRTKResponses(nil, rs[i:i+1]), AppendRTKResponse(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("reply %d: a batch of one differs from the single frame", i)
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "rtk_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out [1]*core.RTKResponse
	if err := DecodeRTKResponses(golden, out[:]); err != nil || !respEqual(out[0], goldenV1Response()) {
		t.Fatalf("the version 1 golden frame as a batch of one: %v", err)
	}
}

// TestBatchRoundTrip: k frames back to back decode to the k values, in
// order, in every position: a frame that could be compressed is, but
// only where it is last.
func TestBatchRoundTrip(t *testing.T) {
	qs, rs := batchFixtures()
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}} {
		var bq []*core.TFQuery
		var br []*core.RTKResponse
		for _, i := range order {
			bq, br = append(bq, qs[i]), append(br, rs[i])
		}
		body := AppendTFQueries(nil, bq)
		got, err := DecodeTFQueries(body, 3)
		if err != nil || len(got) != 3 {
			t.Fatalf("order %v: %d queries (%v)", order, len(got), err)
		}
		for i := range got {
			if !slices.Equal(got[i].Cols, bq[i].Cols) {
				t.Fatalf("order %v: query %d diverged", order, i)
			}
		}
		if compressed := body[len(body)-len(AppendTFQueries(nil, []*core.TFQuery{bq[2]})):][1]&flagCompressed != 0; compressed != (order[2] == 1) {
			t.Fatalf("order %v: last query frame compressed: %v", order, compressed)
		}

		body = AppendRTKResponses(nil, br)
		out := make([]*core.RTKResponse, 3)
		if err := DecodeRTKResponses(body, out); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		for i := range out {
			if !respEqual(out[i], br[i]) {
				t.Fatalf("order %v: reply %d diverged", order, i)
			}
			out[i].Release()
		}
	}
}

// TestBatchRejects: bytes after the last frame, a last frame cut short,
// more frames than allowed and a frame count other than the one asked
// for are malformed, and a refused reply body leaves no reply held.
func TestBatchRejects(t *testing.T) {
	qs, rs := batchFixtures()
	qs[1], rs[1] = qs[0], rs[0] // stored frames only: every boundary is declared
	queries, replies := AppendTFQueries(nil, qs), AppendRTKResponses(nil, rs)
	for name, body := range map[string][]byte{
		"trailing byte":   append(bytes.Clone(queries), 0),
		"last frame cut":  queries[:len(queries)-1],
		"header cut":      queries[:len(queries)-len(AppendTFQueries(nil, []*core.TFQuery{qs[2]}))+1],
		"empty":           {},
		"four of three":   append(bytes.Clone(queries), AppendTFQueries(nil, []*core.TFQuery{qs[0]})...),
		"reply in a body": append(AppendTFQueries(nil, []*core.TFQuery{qs[0]}), AppendRTKResponse(nil, rs[0])...),
	} {
		if got, err := DecodeTFQueries(body, 3); !errors.Is(err, ErrMalformed) || got != nil {
			t.Errorf("queries, %s: (%d queries, %v), want ErrMalformed", name, len(got), err)
		}
	}
	for name, tc := range map[string]struct {
		body []byte
		k    int
	}{
		"trailing byte":  {append(bytes.Clone(replies), 0), 3},
		"last frame cut": {replies[:len(replies)-1], 3},
		"empty":          {nil, 1},
		"three for two":  {replies, 2},
		"three for four": {replies, 4},
		"query in body":  {append(AppendRTKResponse(nil, rs[0]), AppendTFQueries(nil, []*core.TFQuery{qs[0]})...), 2},
	} {
		out := make([]*core.RTKResponse, tc.k)
		if err := DecodeRTKResponses(tc.body, out); !errors.Is(err, ErrMalformed) {
			t.Errorf("replies, %s: %v, want ErrMalformed", name, err)
		}
		for i, r := range out {
			if r != nil {
				t.Errorf("replies, %s: slot %d still holds a reply after the error", name, i)
			}
		}
	}
}
