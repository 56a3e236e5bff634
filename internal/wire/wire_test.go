package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/hashutil"
	"csfltr/internal/sketch"
)

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{0, 1, 100, CompressThreshold - 1, CompressThreshold, 4096, 1 << 16} {
		random := make([]byte, size)
		rng.Read(random)
		repetitive := bytes.Repeat([]byte("abcdef"), size/6+1)[:size]
		for name, payload := range map[string][]byte{"random": random, "repetitive": repetitive} {
			framed := Pack(nil, payload)
			got, err := Unpack(framed)
			if err != nil {
				t.Fatalf("size=%d %s: %v", size, name, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("size=%d %s: payload corrupted", size, name)
			}
			if size >= CompressThreshold && name == "repetitive" && len(framed) >= size {
				t.Fatalf("size=%d: repetitive payload did not compress (frame %d)", size, len(framed))
			}
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":          nil,
		"short":          {Version},
		"bad version":    {99, 0, 0},
		"bad flags":      {Version, 0x80, 0},
		"length lies":    {Version, 0, 10, 'x'},
		"huge length":    append([]byte{Version, 0}, AppendUvarint(nil, 1<<40)...),
		"compressed big": append(append([]byte{Version, flagCompressed}, AppendUvarint(nil, 4)...), 1, 2, 3, 4, 5),
	}
	for name, data := range cases {
		if _, err := Unpack(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// randomValues draws a value vector in one of the regimes the protocol
// produces: exact counts (Epsilon=0), noisy floats, and adversarial
// specials.
func randomValues(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	switch rng.Intn(3) {
	case 0: // integral counts
		for i := range vals {
			vals[i] = float64(rng.Intn(2000) - 500)
		}
	case 1: // noisy
		for i := range vals {
			vals[i] = float64(rng.Intn(100)) + rng.NormFloat64()
		}
	default: // specials mixed in
		for i := range vals {
			switch rng.Intn(5) {
			case 0:
				vals[i] = math.Inf(1 - 2*rng.Intn(2))
			case 1:
				vals[i] = math.Copysign(0, -1)
			default:
				vals[i] = rng.NormFloat64() * 1e9
			}
		}
	}
	return vals
}

func TestRTKResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		ncells := rng.Intn(8)
		resp := &core.RTKResponse{Cells: make([]core.RTKCell, ncells)}
		for c := range resp.Cells {
			n := rng.Intn(40)
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = int32(rng.Intn(1 << 20))
			}
			if rng.Intn(2) == 0 { // canonical ascending, the common case
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			}
			resp.Cells[c] = core.RTKCell{IDs: ids, Values: randomValues(rng, n)}
		}
		data := AppendRTKResponse(nil, resp)
		got, err := DecodeRTKResponse(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !respEqual(got, resp) {
			t.Fatalf("trial %d: round trip diverged\n got %+v\nwant %+v", trial, got, resp)
		}
	}
}

// respEqual compares RTK responses treating NaN as equal to itself
// (bit-level round trip) and nil/empty slices as equal.
func respEqual(a, b *core.RTKResponse) bool {
	if len(a.Cells) != len(b.Cells) {
		return false
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if len(ca.IDs) != len(cb.IDs) || len(ca.Values) != len(cb.Values) {
			return false
		}
		for j := range ca.IDs {
			if ca.IDs[j] != cb.IDs[j] {
				return false
			}
		}
		for j := range ca.Values {
			if math.Float64bits(ca.Values[j]) != math.Float64bits(cb.Values[j]) {
				return false
			}
		}
	}
	return true
}

func TestTFRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		q := &core.TFQuery{Cols: make([]uint32, rng.Intn(40))}
		for i := range q.Cols {
			q.Cols[i] = uint32(rng.Intn(1 << 16))
		}
		gotQ, err := DecodeTFQuery(AppendTFQuery(nil, q))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(gotQ.Cols) != len(q.Cols) {
			t.Fatalf("trial %d: col count diverged", trial)
		}
		for i := range q.Cols {
			if gotQ.Cols[i] != q.Cols[i] {
				t.Fatalf("trial %d: col %d diverged", trial, i)
			}
		}
		r := &core.TFResponse{Values: randomValues(rng, rng.Intn(40))}
		gotR, err := DecodeTFResponse(AppendTFResponse(nil, r))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(gotR.Values) != len(r.Values) {
			t.Fatalf("trial %d: value count diverged", trial)
		}
		for i := range r.Values {
			if math.Float64bits(gotR.Values[i]) != math.Float64bits(r.Values[i]) {
				t.Fatalf("trial %d: value %d diverged", trial, i)
			}
		}
	}
}

// TestSketchRowsRoundTrip: encode -> decode is the identity for real
// sketch tables across every SketchKind and a grid of geometries — the
// codec must be exact for whatever cell values the sketches produce.
func TestSketchRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kind := range []sketch.Kind{sketch.CountMin, sketch.Count} {
		for _, geom := range [][2]int{{1, 2}, {3, 16}, {5, 64}, {8, 256}} {
			z, w := geom[0], geom[1]
			t.Run(fmt.Sprintf("%v_z%d_w%d", kind, z, w), func(t *testing.T) {
				fam, err := hashutil.NewFamily(hashutil.KindPolynomial, z, w, rng.Uint64())
				if err != nil {
					t.Fatal(err)
				}
				tbl, err := sketch.New(kind, fam)
				if err != nil {
					t.Fatal(err)
				}
				for d := 0; d < 50; d++ {
					tbl.Add(uint64(rng.Intn(500)), int64(rng.Intn(9)+1))
				}
				rows := make([][]int64, z)
				for i := range rows {
					rows[i] = make([]int64, w)
					for j := range rows[i] {
						rows[i][j] = tbl.Cell(i, uint32(j))
					}
				}
				got, err := DecodeRowMatrix(AppendRowMatrix(nil, rows))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, rows) {
					t.Fatal("row matrix round trip diverged")
				}
			})
		}
	}
}

// TestRTKCompaction pins the headline property: a realistic RTK reply
// encodes to well under a third of the fixed-width accounting size
// (12 bytes per entry).
func TestRTKCompaction(t *testing.T) {
	p := core.DefaultParams()
	p.Epsilon = 0
	o, err := core.NewOwner(p, 42, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for id := 0; id < 400; id++ {
		counts := make(map[uint64]int64)
		for j := 0; j < 40; j++ {
			counts[uint64(rng.Intn(2000))]++
		}
		if err := o.AddDocument(id, counts); err != nil {
			t.Fatal(err)
		}
	}
	q, err := core.NewQuerier(p, 42, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	plan := q.Plan(17)
	resp, err := o.AnswerRTK(plan.Query())
	if err != nil {
		t.Fatal(err)
	}
	raw := resp.WireSize()
	frame := AppendRTKResponse(nil, resp)
	if raw == 0 {
		t.Fatal("degenerate: empty response")
	}
	if int64(len(frame))*3 > raw {
		t.Fatalf("encoded %dB vs raw %dB: less than 3x reduction", len(frame), raw)
	}
	// A version 2 frame is stored: the declared size is the frame's, to
	// the byte, for the owner's reply (which carries its length) and for
	// the same cells measured.
	if frame[0] != VersionRTK {
		t.Fatalf("an owner's reply framed as version %d", frame[0])
	}
	for name, r := range map[string]*core.RTKResponse{"owner's": resp, "measured": {Cells: resp.Cells}} {
		if got := SizeRTKResponse(r); got != int64(len(frame)) {
			t.Fatalf("%s reply: SizeRTKResponse %d, frame %d bytes", name, got, len(frame))
		}
	}
}

func TestDecodeRejectsOverclaimedCounts(t *testing.T) {
	// An RTK frame claiming 2^30 cells with a 3-byte body must error
	// before allocating anything of that order.
	payload := AppendUvarint(nil, 1<<30)
	if _, err := DecodeRTKResponse(Pack(nil, payload)); err == nil {
		t.Fatal("expected error for overclaimed cell count")
	}
	// Same for a cell entry count.
	payload = AppendUvarint(nil, 1)
	payload = AppendUvarint(payload, 1<<30)
	if _, err := DecodeRTKResponse(Pack(nil, payload)); err == nil {
		t.Fatal("expected error for overclaimed entry count")
	}
}

func TestModelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{0, 1, 8, 300} {
		w := make([]float64, dim)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		b := rng.NormFloat64()
		frame := AppendModel(nil, w, b)
		if got := SizeModel(w, b); got < int64(len(frame)) {
			t.Fatalf("dim=%d: SizeModel %d < actual frame %d", dim, got, len(frame))
		}
		gw, gb, err := DecodeModel(frame)
		if err != nil {
			t.Fatalf("dim=%d: %v", dim, err)
		}
		if gb != b || len(gw) != dim {
			t.Fatalf("dim=%d: decoded shape mismatch", dim)
		}
		for i := range w {
			if gw[i] != w[i] {
				t.Fatalf("dim=%d: weight %d corrupted", dim, i)
			}
		}
	}
	// Integral weights take the compact varint form: a zero model is tiny.
	zero := AppendModel(nil, make([]float64, 100), 0)
	if len(zero) >= 8*100 {
		t.Fatalf("all-integral model not compact: %d bytes", len(zero))
	}
	// Malformed inputs are rejected.
	good := AppendModel(nil, []float64{1.5, 2.5}, 0.5)
	for i, c := range [][]byte{nil, {99}, good[:len(good)-2], Pack(nil, AppendUvarint(nil, 1<<20))} {
		if _, _, err := DecodeModel(c); err == nil {
			t.Fatalf("case %d: malformed model accepted", i)
		}
	}
}
