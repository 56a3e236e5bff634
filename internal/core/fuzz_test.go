package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"

	"csfltr/internal/dp"
)

// FuzzReadOwner hardens the owner-snapshot deserializer: arbitrary bytes
// must never panic, and any accepted snapshot must survive a re-snapshot
// round trip.
func FuzzReadOwner(f *testing.F) {
	p := DefaultParams()
	p.Z = 3
	p.W = 8
	p.Z1 = 2
	p.K = 2
	p.Alpha = 2
	p.Epsilon = 0
	o, err := NewOwner(p, 42, dp.Disabled())
	if err != nil {
		f.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if err := o.AddDocument(id, map[uint64]int64{uint64(id + 1): 2}); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(buf.Bytes()[:20])
	v1, err := os.ReadFile("testdata/owner_v1.snap") // dense document tables
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	var v2 bytes.Buffer // the same corpus as v1: compact tables, narrow and wide
	if _, err := v1Corpus(f).WriteTo(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadOwner(bytes.NewReader(data), dp.Disabled())
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted owner failed to re-serialize: %v", err)
		}
		if _, err := ReadOwner(bytes.NewReader(out.Bytes()), dp.Disabled()); err != nil {
			t.Fatalf("re-serialized owner rejected: %v", err)
		}
	})
}

// FuzzRTKQueryHandling hardens the owner's query handlers against
// malformed column vectors.
func FuzzRTKQueryHandling(f *testing.F) {
	p := DefaultParams()
	p.Z = 4
	p.W = 16
	p.Z1 = 2
	p.K = 2
	p.Epsilon = 0
	o, err := NewOwner(p, 42, dp.Disabled())
	if err != nil {
		f.Fatal(err)
	}
	if err := o.AddDocument(0, map[uint64]int64{3: 2}); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{255, 255})
	f.Fuzz(func(t *testing.T, raw []byte) {
		cols := make([]uint32, len(raw))
		for i, b := range raw {
			cols[i] = uint32(b)
		}
		q := &TFQuery{Cols: cols}
		// Both handlers must either answer or reject; never panic.
		if resp, err := o.AnswerRTK(q); err == nil {
			if len(resp.Cells) != p.Z {
				t.Fatal("accepted query answered with wrong geometry")
			}
		}
		if resp, err := o.AnswerTF(0, q); err == nil {
			if len(resp.Values) != p.Z {
				t.Fatal("accepted TF query answered with wrong geometry")
			}
		}
	})
}

// FuzzRTKResponseHandling hardens the querier's recovery against
// whatever a remote party puts in an RTK response — wrong cell counts,
// id/value length mismatches, unordered or repeated ids, NaN and
// infinite values: RTKWithPlan must reject or recover, never panic, may
// only ever return documents the response offered, and — at k = 1, where
// the floor it prunes against is set by the first candidate, as at K —
// must return what the estimate-everything reference does. Every
// recovery ends its reply (the stub hands each its own), and a decoded
// reply that is released must not change the next decode.
//
// Encoding: one byte of cell count, then per cell an id count, a value
// count, the ids (signed bytes) and the values (signed bytes, with three
// codes standing for NaN, +Inf and -Inf). Missing bytes read as zero.
func FuzzRTKResponseHandling(f *testing.F) {
	p := DefaultParams()
	p.Z = 4
	p.W = 16
	p.Z1 = 2
	p.K = 3
	p.Epsilon = 0
	q, err := NewQuerier(p, 42, rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	plan := q.Plan(3)
	f.Add([]byte{4, 3, 2, 1, 2, 3, 10, 20, 3, 2, 1, 2, 3, 10, 20, 3, 2, 1, 2, 3, 10, 20, 3, 2, 1, 2, 3, 10, 20}) // every row: 3 ids, 2 values
	f.Add([]byte{4, 2, 2, 1, 2, 5, 6, 2, 2, 2, 3, 7, 8, 1, 1, 2, 9, 0, 0})                                       // well-formed
	f.Add([]byte{4, 2, 2, 2, 1, 5, 6, 2, 2, 1, 1, 7, 8})                                                         // descending, duplicate
	f.Add([]byte{4, 1, 1, 1, 128, 1, 1, 1, 129, 1, 1, 1, 130, 1, 1, 2, 128})                                     // NaN, +Inf, -Inf
	f.Add([]byte{9})
	// The same bytes are also read as a version 2 payload, the form a
	// remote party's reply arrives in: a well-formed one, and that cut
	// short.
	payload, _ := (&RTKResponse{Cells: []RTKCell{
		{IDs: []int32{1, 2}, Values: []float64{5, 6}}, {IDs: []int32{2, 3}, Values: []float64{7, 8}},
		{IDs: []int32{2}, Values: []float64{9}}, {},
	}}).AppendPayload(nil)
	f.Add(payload)
	f.Add(payload[:len(payload)-3])
	recoverFrom := func(t *testing.T, resp *RTKResponse, offered map[int]bool) {
		docs, _, err := RTKWithPlan(plan, stubOwner{resp: resp}, p.K)
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if len(docs) > p.K {
			t.Fatalf("%d results for k=%d", len(docs), p.K)
		}
		for _, k := range []int{1, p.K} {
			got, _, _ := RTKWithPlan(plan, stubOwner{resp: resp}, k)
			want, _, _ := refRTKWithPlan(plan, stubOwner{resp: resp}, k)
			if err := sameDocCounts(got, want); err != nil {
				t.Fatalf("k=%d: %v\n got %v\nwant %v", k, err, got, want)
			}
		}
		for _, dc := range docs {
			if !offered[dc.DocID] {
				t.Fatalf("result %+v was never offered by the response", dc)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if resp, err := DecodeRTKPayload(data); err == nil {
			if again, ok := resp.AppendPayload(nil); !ok || !bytes.Equal(again, data) {
				t.Fatalf("payload % x decodes, and re-encodes to % x (%v)", data, again, ok)
			}
			offered := make(map[int]bool)
			for _, cell := range resp.Cells {
				for _, id := range cell.IDs {
					offered[int(id)] = true
				}
			}
			recoverFrom(t, resp, offered)
			// The reply ends here; the same bytes, decoded into what it left
			// behind, must give the same reply.
			resp.Release()
			if resp, err = DecodeRTKPayload(data); err != nil {
				t.Fatalf("payload % x decoded once, then failed: %v", data, err)
			}
			if again, ok := resp.AppendPayload(nil); !ok || !bytes.Equal(again, data) {
				t.Fatalf("payload % x, decoded into recycled memory, re-encodes to % x (%v)", data, again, ok)
			}
		} else if !errors.Is(err, ErrBadQuery) {
			t.Fatalf("unexpected decode error class: %v", err)
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		resp := &RTKResponse{Cells: make([]RTKCell, int(next())%12)}
		offered := make(map[int]bool)
		for a := range resp.Cells {
			nIDs, nVals := int(next())%16, int(next())%16
			cell := RTKCell{IDs: make([]int32, nIDs), Values: make([]float64, nVals)}
			for i := range cell.IDs {
				cell.IDs[i] = int32(int8(next()))
				offered[int(cell.IDs[i])] = true
			}
			for i := range cell.Values {
				switch b := next(); b {
				case 128:
					cell.Values[i] = math.NaN()
				case 129:
					cell.Values[i] = math.Inf(1)
				case 130:
					cell.Values[i] = math.Inf(-1)
				default:
					cell.Values[i] = float64(int8(b))
				}
			}
			resp.Cells[a] = cell
		}
		recoverFrom(t, resp, offered)
	})
}

// FuzzMergeRTKResponses holds the shard facade's merge to the
// gather-sort-cut oracle on arbitrary well-formed input: partitions with
// disjoint, ascending ids. The output must equal the oracle's, strictly
// ascending, with exactly min(n, heapCap) entries (see checkMerge).
//
// Encoding: partition count, cap and flags (abs, noise), then one byte
// pair per entry — the first picks the partition and how far the id
// advances (ids only grow, which makes every partition ascending and all
// of them disjoint), the second is the value as a signed byte. Pairs are
// dealt to two rows alternately.
func FuzzMergeRTKResponses(f *testing.F) {
	f.Add([]byte{4, 3, 1, 0, 5, 1, 5, 2, 0, 3, 0, 0, 251, 1, 5, 2, 0})
	f.Add([]byte{2, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0}) // every key ties, cap 2
	f.Add([]byte{1, 0, 3, 7, 9, 7, 9, 7, 9})       // one partition over a cap of 1
	f.Add([]byte{5, 31, 2})                        // no entries at all
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nparts, heapCap := 1+int(data[0])%5, 1+int(data[1])%32
		abs, noise := data[2]&1 != 0, float64(data[2]>>1&3)*0.37
		rows := []mergeRow{make(mergeRow, nparts), make(mergeRow, nparts)}
		id := int32(0)
		for i, pairs := 0, data[3:]; len(pairs) >= 2; i, pairs = i+1, pairs[2:] {
			id += 1 + int32(pairs[0]>>4)
			part := &rows[i%2][int(pairs[0])%nparts]
			*part = append(*part, Entry{DocID: id, Value: int32(int8(pairs[1]))})
		}
		checkMerge(t, rows, heapCap, abs, noise)
	})
}
