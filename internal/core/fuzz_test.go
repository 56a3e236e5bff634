package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"csfltr/internal/dp"
	"csfltr/internal/sketch"
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
	past, err := os.ReadFile("testdata/owner_v2_explicit.snap") // past the cap, every zero written out
	if err != nil {
		f.Fatal(err)
	}
	f.Add(past)
	for _, o := range heldPrefixStates(f) {
		var buf bytes.Buffer
		if _, err := o.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
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
		// Both ways of finding a cut agree on every rank the one-pass way
		// takes.
		order := cellHeap{abs: abs}
		for _, row := range rows {
			cells := make([]RTKCell, len(row))
			for pi, part := range row {
				for _, e := range part {
					cells[pi].IDs = append(cells[pi].IDs, e.DocID)
					cells[pi].Values = append(cells[pi].Values, float64(e.Value))
				}
			}
			ranked := order.gather(cells, nil)
			for k := 0; k < len(ranked) && k <= smallOverflow; k++ {
				if got, want := order.cutSmall(cells, k), selectRank(slices.Clone(ranked), k); got != want {
					t.Fatalf("rank %d of %v: one pass finds %v, selection %v", k, ranked, got, want)
				}
			}
		}
	})
}

// heldPrefixStates returns small owners (cells cap at 4) in the states
// the held-prefix form has to get right: a bound lowered by an eviction, a
// cell back below the cap given a zero above its bound, a small removed id
// ingested again, and a batch past the cap. They seed
// FuzzReadOwner.
func heldPrefixStates(tb testing.TB) map[string]*Owner {
	tb.Helper()
	p := DefaultParams()
	p.Z, p.W, p.Z1, p.K, p.Alpha, p.Epsilon = 3, 8, 2, 2, 2, 0
	counts := func(id int) map[uint64]int64 {
		return map[uint64]int64{uint64(id % 5): int64(1 + id%3), uint64(7 + id%4): 1}
	}
	build := func(steps func(o *Owner) error) *Owner {
		o, err := NewOwner(p, 42, dp.Disabled())
		if err != nil {
			tb.Fatal(err)
		}
		if err := steps(o); err != nil {
			tb.Fatal(err)
		}
		return o
	}
	pastCap := func(o *Owner) error {
		for id := 0; id < 6; id++ {
			if err := o.AddDocument(id, counts(id)); err != nil {
				return err
			}
		}
		return o.AddDocument(6, map[uint64]int64{1: 9, 2: 9, 3: 9})
	}
	return map[string]*Owner{
		"evicted": build(pastCap),
		"zero above the bound": build(func(o *Owner) error {
			if err := pastCap(o); err != nil {
				return err
			}
			for _, id := range []int{2, 3, 4} {
				if err := o.RemoveDocument(id); err != nil {
					return err
				}
			}
			return o.AddDocument(9, nil)
		}),
		"small id again": build(func(o *Owner) error {
			if err := pastCap(o); err != nil {
				return err
			}
			if err := o.RemoveDocument(0); err != nil {
				return err
			}
			return o.AddDocument(0, counts(1))
		}),
		"batch past the cap": build(func(o *Owner) error {
			batch := make([]DocCounts, 9)
			for i := range batch {
				batch[i] = DocCounts{DocID: 8 - i, Counts: counts(i)}
			}
			return o.AddDocuments(batch)
		}),
	}
}

// FuzzRTKSketchOps drives owners at a tiny geometry (cells cap at 8)
// through any sequence of ingests and removals that crosses the cap in
// both directions, and after every step holds each to modelSketch, the
// plain-slice Algorithm 4: one owner keeps its document tables and one
// does not, so removals take both the marked-cells and the every-cell
// path. A third owner keeps its tables and loads every batch one
// AddDocument at a time, and must keep exactly what the first, which
// loads it with AddDocuments, keeps. A sketch whose model never had to
// evict must still have every cell unbounded.
//
// Encoding: one byte picks the sketch kind; then per step an operation
// byte and its arguments — AddDocument (id, two bytes of terms, the first
// with its top bit set for negative counts), AddDocuments (two
// operation values; a size, then per document an id and two bytes of
// terms; ids already live are skipped), RemoveDocument
// (which live document), a Cell read (row, column) and a snapshot
// reload. An id byte is taken mod 32, and 31 stands for math.MaxInt32.
// Missing bytes read as zero.
func FuzzRTKSketchOps(f *testing.F) {
	// Count Sketch; up past the cap one by one, a batch, a reload and a
	// read; down to nothing; up again in one batch.
	cross := []byte{0}
	for id := byte(0); id < 10; id++ {
		cross = append(cross, 0, id, id+5, 3*(id+5))
	}
	cross = append(cross, 2, 2, 20, 9, 7, 21, 4, 4, 22, 1, 1, 5, 4, 1, 2)
	for i := 0; i < 13; i++ {
		cross = append(cross, 3, byte(7*i))
	}
	cross = append(cross, 1, 3, 23, 5, 5, 24, 6, 6, 25, 7, 7, 26, 8, 8)
	f.Add(cross)
	f.Add([]byte{1, 0, 3, 9, 1, 0, 4, 9, 2, 5, 3, 0, 4, 0, 0, 5, 3, 1})
	f.Add([]byte{0, 2, 3, 0, 7, 1, 1, 7, 2, 2, 7, 3, 3, 7, 4, 4, 5, 3, 2, 3, 0})
	// Count-Min; past the cap one by one (bounds lowered by rejections and
	// evictions), three removals back below it, a document with no terms
	// (a zero above the bound), the smallest id removed and ingested
	// again, a batch past the cap, a read and a reload.
	held := []byte{1}
	for id := byte(0); id < 10; id++ {
		held = append(held, 0, 2*id, 1+id%3, 5*id)
	}
	held = append(held, 3, 9, 3, 5, 3, 1, 0, 30, 0, 0, 3, 0, 0, 0, 6, 4)
	held = append(held, 2, 3, 27, 7, 7, 21, 5, 5, 25, 6, 6, 23, 9, 9, 4, 1, 2, 5)
	f.Add(held)
	// The same with negative counts in half the documents.
	negative := slices.Clone(held)
	for i := 1; i+3 < 41; i += 4 {
		if i%8 == 1 {
			negative[i+2] |= 0x80
		}
	}
	f.Add(negative)
	// Id 31 is math.MaxInt32, a stored zero in a cell under no bound: one by
	// one to one under the cap, 31 with no terms fills every cell, and the
	// next document evicts it everywhere; a reload, a removal back below the
	// cap, 31 again and a read. Then Count-Min at the cap, where 31 with no
	// terms is turned away everywhere, a reload and 31 removed.
	largest := []byte{0}
	for id := byte(0); id < 7; id++ {
		largest = append(largest, 0, id, 1+id%3, 5*id)
	}
	largest = append(largest, 0, 31, 0, 0, 0, 7, 3, 9, 5, 3, 0, 0, 31, 0, 0, 4, 1, 2)
	f.Add(largest)
	rejected := []byte{1}
	for id := byte(0); id < 8; id++ {
		rejected = append(rejected, 0, id, 1+id%3, 5*id)
	}
	rejected = append(rejected, 0, 31, 0, 0, 5, 3, 8, 4, 2, 3)
	f.Add(rejected)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		p := DefaultParams()
		p.Z, p.W, p.Z1, p.Alpha, p.K, p.Epsilon = 3, 8, 2, 2, 4, 0
		if next()&1 == 1 {
			p.SketchKind = sketch.CountMin
		}
		withTables, err := NewOwner(p, 42, dp.Disabled())
		if err != nil {
			t.Fatal(err)
		}
		without, err := NewOwner(p, 42, dp.Disabled(), WithoutDocTables())
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewOwner(p, 42, dp.Disabled())
		if err != nil {
			t.Fatal(err)
		}
		owners := []*Owner{withTables, without, twin}
		m := newModelSketch(p)
		live := map[int]bool{}
		evicted := false
		counts := func() map[uint64]int64 {
			a, b := next(), next()
			sign := int64(1)
			if a&0x80 != 0 { // negative counts: Count-Min keys below every zero
				sign = -1
			}
			c := make(map[uint64]int64)
			for i := 0; i < int(a%4); i++ {
				c[uint64((int(b)+7*i)%16)] += sign * int64(1+(int(a>>2)+i)%3)
			}
			return c
		}
		docID := func() int {
			if id := int(next() % 32); id < 31 {
				return id
			}
			return math.MaxInt32 // stored as a zero under no bound
		}
		model := func(id int, c map[uint64]int64) {
			for _, cell := range m.cells {
				evicted = evicted || len(cell) == p.HeapCap()
			}
			m.add(t, id, c)
			live[id] = true
		}
		for step := 0; len(data) > 0 && step < 64; step++ {
			switch op := next() % 6; op {
			case 0:
				id, c := docID(), counts()
				if live[id] {
					continue
				}
				for _, o := range owners {
					if err := o.AddDocument(id, c); err != nil {
						t.Fatal(err)
					}
				}
				model(id, c)
			case 1, 2:
				var batch []DocCounts
				for n := 1 + int(next()%4); n > 0; n-- {
					d := DocCounts{DocID: docID(), Counts: counts()}
					if !live[d.DocID] && !slices.ContainsFunc(batch, func(b DocCounts) bool { return b.DocID == d.DocID }) {
						batch = append(batch, d)
					}
				}
				for _, o := range owners {
					if o != twin {
						if err := o.AddDocuments(batch); err != nil {
							t.Fatal(err)
						}
						continue
					}
					for _, d := range batch {
						if err := o.AddDocument(d.DocID, d.Counts); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, d := range batch {
					model(d.DocID, d.Counts)
				}
			case 3:
				ids := withTables.DocIDs()
				if len(ids) == 0 {
					continue
				}
				id := ids[int(next())%len(ids)]
				for _, o := range owners {
					if err := o.RemoveDocument(id); err != nil {
						t.Fatal(err)
					}
				}
				m.remove(id)
				delete(live, id)
			case 4:
				row, col := int(next())%p.Z, uint32(next())%uint32(p.W)
				want := slices.Clone(m.cells[row*p.W+int(col)])
				slices.SortFunc(want, func(a, b Entry) int { return int(a.DocID) - int(b.DocID) })
				for _, o := range owners {
					if got := o.rtk.Cell(row, col); !slices.Equal(got, want) {
						t.Fatalf("step %d: Cell(%d, %d) = %v, model %v", step, row, col, got, want)
					}
				}
			case 5:
				for i, o := range owners {
					loaded, err := ReadOwner(bytes.NewReader(snapshot(t, o)), dp.Disabled())
					if err != nil {
						t.Fatal(err)
					}
					owners[i] = loaded
				}
				withTables, twin = owners[0], owners[2]
			}
			for _, o := range owners {
				m.check(t, o.rtk)
				if o.rtk.NumDocs() != len(live) {
					t.Fatalf("step %d: NumDocs %d, %d documents live", step, o.rtk.NumDocs(), len(live))
				}
				if !evicted && o.rtk.held != nil {
					t.Fatalf("step %d: a bound is lowered, yet no cell ever had to evict", step)
				}
			}
			if !reflect.DeepEqual(residentState(withTables.rtk), residentState(twin.rtk)) {
				t.Fatalf("step %d: a batch and its documents one by one keep different entries", step)
			}
		}
	})
}
