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
// must never panic, and any accepted snapshot loads to cells that hold no
// zero and survives a re-snapshot round trip byte for byte. The seeds are
// zero-free snapshots beside the version 1 and 2 goldens, whose zeros the
// reader drops.
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
	past, err := os.ReadFile("testdata/owner_v2_explicit.snap") // past the cap, Algorithm 4's zeros written out
	if err != nil {
		f.Fatal(err)
	}
	f.Add(past)
	for _, o := range pastCapStates(f) {
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
		if c := cellWithZero(got.rtk); c >= 0 {
			t.Fatalf("accepted snapshot loads cell %d with a zero: %v", c, got.rtk.cells[c].entries)
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted owner failed to re-serialize: %v", err)
		}
		again, err := ReadOwner(bytes.NewReader(out.Bytes()), dp.Disabled())
		if err != nil {
			t.Fatalf("re-serialized owner rejected: %v", err)
		}
		if !bytes.Equal(snapshot(t, again), out.Bytes()) {
			t.Fatal("save -> load -> save is not byte-stable")
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
// must return what the estimate-everything reference does. Every reply
// is recovered with two private rows of the four and with three: only
// with three can a document some row holds be absent from more than
// half of them, which is where the zero-fill count bound skips it. Every
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
	p.K = 3
	p.Epsilon = 0
	var plans []*Plan
	for _, z1 := range []int{2, 3} {
		p.Z1 = z1
		q, err := NewQuerier(p, 42, rand.New(rand.NewSource(1)))
		if err != nil {
			f.Fatal(err)
		}
		plans = append(plans, q.Plan(3))
	}
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
	wide, _ := (&RTKResponse{Cells: []RTKCell{ // ids at both int32 extremes
		{IDs: []int32{math.MinInt32, 0, math.MaxInt32}, Values: []float64{5, 6, 7}},
		{IDs: []int32{math.MinInt32, 1, math.MaxInt32}, Values: []float64{8, 9, 10}},
		{IDs: []int32{0, math.MaxInt32}, Values: []float64{3, 4}}, {IDs: []int32{math.MinInt32}, Values: []float64{2}},
	}}).AppendPayload(nil)
	f.Add(wide)
	f.Add([]byte{4, 3, 3, 156, 0, 100, 5, 6, 7, 3, 3, 156, 1, 100, 8, 9, 10, 2, 2, 0, 100, 3, 4, 1, 1, 156, 2}) // ids -100 to 100: windows apart
	recoverFrom := func(t *testing.T, resp *RTKResponse, offered map[int]bool) {
		for _, plan := range plans {
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
					t.Fatalf("z1=%d, k=%d: %v\n got %v\nwant %v", plan.params.Z1, k, err, got, want)
				}
			}
			for _, dc := range docs {
				if !offered[dc.DocID] {
					t.Fatalf("result %+v was never offered by the response", dc)
				}
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
// gather-sort-cut oracle on the input shards produce: partitions with
// disjoint, ascending ids and no zero value, since a cell holds only what
// documents put in it. The output must equal the oracle's, strictly
// ascending, with exactly min(n, heapCap) entries (see checkMerge).
// (TestMergeRTKResponsesMatchesOracle merges rows with zeros too.)
//
// Encoding: partition count, cap and flags (abs, the draw), then one byte
// pair per entry — the first picks the partition and how far the id
// advances (ids only grow, which makes every partition ascending and all
// of them disjoint), the second is the value as a signed byte, 0 for a
// document that put nothing in the cell and is not offered. Pairs are
// dealt to two rows alternately.
func FuzzMergeRTKResponses(f *testing.F) {
	f.Add([]byte{4, 3, 1, 0, 5, 1, 5, 2, 0, 3, 0, 0, 251, 1, 5, 2, 0})
	f.Add([]byte{2, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0}) // every key ties, cap 2
	f.Add([]byte{1, 0, 3, 7, 9, 7, 9, 7, 9})       // one partition over a cap of 1
	f.Add([]byte{5, 31, 2})                        // no entries at all
	// Mostly absent, over three parts that take turns, so the tail scan
	// switches part at every entry; cap 5.
	f.Add([]byte{2, 4, 1, 0, 0, 1, 0, 2, 3, 0, 0, 1, 0, 2, 0, 0, 253, 1, 0, 2, 0, 0, 0, 1, 0, 2, 1, 0, 0, 1, 0, 2, 0, 0, 0, 1, 2, 2, 0, 0, 0, 1, 0, 2, 0, 0, 0, 1, 255, 2, 0})
	// Every document present, under Count-Min with noise.
	f.Add([]byte{2, 4, 2, 16, 1, 1, 255, 2, 2, 0, 3, 17, 254, 2, 1, 0, 4, 1, 253, 18, 1, 0, 2, 1, 255, 2, 5, 16, 3, 1, 254, 2, 1, 0, 2, 17, 252, 2, 3, 0, 1, 1, 255, 18, 2, 0, 4, 1, 253, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nparts, heapCap := 1+int(data[0])%5, 1+int(data[1])%32
		abs, draw := data[2]&1 != 0, float64(data[2]>>1&3)*0.37
		rows := []mergeRow{make(mergeRow, nparts), make(mergeRow, nparts)}
		id := int32(0)
		for i, pairs := 0, data[3:]; len(pairs) >= 2; i, pairs = i+1, pairs[2:] {
			id += 1 + int32(pairs[0]>>4)
			if pairs[1] == 0 {
				continue
			}
			part := &rows[i%2][int(pairs[0])%nparts]
			*part = append(*part, Entry{DocID: id, Value: int32(int8(pairs[1]))})
		}
		checkMerge(t, rows, heapCap, abs, draw)
		// The tail scan drops, for every overflow it takes, the entries
		// selection leaves below that rank.
		var sc mergeScratch
		for _, row := range rows {
			cells := make([]RTKCell, len(row))
			for pi, part := range row {
				for _, e := range part {
					cells[pi].IDs = append(cells[pi].IDs, e.DocID)
					cells[pi].Values = append(cells[pi].Values, float64(e.Value))
				}
			}
			ranked := (&cellHeap{abs: abs}).gather(cells, nil)
			for k := 1; k <= len(ranked) && k <= smallOverflow; k++ {
				sel := slices.Clone(ranked)
				selectRank(sel, k-1)
				want := make([]int32, k)
				for i, e := range sel[:k] {
					want[i] = e.DocID
				}
				slices.Sort(want)
				if got := sc.drops(cells, k, abs); !slices.Equal(got, want) {
					t.Fatalf("overflow %d of %v: the tail scan drops %v, selection %v", k, ranked, got, want)
				}
			}
		}
	})
}

// pastCapStates returns small owners (cells cap at 4) past the cap: after
// an eviction, back below the cap with a document of no terms added, a
// small removed id ingested again, and a batch past the cap. Their
// zero-free snapshots seed FuzzReadOwner.
func pastCapStates(tb testing.TB) map[string]*Owner {
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
		"below the cap again": build(func(o *Owner) error {
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
// plain-slice zero-free Algorithm 4: one owner keeps its document tables
// and one does not, so removals take both the row's-cells and the
// every-cell path. A third owner keeps its tables and loads every batch
// one AddDocument at a time, and must keep exactly what the first, which
// loads it with AddDocuments, keeps.
//
// Encoding: one byte picks the sketch kind; then per step an operation
// byte and its arguments — AddDocument (id, two bytes of terms, the first
// with its top bit set for negative counts), AddDocuments (two
// operation values; a size byte — one to four documents, or with its top
// bit set one to sixteen, twice the cap — then per document an id and two
// bytes of terms; ids already live are skipped), RemoveDocument
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
	// Count-Min; past the cap one by one (rejections and evictions), three
	// removals back below it, a document with no terms (in no cell), the
	// smallest id removed and ingested again, a batch past the cap, a read
	// and a reload.
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
	// Id 31 is math.MaxInt32, the id that loses every key tie: one by one
	// to one under the cap, 31 with no terms (in no cell), the next
	// document; a reload, a removal, 31 again and a read. Then Count-Min
	// at the cap, 31 with no terms, a reload and 31 removed.
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
	// A batch of twelve, past the cap, lands on a sketch past it with id 3
	// removed: ids above every live one, below them
	// and back, 31 among them. Count Sketch, Count-Min, and Count-Min over
	// negative counts in half the batch after a reload, so the batch meets
	// floors read from a snapshot; then a read, a reload and a read.
	for v, kind := range []byte{0, 1, 1} {
		big := []byte{kind}
		for id := byte(0); id < 10; id++ {
			big = append(big, 0, id, 1+id%3, 5*id)
		}
		big = append(big, 3, 3)
		if v == 2 {
			big = append(big, 5)
		}
		big = append(big, 2, 0x80|11)
		for i, id := range []byte{20, 3, 15, 10, 31, 12, 11, 25, 13, 14, 26, 27} {
			a := 1 + byte(i)%3
			if v == 2 && i%2 == 0 {
				a |= 0x80
			}
			big = append(big, id, a, 3*id+byte(i))
		}
		f.Add(append(big, 4, 1, 2, 5, 4, 2, 5))
	}
	// One document at a time, ids ascending, three terms each, three times
	// the cap: every full cell an add beats settles by what enters and
	// leaves, and its floor climbs through the keys. Then an id below every live one, a read and a reload. Count
	// Sketch and Count-Min.
	for _, kind := range []byte{0, 1} {
		online := []byte{kind}
		for id := byte(0); id < 24; id++ {
			online = append(online, 0, id, 3+4*(id%5), 3*id+1)
		}
		f.Add(append(online, 3, 0, 0, 0, 7, 9, 4, 2, 6, 5, 4, 1, 3))
	}
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
		counts := func() map[uint64]int64 {
			a, b := next(), next()
			sign := int64(1)
			if a&0x80 != 0 { // negative counts: Count-Min keys below zero
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
			return math.MaxInt32 // loses every key tie
		}
		model := func(id int, c map[uint64]int64) {
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
				size := next()
				n := 1 + int(size%4)
				if size&0x80 != 0 {
					n = 1 + int(size%16)
				}
				for ; n > 0; n-- {
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
			}
			if !reflect.DeepEqual(residentState(withTables.rtk), residentState(twin.rtk)) {
				t.Fatalf("step %d: a batch and its documents one by one keep different entries", step)
			}
		}
	})
}
