package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"csfltr/internal/corpus"
	"csfltr/internal/dp"
	"csfltr/internal/sketch"
	"csfltr/internal/zipf"
)

// snapshotOwner builds an owner with deterministic content and returns
// its serialized snapshot.
func snapshotOwner(t *testing.T, keepTables bool) (*Owner, []byte) {
	t.Helper()
	p := testParams()
	p.K = 5
	p.Alpha = 2
	var opts []OwnerOption
	if !keepTables {
		opts = append(opts, WithoutDocTables())
	}
	o, err := NewOwner(p, 42, dp.Disabled(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for id := 0; id < 25; id++ {
		counts := map[uint64]int64{uint64(1000 + id): int64(25 - id)}
		for j := 0; j < 20; j++ {
			counts[uint64(rng.Intn(300))]++
		}
		if err := o.AddDocument(id, counts); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	n, err := o.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return o, buf.Bytes()
}

func TestOwnerSnapshotRoundTrip(t *testing.T) {
	for _, keep := range []bool{true, false} {
		orig, data := snapshotOwner(t, keep)
		got, err := ReadOwner(bytes.NewReader(data), dp.Disabled())
		if err != nil {
			t.Fatalf("keep=%v: %v", keep, err)
		}
		if got.Params() != orig.Params() {
			t.Fatal("params lost")
		}
		if got.Family().Seed() != orig.Family().Seed() {
			t.Fatal("hash seed lost")
		}
		if got.RTK().NumDocs() != orig.RTK().NumDocs() {
			t.Fatalf("doc count lost: %d vs %d", got.RTK().NumDocs(), orig.RTK().NumDocs())
		}
		if got.RTKSizeBytes() != orig.RTKSizeBytes() {
			t.Fatal("RTK payload size differs")
		}
		// Queries behave identically.
		q, err := NewQuerier(orig.Params(), 42, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		a, _, err := RTKReverseTopK(q, orig, 1003, 5)
		if err != nil {
			t.Fatal(err)
		}
		q2, _ := NewQuerier(orig.Params(), 42, rand.New(rand.NewSource(8)))
		b, _, err := RTKReverseTopK(q2, got, 1003, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatal("restored owner answers differently")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("keep=%v: result %d differs: %v vs %v", keep, i, a[i], b[i])
			}
		}
	}
}

func TestReadOwnerTruncation(t *testing.T) {
	_, data := snapshotOwner(t, true)
	// Every strict prefix must fail cleanly with ErrCorruptState, never
	// panic or succeed.
	for _, cut := range []int{0, 3, 4, 8, 10, 30, 60, len(data) / 2, len(data) - 1} {
		if cut >= len(data) {
			continue
		}
		if _, err := ReadOwner(bytes.NewReader(data[:cut]), dp.Disabled()); !errors.Is(err, ErrCorruptState) {
			t.Fatalf("cut=%d: want ErrCorruptState, got %v", cut, err)
		}
	}
}

func TestReadOwnerBadMagicAndVersion(t *testing.T) {
	_, data := snapshotOwner(t, true)
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := ReadOwner(bytes.NewReader(bad), dp.Disabled()); !errors.Is(err, ErrCorruptState) {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), data...)
	bad[4] = 0xff // version
	if _, err := ReadOwner(bytes.NewReader(bad), dp.Disabled()); !errors.Is(err, ErrCorruptState) {
		t.Fatal("bad version accepted")
	}
	if _, err := ReadOwner(bytes.NewReader(data), nil); !errors.Is(err, ErrBadParams) {
		t.Fatal("nil mechanism accepted")
	}
}

func TestReadOwnerRejectsInvalidParams(t *testing.T) {
	_, data := snapshotOwner(t, true)
	bad := append([]byte(nil), data...)
	// Z field (first geometry u64 after magic+version+2 kind u32s).
	off := 4 + 4 + 4 + 4
	for i := 0; i < 8; i++ {
		bad[off+i] = 0
	}
	if _, err := ReadOwner(bytes.NewReader(bad), dp.Disabled()); !errors.Is(err, ErrCorruptState) {
		t.Fatal("zero Z accepted")
	}
	// Z and W each within their own cap, 2^12 * 2^21 cells together: the
	// reader must refuse before it allocates them.
	binary.LittleEndian.PutUint64(bad[off:], 1<<12)
	binary.LittleEndian.PutUint64(bad[off+8:], 1<<21)
	if _, err := ReadOwner(bytes.NewReader(bad), dp.Disabled()); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("8G cells: want ErrCorruptState, got %v", err)
	}
}

func TestOwnerAccessors(t *testing.T) {
	p := testParams()
	o, err := NewOwner(p, 42, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	if o.Params() != p {
		t.Fatal("Params accessor wrong")
	}
	if o.Family() == nil || o.Family().Z() != p.Z {
		t.Fatal("Family accessor wrong")
	}
	q, err := NewQuerier(p, 42, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if q.Params() != p {
		t.Fatal("querier Params accessor wrong")
	}
	if o.RTK().Params() != p {
		t.Fatal("RTK Params accessor wrong")
	}
}

func TestSnapshotSketchKindPreserved(t *testing.T) {
	p := testParams()
	p.SketchKind = sketch.CountMin
	o, err := NewOwner(p, 42, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddDocument(0, map[uint64]int64{5: 4}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadOwner(&buf, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	if got.Params().SketchKind != sketch.CountMin {
		t.Fatal("sketch kind lost in snapshot")
	}
}

// TestSnapshotSparseRoundTrip: a sketch loaded in one batch writes the
// snapshot and keeps the cells of the same documents ingested one by
// one, and loads back as it was — save, load, save is byte-equal and the
// reload keeps every cell, floors included. An owner that went past
// alpha*K and shrank back below it has cells that lost entries to the
// cap; it reloads byte-stable too.
func TestSnapshotSparseRoundTrip(t *testing.T) {
	p := testParams()
	p.W, p.Alpha, p.K = 64, 2, 2 // cells cap at 4
	docs := bulkBatch(24, 12, 9)
	for _, keep := range []bool{true, false} {
		newOwner := func(batch bool) *Owner {
			var opts []OwnerOption
			if !keep {
				opts = append(opts, WithoutDocTables())
			}
			o, err := NewOwner(p, 42, dp.Disabled(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if batch {
				if err := o.AddDocuments(docs[:18]); err != nil {
					t.Fatal(err)
				}
				return o
			}
			for _, d := range docs[:18] {
				if err := o.AddDocument(d.DocID, d.Counts); err != nil {
					t.Fatal(err)
				}
			}
			return o
		}
		reload := func(o *Owner) {
			t.Helper()
			saved := snapshot(t, o)
			loaded, err := ReadOwner(bytes.NewReader(saved), dp.Disabled())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapshot(t, loaded), saved) {
				t.Fatalf("keep=%v: save -> load -> save is not byte-stable", keep)
			}
			if !reflect.DeepEqual(residentState(loaded.rtk), residentState(o.rtk)) {
				t.Fatalf("keep=%v: the reload keeps other cells", keep)
			}
		}

		one, each := newOwner(true), newOwner(false)
		if !bytes.Equal(snapshot(t, one), snapshot(t, each)) || !reflect.DeepEqual(residentState(one.rtk), residentState(each.rtk)) {
			t.Fatalf("keep=%v: a batch writes or keeps other cells than its documents one by one", keep)
		}
		reload(one)

		shrunk := newOwner(true)
		for _, d := range docs[18:] {
			if err := shrunk.AddDocument(d.DocID, d.Counts); err != nil {
				t.Fatal(err)
			}
		}
		if shrunk.rtk.MaxCellLoad() < p.HeapCap() {
			t.Fatal("setup: no cell filled")
		}
		for _, d := range docs[18:] {
			if err := shrunk.RemoveDocument(d.DocID); err != nil {
				t.Fatal(err)
			}
		}
		reload(shrunk)
	}
}

// TestSparseResidentBytes pins what zero-free cells save at the
// benchmark geometry (z = 30, w = 200, alpha*K = 250) on generated
// documents, against the cells of Algorithm 4 as stated, which top up
// with zero entries to min(n, alpha*K) each: a shard-sized owner of 64
// bodies, 30 % of whose cells are non-zero; and an owner of 1 200
// titles, past the cap in every topped-up cell, whose cells hold a few
// non-zero entries. Each holds at most its share of the topped-up bytes,
// and RTKSizeBytes — Fig. 4's quantity — counts what the cells hold.
func TestSparseResidentBytes(t *testing.T) {
	p := DefaultParams()
	p.K = 50
	for _, row := range []struct {
		docs     int
		field    string
		ceilingP int64 // percent of the topped-up bytes
	}{
		{64, "body", 40},
		{1200, "title", 25},
	} {
		cc := corpus.DefaultConfig()
		cc.NumParties, cc.DocsPerParty, cc.DocLen, cc.QueriesPerParty = 1, row.docs, 120, 1
		c, err := corpus.Generate(cc)
		if err != nil {
			t.Fatal(err)
		}
		docs := make([]DocCounts, len(c.Parties[0].Docs))
		for i, d := range c.Parties[0].Docs {
			tv := d.BodyCounts()
			if row.field == "title" {
				tv = d.TitleCounts()
			}
			counts := make(map[uint64]int64)
			for term, n := range tv {
				counts[uint64(term)] = int64(n)
			}
			docs[i] = DocCounts{DocID: d.ID, Counts: counts}
		}
		o := newOwnerT(t, p)
		if err := o.AddDocuments(docs); err != nil {
			t.Fatal(err)
		}
		held := int64(0)
		for c := range o.rtk.cells {
			held += int64(8 * len(o.rtk.cells[c].entries))
		}
		if got := o.RTKSizeBytes(); got != held {
			t.Fatalf("%d %ss: RTKSizeBytes = %d, the cells hold %d", row.docs, row.field, got, held)
		}
		toppedUp := int64(8 * min(len(docs), p.HeapCap()) * p.Z * p.W)
		if 100*held > row.ceilingP*toppedUp {
			t.Fatalf("%d %ss: the sketch holds %d bytes of %d topped up: more than %d %%", row.docs, row.field, held, toppedUp, row.ceilingP)
		}
		t.Logf("%d %ss: %d B of %d topped up (%.1f %%)", row.docs, row.field, held, toppedUp, 100*float64(held)/float64(toppedUp))
	}
}

// pastCapCorpus builds the owner whose snapshot, written by the last
// commit that stored every zero of a cell past alpha*K, is
// testdata/owner_v2_explicit.snap: twelve documents against cells that
// cap at 4, a third of them without terms. Small, because it also seeds
// FuzzReadOwner.
func pastCapCorpus(t testing.TB) *Owner {
	t.Helper()
	p := DefaultParams()
	p.Z, p.W, p.Z1, p.K, p.Alpha, p.Epsilon = 3, 8, 2, 2, 2, 0
	o, err := NewOwner(p, 42, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	for id := 0; id < 12; id++ {
		counts := map[uint64]int64{}
		if id%3 != 1 {
			for j := 0; j < 2; j++ {
				counts[uint64(rng.Intn(40))] += int64(1 + rng.Intn(3))
			}
		}
		if err := o.AddDocument(id, counts); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// TestReadOwnerPastCap: a snapshot of an owner past alpha*K, written when
// its cells stored Algorithm 4's zeros, loads to the owner the same
// corpus builds today — its cells' zeros dropped, every RTK answer at
// epsilon = 0 the same, the same cells and bytes — and saves the
// snapshot that owner saves.
func TestReadOwnerPastCap(t *testing.T) {
	past, err := os.ReadFile("testdata/owner_v2_explicit.snap")
	if err != nil {
		t.Fatal(err)
	}
	old, err := ReadOwner(bytes.NewReader(past), dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	fresh := pastCapCorpus(t)
	p := fresh.Params()
	for col := 0; col < p.W; col++ {
		q := &TFQuery{Cols: make([]uint32, p.Z)}
		for a := range q.Cols {
			q.Cols[a] = uint32((col + 3*a) % p.W)
		}
		want, err := fresh.AnswerRTK(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := old.AnswerRTK(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AnswerRTK(%v): loaded %v, built %v", q.Cols, got.Cells, want.Cells)
		}
	}
	if !bytes.Equal(snapshot(t, old), snapshot(t, fresh)) {
		t.Fatal("the snapshot, loaded and saved, differs from the built owner's")
	}
	if !reflect.DeepEqual(residentState(old.rtk), residentState(fresh.rtk)) {
		t.Fatal("the loaded owner keeps other cells than the built one")
	}
	if got, want := old.RTKSizeBytes(), fresh.RTKSizeBytes(); got != want {
		t.Fatalf("loaded owner holds %d bytes, the built one %d", got, want)
	}
}

// v1Corpus builds the owner whose version-1 snapshot, written by the last
// commit that kept dense document tables, is testdata/owner_v1.snap: cells
// over capacity (6 documents, cap 2) and one document whose counter does
// not fit the narrow compact encoding. Small, because it also seeds
// FuzzReadOwner.
func v1Corpus(t testing.TB) *Owner {
	t.Helper()
	p := DefaultParams()
	p.Z, p.W, p.Z1, p.K, p.Alpha, p.Epsilon = 3, 8, 2, 2, 1, 0
	o, err := NewOwner(p, 42, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for id := 0; id < 6; id++ {
		counts := map[uint64]int64{uint64(100 + id): int64(6 - id)}
		for j := 0; j < 3; j++ {
			counts[uint64(rng.Intn(60))]++
		}
		if id == 4 {
			counts[555] = 40_000 // beyond the narrow encoding
		}
		if err := o.AddDocument(id, counts); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// TestReadOwnerVersion1: a snapshot from before document tables were
// compact loads to the owner the same corpus builds today — every TF and
// RTK answer at epsilon = 0, and the snapshot it writes next.
func TestReadOwnerVersion1(t *testing.T) {
	v1, err := os.ReadFile("testdata/owner_v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	if v1[4] != 1 {
		t.Fatalf("testdata/owner_v1.snap is version %d", v1[4])
	}
	old, err := ReadOwner(bytes.NewReader(v1), dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	fresh := v1Corpus(t)
	p := fresh.Params()
	for col := 0; col < p.W; col++ {
		q := &TFQuery{Cols: make([]uint32, p.Z)}
		for a := range q.Cols {
			q.Cols[a] = uint32((col + 5*a) % p.W)
		}
		want, err := fresh.AnswerRTK(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := old.AnswerRTK(q)
		if err != nil {
			t.Fatal(err)
		}
		for a := range want.Cells {
			if !slices.Equal(got.Cells[a].IDs, want.Cells[a].IDs) || !slices.Equal(got.Cells[a].Values, want.Cells[a].Values) {
				t.Fatalf("AnswerRTK(%v) row %d: loaded %v, built %v", q.Cols, a, got.Cells[a], want.Cells[a])
			}
		}
		for _, id := range fresh.DocIDs() {
			want, err := fresh.AnswerTF(id, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := old.AnswerTF(id, q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Values, want.Values) {
				t.Fatalf("AnswerTF(%d, %v): loaded %v, built %v", id, q.Cols, got.Values, want.Values)
			}
		}
	}
	if old.DocTableBytes() != fresh.DocTableBytes() {
		t.Fatalf("loaded tables occupy %d bytes, built ones %d", old.DocTableBytes(), fresh.DocTableBytes())
	}
	var resaved, v2 bytes.Buffer
	if _, err := old.WriteTo(&resaved); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), v2.Bytes()) {
		t.Fatal("a version-1 snapshot, loaded and saved, differs from the current snapshot of the same corpus")
	}
	if v2.Bytes()[4] != byte(persistVersion) {
		t.Fatalf("snapshots are written as version %d, want %d", v2.Bytes()[4], persistVersion)
	}
}

// cellWithZero returns the first cell of s that holds a zero entry, or
// -1 if none does.
func cellWithZero(s *RTKSketch) int {
	for c := range s.cells {
		if slices.ContainsFunc(s.cells[c].entries, func(e Entry) bool { return e.Value == 0 }) {
			return c
		}
	}
	return -1
}

// TestGoldenSnapshotsLoadZeroFree: each checked-in snapshot of an older
// version — version 1's dense tables, and version 2 past the cap with
// Algorithm 4's zeros written out — loads to cells that hold no zero, and
// saves a current-version snapshot that loads and saves byte for byte.
func TestGoldenSnapshotsLoadZeroFree(t *testing.T) {
	for _, name := range []string{"testdata/owner_v1.snap", "testdata/owner_v2_explicit.snap"} {
		golden, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		o, err := ReadOwner(bytes.NewReader(golden), dp.Disabled())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c := cellWithZero(o.rtk); c >= 0 {
			t.Fatalf("%s: cell %d holds a zero: %v", name, c, o.rtk.cells[c].entries)
		}
		saved := snapshot(t, o)
		if saved[4] != byte(persistVersion) {
			t.Fatalf("%s: saved as version %d, want %d", name, saved[4], persistVersion)
		}
		again, err := ReadOwner(bytes.NewReader(saved), dp.Disabled())
		if err != nil {
			t.Fatalf("%s: the saved snapshot does not load: %v", name, err)
		}
		if !bytes.Equal(snapshot(t, again), saved) {
			t.Fatalf("%s: save -> load -> save is not byte-stable", name)
		}
	}
}

// TestDocTableDiet pins what keeping document tables compact buys at the
// benchmark geometry (z = 30, w = 200), over 1 200 documents of 120
// Zipf-drawn tokens: resident tables at most a twelfth of the dense ones
// the NAIVE accounting still reports, their snapshot section at least 4x
// smaller than version 1 wrote it, the whole snapshot at least 2x. The
// resident layout and the snapshot's version-2 words differ, so the two
// sizes are measured apart.
func TestDocTableDiet(t *testing.T) {
	p := DefaultParams()
	p.K = 50
	o, err := NewOwner(p, 42, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	dist := zipf.MustNew(2000, 1.05)
	docs := make([]DocCounts, 1200)
	for id := range docs {
		counts := make(map[uint64]int64)
		for j := 0; j < 120; j++ {
			counts[uint64(dist.Sample(rng))]++
		}
		docs[id] = DocCounts{DocID: id, Counts: counts}
	}
	if err := o.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}

	dense := int64(len(docs)) * int64(8*p.Z*p.W)
	if got := o.NaiveSizeBytes(); got != dense {
		t.Fatalf("NaiveSizeBytes = %d, want the dense n*z*w*8 = %d", got, dense)
	}
	resident := o.DocTableBytes()
	if resident == 0 || 12*resident > dense {
		t.Fatalf("document tables occupy %d bytes, ceiling is a twelfth of dense (%d)", resident, dense/12)
	}

	total, err := o.WriteTo(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Per document: version 2 writes a length and the table's bytes;
	// version 1 wrote a length and Table.MarshalBinary's 30-byte header
	// and dense counters.
	var tables int64
	for _, c := range o.docTables {
		tables += 8 + int64(len(c.AppendBinary(nil)))
	}
	tablesV1 := dense + int64(len(docs))*(8+30)
	if tablesV1 < 4*tables {
		t.Fatalf("document-table section is %d bytes, version 1 wrote %d: less than 4x smaller", tables, tablesV1)
	}
	if totalV1 := total - tables + tablesV1; totalV1 < 2*total {
		t.Fatalf("snapshot is %d bytes, version 1 wrote %d: less than 2x smaller", total, totalV1)
	}
	t.Logf("tables: %d B resident (dense %d, 1/%.1f), %d B in the snapshot; snapshot %d B (version 1: %d, %.1fx)",
		resident, dense, float64(dense)/float64(resident), tables, total, total-tables+tablesV1, float64(total-tables+tablesV1)/float64(total))
}
