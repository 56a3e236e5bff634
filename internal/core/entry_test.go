package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"unsafe"

	"csfltr/internal/dp"
)

// TestEntryLayout: the sketch is z*w*alpha*K entries behind z*w cell
// headers, so a field added to either shows here before it shows as
// peak_rss_mb. The held-prefix bound took the header's padding; the
// count of what a bounded cell holds lives beside the cells
// (RTKSketch.held), allocated only once some cell lets a document go.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 8 {
		t.Errorf("Entry is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(cellHeap{}); got > 40 {
		t.Errorf("cellHeap is %d bytes, want at most 40", got)
	}
}

// ingestPaths are the ways a document enters an owner: on its own, and in
// a batch (which opens with a small document of its own).
var ingestPaths = map[string]func(o *Owner, docID int, counts map[uint64]int64) error{
	"AddDocument": func(o *Owner, docID int, counts map[uint64]int64) error {
		return o.AddDocument(docID, counts)
	},
	"AddDocuments": func(o *Owner, docID int, counts map[uint64]int64) error {
		return o.AddDocuments(batchOf(o, docID, counts))
	},
}

func batchOf(o *Owner, docID int, counts map[uint64]int64) []DocCounts {
	return []DocCounts{{DocID: 100 + len(o.DocIDs()), Counts: map[uint64]int64{3: 1}}, {DocID: docID, Counts: counts}}
}

// TestIngestRangeGuards: an RTK-Sketch entry holds an int32 id and an
// int32 value, so a document that would not fit either is refused at the
// door — ErrBadParams, the owner untouched, no part of its batch applied —
// and never stored under a truncated id or a wrapped count. The value
// bound is on the sum of the counts' magnitudes, which bounds every cell:
// math.MaxInt32 is in, one more is out.
func TestIngestRangeGuards(t *testing.T) {
	refused := map[string]struct {
		docID  int
		counts map[uint64]int64
	}{
		"id above int32":     {1<<32 + 5, map[uint64]int64{7: 2}},
		"id below int32":     {math.MinInt32 - 1, map[uint64]int64{7: 2}},
		"one count too many": {9, map[uint64]int64{7: math.MaxInt32, 8: 1}},
		"negative counts":    {9, map[uint64]int64{7: -math.MaxInt32, 8: 1}},
		"a single count":     {9, map[uint64]int64{7: math.MaxInt32 + 1}},
		"MinInt64":           {9, map[uint64]int64{7: math.MinInt64}},
		"wrapping sum":       {9, map[uint64]int64{7: math.MaxInt64, 8: math.MaxInt64, 9: 2}},
	}
	for path, ingest := range ingestPaths {
		for name, doc := range refused {
			o := newOwnerT(t, testParams())
			if err := o.AddDocument(5, map[uint64]int64{7: 3}); err != nil {
				t.Fatal(err)
			}
			before, gen := snapshot(t, o), o.Generation()
			if err := ingest(o, doc.docID, doc.counts); !errors.Is(err, ErrBadParams) {
				t.Fatalf("%s, %s: got %v, want ErrBadParams", path, name, err)
			}
			if o.Generation() != gen || !bytes.Equal(snapshot(t, o), before) {
				t.Fatalf("%s, %s: a refused document changed the owner", path, name)
			}
		}

		// At the bound: accepted, answered exactly, and stable through a
		// snapshot (whose 8-byte fields hold what the entry now does in 4).
		p := testParams()
		q, o := newPair(t, p, nil)
		if err := ingest(o, math.MaxInt32, map[uint64]int64{7: math.MaxInt32 - 4, 8: -4}); err != nil {
			t.Fatalf("%s: a document at the bound was refused: %v", path, err)
		}
		if err := ingest(o, math.MinInt32, map[uint64]int64{7: -math.MaxInt32}); err != nil {
			t.Fatalf("%s: a document at the bound was refused: %v", path, err)
		}
		docs, _, err := RTKReverseTopK(q, o, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := []DocCount{{DocID: math.MaxInt32, Count: math.MaxInt32 - 4}}; sameDocCounts(docs, want) != nil {
			t.Fatalf("%s: top document %v, want %v", path, docs, want)
		}
		saved := snapshot(t, o)
		loaded, err := ReadOwner(bytes.NewReader(saved), dp.Disabled())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(snapshot(t, loaded), saved) {
			t.Fatalf("%s: save -> load -> save is not byte-stable", path)
		}
		if err := o.RemoveDocument(math.MaxInt32); err != nil {
			t.Fatal(err)
		}
		if docs, _, _ := RTKReverseTopK(q, o, 7, 1); len(docs) != 1 || docs[0].DocID == math.MaxInt32 {
			t.Fatalf("%s: after its removal the top document is %v", path, docs)
		}
	}
}

// TestReadOwnerRejectsOutOfRangeEntries: a snapshot stores ids and cell
// values in 8 bytes each; one that does not fit the resident 4 — or is
// math.MinInt32, whose magnitude does not — is corrupt, not narrowed.
func TestReadOwnerRejectsOutOfRangeEntries(t *testing.T) {
	o, err := NewOwner(testParams(), 42, dp.Disabled(), WithoutDocTables())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddDocument(5, map[uint64]int64{7: 3}); err != nil {
		t.Fatal(err)
	}
	good := snapshot(t, o)
	// Header (84 bytes), document count, table flag; then the one
	// document's id, length and unique count; then cell 0: its entry
	// count (1 — under capacity every document is in every cell), the
	// entry's id and its value.
	const rosterID, cellID, cellValue = 96, 96 + 24 + 8, 96 + 24 + 16
	if got := binary.LittleEndian.Uint64(good[rosterID:]); got != 5 {
		t.Fatalf("layout drifted: roster id reads %d", got)
	}
	if got := binary.LittleEndian.Uint64(good[cellID:]); got != 5 {
		t.Fatalf("layout drifted: cell id reads %d", got)
	}
	patches := map[string]struct {
		at    int
		value int64
		ok    bool
	}{
		"roster id above int32": {rosterID, 1<<32 + 5, false},
		"cell id above int32":   {cellID, 1<<32 + 5, false},
		"cell id below int32":   {cellID, math.MinInt32 - 1, false},
		"value above int32":     {cellValue, math.MaxInt32 + 1, false},
		"value MinInt32":        {cellValue, math.MinInt32, false},
		"value -MaxInt32":       {cellValue, -math.MaxInt32, true},
		"value MaxInt32":        {cellValue, math.MaxInt32, true},
	}
	for name, patch := range patches {
		data := bytes.Clone(good)
		binary.LittleEndian.PutUint64(data[patch.at:], uint64(patch.value))
		_, err := ReadOwner(bytes.NewReader(data), dp.Disabled())
		if patch.ok && err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !patch.ok && !errors.Is(err, ErrCorruptState) {
			t.Errorf("%s: got %v, want ErrCorruptState", name, err)
		}
	}
}
