package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"testing"
	"time"

	"csfltr/internal/dp"
	"csfltr/internal/sketch"
)

// quadraticZeroFill is the reference semantics of the zero-fill merge:
// for every private row, look the row up in the observation list (the
// O(z^2) loop the linear merge in mergeZeroFill replaced).
func quadraticZeroFill(pv, rows []int, vals []float64) []float64 {
	out := make([]float64, len(pv))
	for i, a := range pv {
		for j, r := range rows {
			if r == a {
				out[i] = vals[j]
				break
			}
		}
	}
	return out
}

func TestMergeZeroFill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		// Random sorted private index set, then a random sorted
		// subsequence of observed rows — exactly the shape RTKWithPlan
		// produces (PV ascending, observations gathered in PV order).
		z := 1 + rng.Intn(40)
		pv := rng.Perm(64)[:z]
		sort.Ints(pv)
		var rows []int
		var vals []float64
		for _, a := range pv {
			if rng.Intn(2) == 0 {
				rows = append(rows, a)
				vals = append(vals, rng.NormFloat64()*10)
			}
		}
		want := quadraticZeroFill(pv, rows, vals)
		got := make([]float64, len(pv))
		// Dirty scratch: the merge must overwrite every slot.
		for i := range got {
			got[i] = math.Inf(1)
		}
		mergeZeroFill(pv, rows, vals, got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: pv=%v rows=%v\n got %v\nwant %v", trial, pv, rows, got, want)
		}
	}
}

// TestRTKZeroFillMatchesReference locks in that the linear zero-fill
// merge inside RTKWithPlan produces the same estimates as an independent
// quadratic reconstruction of the estimator from the raw RTK response.
func TestRTKZeroFillMatchesReference(t *testing.T) {
	p := testParams()
	p.Estimator = EstimatorZeroFill
	q, o := newPair(t, p, nil)
	rng := rand.New(rand.NewSource(3))
	for id := 0; id < 120; id++ {
		counts := make(map[uint64]int64)
		for j := 0; j < 12; j++ {
			counts[uint64(rng.Intn(200))]++
		}
		counts[7] = int64(rng.Intn(20)) // make term 7 broadly present
		if err := o.AddDocument(id, counts); err != nil {
			t.Fatal(err)
		}
	}
	plan := q.Plan(7)
	got, _, err := RTKWithPlan(plan, o, p.K)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: replay the owner response and estimate each candidate
	// with the quadratic per-row lookup.
	resp, err := o.AnswerRTK(plan.Query())
	if err != nil {
		t.Fatal(err)
	}
	type obs struct {
		rows []int
		vals []float64
	}
	byDoc := make(map[int32]*obs)
	for _, a := range plan.priv.PV {
		cell := resp.Cells[a]
		for i, id := range cell.IDs {
			ob := byDoc[id]
			if ob == nil {
				ob = &obs{}
				byDoc[id] = ob
			}
			ob.rows = append(ob.rows, a)
			ob.vals = append(ob.vals, cell.Values[i])
		}
	}
	threshold := int(math.Ceil(p.Beta * float64(p.Z1)))
	if threshold < 1 {
		threshold = 1
	}
	var want []DocCount
	for id, ob := range byDoc {
		if len(ob.rows) < threshold {
			continue
		}
		vals := quadraticZeroFill(plan.priv.PV, ob.rows, ob.vals)
		est := sketch.EstimateFromRows(p.SketchKind, plan.fam, plan.priv.Term, plan.priv.PV, vals)
		want = append(want, DocCount{DocID: int(id), Count: est})
	}
	want = topK(want, p.K)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-fill estimates diverged from reference:\n got %v\nwant %v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("degenerate test: no candidates survived the soft intersection")
	}
}

// bulkBatch builds a deterministic batch of document term counts.
func bulkBatch(n, terms int, seed int64) []DocCounts {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]DocCounts, n)
	for i := range docs {
		counts := make(map[uint64]int64)
		for j := 0; j < terms; j++ {
			counts[uint64(rng.Intn(500))]++
		}
		docs[i] = DocCounts{DocID: i, Counts: counts}
	}
	return docs
}

// TestAddDocumentsMatchesSequential: a corpus loaded in batches of any
// size, past the cap, must leave the owner bit-identical to a sequential
// AddDocument loop over the same documents — same snapshot bytes, same
// resident cells (stored entries and floors), same document set,
// metadata and query answers. Where one batch ends and the next begins
// makes no difference. It runs on synthetic documents at a small
// geometry and, at the scorecard's (z = 30, w = 200, alpha = 5), on
// generated bodies (K = 50) and titles (K = 2, so that their few terms
// fill cells) for Count Sketch, Count-Min and Count-Min over negative
// counts, in batches of 2, cap-1, cap, cap+1 and all. Batches of one are not among them: AddDocument is
// AddDocuments of one document, so they would rebuild the reference
// owner through the very same calls. Then one batch — removed documents
// coming back and new ones above and below every live id — lands on each
// sketch after it was read and lost documents, and must leave what its
// documents one at a time leave.
func TestAddDocumentsMatchesSequential(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		p := testParams()
		p.W = 16
		matchesSequential(t, p, bulkBatch(180, 15, 5), []int{2, 3, 8, 180})
	})
	p := DefaultParams()
	p.Z, p.W, p.K, p.Alpha, p.Epsilon = 30, 200, 50, 5, 0
	for _, field := range []string{"body", "title"} {
		p := p
		if field == "title" {
			p.K = 2
		}
		cap := p.HeapCap()
		docs := corpusDocs(t, 280, field)
		for _, kind := range []string{"count", "count-min", "count-min-negative"} {
			t.Run(field+"/"+kind, func(t *testing.T) {
				t.Parallel()
				p, docs := p, docs
				if kind != "count" {
					p.SketchKind = sketch.CountMin
				}
				if kind == "count-min-negative" {
					docs = slices.Clone(docs)
					for i := 1; i < len(docs); i += 2 {
						negated := make(map[uint64]int64, len(docs[i].Counts))
						for term, n := range docs[i].Counts {
							negated[term] = -n
						}
						docs[i].Counts = negated
					}
				}
				matchesSequential(t, p, docs, []int{2, cap - 1, cap, cap + 1, len(docs)})
			})
		}
	}
}

// matchesSequential loads docs, ids ascending, in batches of each size
// and holds the owner to the one an AddDocument loop builds, then lands
// one batch on a read and shrunk sketch (see
// TestAddDocumentsMatchesSequential).
func matchesSequential(t *testing.T, p Params, docs []DocCounts, sizes []int) {
	seq := newOwnerT(t, p)
	for _, d := range docs {
		if err := seq.AddDocument(d.DocID, d.Counts); err != nil {
			t.Fatal(err)
		}
	}
	if seq.rtk.MaxCellLoad() < p.HeapCap() {
		t.Fatal("setup: the corpus did not fill a cell")
	}
	q, err := NewQuerier(p, 42, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	plans := []*Plan{q.Plan(3), q.Plan(77), q.Plan(401)}
	saved := snapshot(t, seq)
	for _, size := range sizes {
		t.Run(fmt.Sprintf("batch=%d", size), func(t *testing.T) {
			bulk := newOwnerT(t, p)
			for lo := 0; lo < len(docs); lo += size {
				if err := bulk.AddDocuments(docs[lo:min(lo+size, len(docs))]); err != nil {
					t.Fatal(err)
				}
			}
			sameOwners(t, seq, saved, bulk, docs, plans)
		})
	}
	t.Run("onto a read, shrunk sketch", func(t *testing.T) {
		one, each := newOwnerT(t, p), newOwnerT(t, p)
		var batch []DocCounts
		for _, o := range []*Owner{one, each} {
			if err := o.AddDocuments(docs); err != nil {
				t.Fatal(err)
			}
			for _, plan := range plans {
				if _, err := o.AnswerRTK(plan.Query()); err != nil {
					t.Fatal(err)
				}
			}
			if o.rtk.MaxCellLoad() < p.HeapCap() {
				t.Fatal("setup: the corpus did not fill a cell")
			}
			for i := len(docs) - 1; i >= 0; i -= 9 {
				if err := o.RemoveDocument(docs[i].DocID); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := len(docs) - 1; i >= 0; i -= 9 {
			batch = append(batch, docs[i]) // back, newest first
		}
		top := docs[len(docs)-1].DocID
		for i := 0; i < 12; i++ {
			batch = append(batch,
				DocCounts{DocID: top + 1 + i, Counts: docs[i].Counts},
				DocCounts{DocID: -1 - i, Counts: docs[len(docs)-1-i].Counts})
		}
		if err := one.AddDocuments(batch); err != nil {
			t.Fatal(err)
		}
		for _, d := range batch {
			if err := each.AddDocument(d.DocID, d.Counts); err != nil {
				t.Fatal(err)
			}
		}
		sameOwners(t, each, snapshot(t, each), one, batch, plans)
	})
}

// TestAddDocumentsBandCount: a batch's rows settle in one band per
// processor, and the band count must never change what the owner holds.
// The same batches — one that leaves the cells under the cap, one that
// ends at it, one that overflows the cells, one into full cells, and one
// out of id order that brings removed documents back below live ids —
// load at GOMAXPROCS 1, 2 and 3, at z = 30 and an odd z = 7, for Count
// Sketch and Count-Min. After each batch the snapshot bytes, every cell's
// raw fields (entries, floor, floor hint) and SizeBytes must equal the
// one-band load's. It sets GOMAXPROCS, so it must not run in parallel.
func TestAddDocumentsBandCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	docs := corpusDocs(t, 200, "body")
	type state struct {
		snap  []byte
		cells []cellHeap
		bytes int64
	}
	for _, z := range []int{30, 7} {
		for _, kind := range []sketch.Kind{sketch.Count, sketch.CountMin} {
			t.Run(fmt.Sprintf("z=%d/%v", z, kind), func(t *testing.T) {
				p := DefaultParams()
				p.SketchKind, p.Z, p.W, p.Z1, p.K, p.Alpha, p.Epsilon = kind, z, 200, min(z, 5), 10, 5, 0
				cap := p.HeapCap() // 50
				out := slices.Clone(docs[126:])
				rand.New(rand.NewSource(9)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
				back := []DocCounts{docs[3], docs[77], docs[119]}
				steps := []struct {
					name   string
					batch  []DocCounts
					remove []int // ids removed after the batch
				}{
					{"under the cap", docs[:30], nil},
					{"at the cap", docs[30:cap], []int{docs[3].DocID}},
					{"over the cap", docs[cap:120], []int{docs[77].DocID, docs[119].DocID}},
					{"into full cells", docs[120:126], nil},
					{"out of id order", append(out, back...), nil},
				}
				var want []state
				for _, procs := range []int{1, 2, 3} {
					runtime.GOMAXPROCS(procs)
					o := newOwnerT(t, p)
					for i, step := range steps {
						if err := o.AddDocuments(step.batch); err != nil {
							t.Fatal(err)
						}
						for _, id := range step.remove {
							if err := o.RemoveDocument(id); err != nil {
								t.Fatal(err)
							}
						}
						s := o.rtk
						got := state{snapshot(t, o), slices.Clone(s.cells), s.SizeBytes()}
						for c := range got.cells {
							got.cells[c].entries = slices.Clone(got.cells[c].entries) // later batches edit them in place
						}
						if procs == 1 {
							want = append(want, got)
							continue
						}
						if !reflect.DeepEqual(got, want[i]) {
							t.Fatalf("GOMAXPROCS=%d: after the batch %s the owner differs from the one-band load's", procs, step.name)
						}
					}
				}
				if last := want[len(want)-1]; !slices.ContainsFunc(last.cells, func(h cellHeap) bool { return len(h.entries) == cap }) {
					t.Fatal("setup: no cell filled")
				}
			})
		}
	}
}

// sameOwners holds got to want, whose snapshot is saved: snapshot bytes,
// resident cells, document set, the metadata of docs and the answers to
// plans.
func sameOwners(t *testing.T, want *Owner, saved []byte, got *Owner, docs []DocCounts, plans []*Plan) {
	t.Helper()
	if !bytes.Equal(saved, snapshot(t, got)) {
		t.Fatal("snapshots differ")
	}
	if !reflect.DeepEqual(residentState(want.rtk), residentState(got.rtk)) {
		t.Fatal("resident cells differ")
	}
	if !reflect.DeepEqual(want.DocIDs(), got.DocIDs()) {
		t.Fatal("document id sets differ")
	}
	for _, d := range docs {
		wl, wu, err1 := want.DocMeta(d.DocID)
		gl, gu, err2 := got.DocMeta(d.DocID)
		if err1 != nil || err2 != nil || wl != gl || wu != gu {
			t.Fatalf("doc %d metadata differs: (%d,%d,%v) vs (%d,%d,%v)", d.DocID, wl, wu, err1, gl, gu, err2)
		}
	}
	for _, plan := range plans {
		wantRTK, err := want.AnswerRTK(plan.Query())
		if err != nil {
			t.Fatal(err)
		}
		gotRTK, err := got.AnswerRTK(plan.Query())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantRTK, gotRTK) {
			t.Fatalf("AnswerRTK(term %d) differs", plan.Term())
		}
		wantTF, err := want.AnswerTF(docs[0].DocID, plan.Query())
		if err != nil {
			t.Fatal(err)
		}
		gotTF, err := got.AnswerTF(docs[0].DocID, plan.Query())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantTF, gotTF) {
			t.Fatalf("AnswerTF(term %d) differs", plan.Term())
		}
	}
}

// TestAddDocumentsAtomicOnError: a bad batch must leave the owner
// completely unchanged — no partially-applied prefix.
func TestAddDocumentsAtomicOnError(t *testing.T) {
	p := testParams()
	o, err := NewOwner(p, 42, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddDocument(5, map[uint64]int64{1: 2}); err != nil {
		t.Fatal(err)
	}

	// Batch colliding with an already-ingested id.
	bad := bulkBatch(10, 5, 9) // contains DocID 5
	if err := o.AddDocuments(bad); err == nil {
		t.Fatal("expected duplicate-id error")
	}
	if got := o.DocIDs(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("owner mutated by failed batch: ids=%v", got)
	}

	// In-batch duplicate.
	dup := []DocCounts{
		{DocID: 100, Counts: map[uint64]int64{1: 1}},
		{DocID: 100, Counts: map[uint64]int64{2: 1}},
	}
	if err := o.AddDocuments(dup); err == nil {
		t.Fatal("expected in-batch duplicate error")
	}
	if got := o.DocIDs(); len(got) != 1 {
		t.Fatalf("owner mutated by failed batch: ids=%v", got)
	}

	// Empty batch is a no-op.
	if err := o.AddDocuments(nil); err != nil {
		t.Fatal(err)
	}

	// A clean batch after a failure applies normally.
	clean := []DocCounts{{DocID: 6, Counts: map[uint64]int64{1: 1}}}
	if err := o.AddDocuments(clean); err != nil {
		t.Fatal(err)
	}
	if got := o.DocIDs(); len(got) != 2 {
		t.Fatalf("clean batch not applied: ids=%v", got)
	}
}

// TestCheckBatch pins the one batch check an owner and a sharded group
// share: a document named twice in the batch, or one held reports, is a
// duplicate; one no RTK-Sketch entry can hold is ErrBadParams; anything
// else, the empty batch included, passes. held is asked about each
// document of the batch and nothing else.
func TestCheckBatch(t *testing.T) {
	one := map[uint64]int64{7: 1}
	heldIDs := map[int]bool{5: true}
	cases := map[string]struct {
		docs []DocCounts
		bad  error // nil: the batch passes; errDuplicate: refused as a duplicate
	}{
		"empty":         {nil, nil},
		"distinct":      {[]DocCounts{{1, one}, {2, one}, {math.MaxInt32, one}, {math.MinInt32, one}}, nil},
		"at the mass":   {[]DocCounts{{1, map[uint64]int64{7: math.MaxInt32 - 4, 8: -4}}}, nil},
		"twice":         {[]DocCounts{{1, one}, {2, one}, {1, one}}, errDuplicate},
		"already held":  {[]DocCounts{{1, one}, {5, one}}, errDuplicate},
		"id past int32": {[]DocCounts{{1, one}, {math.MaxInt32 + 1, one}}, ErrBadParams},
		"past the mass": {[]DocCounts{{1, one}, {2, map[uint64]int64{7: math.MaxInt32, 8: 1}}}, ErrBadParams},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			asked := map[int]bool{}
			err := CheckBatch(c.docs, func(docID int) bool {
				asked[docID] = true
				return heldIDs[docID]
			})
			switch {
			case c.bad == nil && err != nil:
				t.Fatalf("refused: %v", err)
			case c.bad == errDuplicate && (err == nil || errors.Is(err, ErrBadParams)):
				t.Fatalf("got %v, want a duplicate-id error", err)
			case c.bad == ErrBadParams && !errors.Is(err, ErrBadParams):
				t.Fatalf("got %v, want ErrBadParams", err)
			}
			for id := range asked {
				if !slices.ContainsFunc(c.docs, func(d DocCounts) bool { return d.DocID == id }) {
					t.Fatalf("held asked about %d, not in the batch", id)
				}
			}
		})
	}
}

// errDuplicate marks a TestCheckBatch case refused as a duplicate id.
var errDuplicate = errors.New("duplicate")

// BenchmarkOwnerAddDocuments measures a batch load into a fresh owner
// at three batch sizes.
func BenchmarkOwnerAddDocuments(b *testing.B) {
	p := DefaultParams()
	for _, size := range []int{100, 300, 1000} {
		docs := bulkBatch(size, 60, 1)
		b.Run(fmt.Sprintf("docs=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o, err := NewOwner(p, 42, dp.Disabled())
				if err != nil {
					b.Fatal(err)
				}
				if err := o.AddDocuments(docs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAddDocumentsPooledAllocs pins the scratch-reuse contract: once the
// cells and the owner's id list have grown, steady-state ingestion
// allocates a small constant per document (metadata map entries, the
// batch check's id set) — every table is built in the owner's one scratch, and no heap
// entry is boxed.
func TestAddDocumentsPooledAllocs(t *testing.T) {
	p := DefaultParams()
	p.Z, p.W, p.Z1, p.K = 8, 64, 4, 20 // small geometry keeps the test fast
	o, err := NewOwner(p, 42, dp.Disabled(), WithoutDocTables())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddDocuments(bulkBatch(200, 40, 3)); err != nil {
		t.Fatal(err)
	}
	batch := bulkBatch(50, 40, 4)
	for i := range batch {
		batch[i].DocID += 10_000 // disjoint from the warm-up roster
	}
	perRun := testing.AllocsPerRun(5, func() {
		if err := o.AddDocuments(batch); err != nil {
			t.Fatal(err)
		}
		for _, d := range batch {
			if err := o.RemoveDocument(d.DocID); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perDoc := perRun / float64(len(batch)); perDoc > 12 {
		t.Fatalf("steady-state ingest allocates %.1f/doc (run %.0f), want <= 12", perDoc, perRun)
	}
}

// BenchmarkOwnerRemoveDocument measures removing one document (it is
// added back off the clock, so the roster stays fixed) over what decides
// the cost of RTKSketch.Delete: whether the owner still has the document's table
// (full cells below whose floor the document orders are skipped), whether
// the victim is the newest id or drawn across the id range (the search in
// a cell gallops from the tail), and whether the cells are
// under capacity (64 documents, cap 250: every document is in every cell)
// or over it (1 200). The last row is the 10k-document shape this
// benchmark had before it became a table; with tables it would hold
// 480 MB of them.
func BenchmarkOwnerRemoveDocument(b *testing.B) {
	for _, shape := range []struct{ docs, terms, k int }{{64, 120, 50}, {1200, 120, 50}, {10_000, 10, DefaultParams().K}} {
		for _, tables := range []bool{true, false} {
			if tables && shape.docs == 10_000 {
				continue
			}
			for _, victims := range []string{"newest", "across"} {
				name := fmt.Sprintf("docs=%d/tables=%v/%s", shape.docs, tables, victims)
				b.Run(name, func(b *testing.B) {
					p := DefaultParams()
					p.K = shape.k
					var opts []OwnerOption
					if !tables {
						opts = append(opts, WithoutDocTables())
					}
					o, err := NewOwner(p, 42, dp.Disabled(), opts...)
					if err != nil {
						b.Fatal(err)
					}
					docs := bulkBatch(shape.docs, shape.terms, 1)
					if err := o.AddDocuments(docs); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						victim := docs[len(docs)-1:]
						if victims == "across" {
							at := i * 7919 % len(docs)
							victim = docs[at : at+1]
						}
						if err := o.RemoveDocument(victim[0].DocID); err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						if err := o.AddDocuments(victim); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
				})
			}
		}
	}
}

// TestBulkLoadAllocCeiling pins what one 1 200-document batch allocates at
// the benchmark geometry (z = 30, w = 200, cap 250) to O(z*w + docs): a
// slab per cell and per document table, and the owner's maps and id
// list growing. Settling a cell allocates nothing per entry it weighs, bodies
// weighing hundreds per cell, so a regression there shows as hundreds of
// thousands.
func TestBulkLoadAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; ceilings hold without -race")
	}
	p := DefaultParams()
	p.K = 50
	for _, field := range []string{"body", "title"} {
		docs := corpusDocs(t, 1200, field)
		var o *Owner
		allocs := testing.AllocsPerRun(3, func() {
			o = newOwnerT(t, p) // a sketch's z*w cell headers are one slab
			if err := o.AddDocuments(docs); err != nil {
				t.Fatal(err)
			}
		})
		if ceiling := float64(p.Z*p.W + 2*len(docs)); allocs > ceiling {
			t.Errorf("%s: a %d-document batch allocates %.0f times, ceiling z*w + 2 per document = %.0f", field, len(docs), allocs, ceiling)
		}
		t.Logf("%s: %.0f allocations", field, allocs)
	}
}

// TestOneByOneIngestCost holds the online add — Algorithm 4 as Fig. 4 runs
// it, one document at a time with no read between — to the cost of what
// it changes: the scorecard's 1 200 bodies (K = 50, alpha = 5, so every
// cell passes alpha*K a fifth of the way in) loaded one by one cost at
// most 4x the same bodies loaded as one batch, and leave the same snapshot
// bytes. Cost is the process's CPU time, garbage collection included, so
// other processes on the machine do not count; the two loads alternate
// seven times each and the cheapest of each is compared. A settle that
// weighs a whole full cell for each entry that beats it reads about 24x.
// Under the race detector, whose cost is not the settle's, each load runs
// once and only the snapshots are compared: the batch settles its rows in
// bands, and the detector watches them.
func TestOneByOneIngestCost(t *testing.T) {
	p := DefaultParams()
	p.K = 50
	docs := corpusDocs(t, 1200, "body")
	load := func(oneByOne bool) (*Owner, time.Duration) {
		o := newOwnerT(t, p)
		start := cpuTime(t)
		if !oneByOne {
			if err := o.AddDocuments(docs); err != nil {
				t.Fatal(err)
			}
			return o, cpuTime(t) - start
		}
		for _, d := range docs {
			if err := o.AddDocument(d.DocID, d.Counts); err != nil {
				t.Fatal(err)
			}
		}
		return o, cpuTime(t) - start
	}
	var batch, single *Owner
	bulk, oneByOne := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	runs := 7
	if raceEnabled {
		runs = 1
	}
	for range runs {
		runtime.GC() // neither load pays for the other's garbage
		o, d := load(false)
		batch, bulk = o, min(bulk, d)
		runtime.GC()
		o, d = load(true)
		single, oneByOne = o, min(oneByOne, d)
	}
	if !bytes.Equal(snapshot(t, single), snapshot(t, batch)) {
		t.Fatal("one by one and as one batch, the bodies leave different snapshots")
	}
	if raceEnabled {
		t.Skip("the race detector's cost is not the settle's; the ratio holds without -race")
	}
	t.Logf("one batch %v, one by one %v of CPU (%.1fx)", bulk, oneByOne, float64(oneByOne)/float64(bulk))
	if oneByOne > 4*bulk {
		t.Errorf("one by one %v, one batch %v of CPU: %.1fx, want at most 4x", oneByOne, bulk, float64(oneByOne)/float64(bulk))
	}
}

// cpuTime returns the user and system CPU time the process has used.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestAddDocumentsRetainsNoMemo: a batch's term memo holds cells of the
// keyed hash family, so it lives for the batch only: nothing an owner
// holds can keep a memo, and the one a batch used goes back to the pool
// empty.
func TestAddDocumentsRetainsNoMemo(t *testing.T) {
	if reaches(reflect.TypeOf(Owner{}), reflect.TypeOf(sketch.Memo{}), map[reflect.Type]bool{}) {
		t.Fatal("an owner can hold a term memo")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	p := DefaultParams()
	p.Z, p.W, p.Z1, p.K = 8, 64, 4, 20
	if err := newOwnerT(t, p).AddDocuments(bulkBatch(40, 30, 7)); err != nil {
		t.Fatal(err)
	}
	sc := settleScratchPool.Get().(*settleScratch)
	defer settleScratchPool.Put(sc)
	if n := sc.memo.Len(); n != 0 {
		t.Fatalf("the pooled memo remembers %d terms after its batch", n)
	}
}

// reaches reports whether a value of type t can hold one of type want.
func reaches(t, want reflect.Type, seen map[reflect.Type]bool) bool {
	if t == want {
		return true
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
		return reaches(t.Elem(), want, seen)
	case reflect.Map:
		return reaches(t.Key(), want, seen) || reaches(t.Elem(), want, seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if reaches(t.Field(i).Type, want, seen) {
				return true
			}
		}
	}
	return false
}
