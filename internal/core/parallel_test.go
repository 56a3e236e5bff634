package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

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

// TestAddDocumentsMatchesSequential: bulk ingestion at every pool size
// must leave the owner bit-identical to a sequential AddDocument loop —
// same document set, same metadata, same RTK-Sketch heap content, same
// query answers.
func TestAddDocumentsMatchesSequential(t *testing.T) {
	p := testParams()
	docs := bulkBatch(180, 15, 5)
	seq, err := NewOwner(p, 42, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := seq.AddDocument(d.DocID, d.Counts); err != nil {
			t.Fatal(err)
		}
	}
	q, err := NewQuerier(p, 42, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	plans := []*Plan{q.Plan(3), q.Plan(77), q.Plan(401)}

	for _, workers := range []int{1, 2, 3, 8, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			bulk, err := NewOwner(p, 42, dp.Disabled())
			if err != nil {
				t.Fatal(err)
			}
			// The unexported entry point skips the GOMAXPROCS clamp so
			// every pool size exercises a real multi-accumulator merge,
			// whatever the host's core count.
			if err := bulk.addDocuments(docs, workers); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq.DocIDs(), bulk.DocIDs()) {
				t.Fatal("document id sets differ")
			}
			for _, d := range docs {
				sl, su, err1 := seq.DocMeta(d.DocID)
				bl, bu, err2 := bulk.DocMeta(d.DocID)
				if err1 != nil || err2 != nil || sl != bl || su != bu {
					t.Fatalf("doc %d metadata differs: (%d,%d,%v) vs (%d,%d,%v)",
						d.DocID, sl, su, err1, bl, bu, err2)
				}
			}
			for _, plan := range plans {
				want, err := seq.AnswerRTK(plan.Query())
				if err != nil {
					t.Fatal(err)
				}
				got, err := bulk.AnswerRTK(plan.Query())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("AnswerRTK(term %d) differs between sequential and bulk(workers=%d)",
						plan.Term(), workers)
				}
				wantTF, err := seq.AnswerTF(docs[0].DocID, plan.Query())
				if err != nil {
					t.Fatal(err)
				}
				gotTF, err := bulk.AnswerTF(docs[0].DocID, plan.Query())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wantTF, gotTF) {
					t.Fatalf("AnswerTF(term %d) differs", plan.Term())
				}
			}
		})
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
	if err := o.AddDocuments(bad, 4); err == nil {
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
	if err := o.AddDocuments(dup, 2); err == nil {
		t.Fatal("expected in-batch duplicate error")
	}
	if got := o.DocIDs(); len(got) != 1 {
		t.Fatalf("owner mutated by failed batch: ids=%v", got)
	}

	// Empty batch is a no-op.
	if err := o.AddDocuments(nil, 4); err != nil {
		t.Fatal(err)
	}

	// A clean batch after a failure applies normally.
	clean := []DocCounts{{DocID: 6, Counts: map[uint64]int64{1: 1}}}
	if err := o.AddDocuments(clean, 4); err != nil {
		t.Fatal(err)
	}
	if got := o.DocIDs(); len(got) != 2 {
		t.Fatalf("clean batch not applied: ids=%v", got)
	}
}

// BenchmarkOwnerAddDocuments measures bulk ingestion over a batch-size
// by pool-size grid (sequential baseline first). On a single-core host
// the worker curve is flat — the public API clamps the pool to
// GOMAXPROCS — with real cores stage 1 (per-document hashing) scales.
func BenchmarkOwnerAddDocuments(b *testing.B) {
	p := DefaultParams()
	for _, size := range []int{100, 300, 1000} {
		docs := bulkBatch(size, 60, 1)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("docs=%d/workers=%d", size, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					o, err := NewOwner(p, 42, dp.Disabled())
					if err != nil {
						b.Fatal(err)
					}
					if err := o.AddDocuments(docs, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestAddDocumentsPooledAllocs pins the scratch-pooling contract: once
// the accumulator pool and the heaps are warm, steady-state ingestion
// allocates a small constant per document (metadata map entries, roster
// growth) — not per-document sketch tables and boxed heap entries.
func TestAddDocumentsPooledAllocs(t *testing.T) {
	p := DefaultParams()
	p.Z, p.W, p.Z1, p.K = 8, 64, 4, 20 // small geometry keeps the test fast
	o, err := NewOwner(p, 42, dp.Disabled(), WithoutDocTables())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddDocuments(bulkBatch(200, 40, 3), 1); err != nil {
		t.Fatal(err)
	}
	batch := bulkBatch(50, 40, 4)
	for i := range batch {
		batch[i].DocID += 10_000 // disjoint from the warm-up roster
	}
	perRun := testing.AllocsPerRun(5, func() {
		if err := o.AddDocuments(batch, 1); err != nil {
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
// a canonical cell gallops from the tail), and whether the cells are
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
					if err := o.AddDocuments(docs, 1); err != nil {
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
						if err := o.AddDocuments(victim, 1); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
				})
			}
		}
	}
}
