package shard

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/resilience"
	"csfltr/internal/telemetry"
)

const testSeed = 0x5eed

// testParams is a small geometry that still exercises cap eviction.
func testParams() core.Params {
	p := core.DefaultParams()
	p.Z = 6
	p.W = 16
	p.Z1 = 3
	p.Epsilon = 0
	p.Alpha = 2
	p.K = 4 // HeapCap 8: small enough that cells overflow
	return p
}

// testDocs builds a deterministic corpus of n documents.
func testDocs(n int, rngSeed int64) []core.DocCounts {
	rng := rand.New(rand.NewSource(rngSeed))
	docs := make([]core.DocCounts, n)
	for i := range docs {
		counts := make(map[uint64]int64)
		for t := 0; t < 12; t++ {
			counts[uint64(rng.Intn(40))] += int64(1 + rng.Intn(5))
		}
		docs[i] = core.DocCounts{DocID: i * 3, Counts: counts}
	}
	return docs
}

// newGroup builds a group over the test corpus.
func newGroup(t *testing.T, shards, replicas int, docs []core.DocCounts) *Group {
	t.Helper()
	p := testParams()
	p.Shards = shards
	p.Replicas = replicas
	g, err := New(Config{Params: p, Seed: testSeed, BlockSize: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := g.AddDocuments(docs); err != nil {
		t.Fatalf("AddDocuments: %v", err)
	}
	return g
}

// newReference builds the unsharded single owner over the same corpus.
func newReference(t *testing.T, docs []core.DocCounts) *core.Owner {
	t.Helper()
	o, err := core.NewOwner(testParams(), testSeed, dp.Disabled())
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	if err := o.AddDocuments(docs); err != nil {
		t.Fatalf("AddDocuments: %v", err)
	}
	return o
}

// queryCols builds a deterministic valid column vector.
func queryCols(p core.Params, salt int) *core.TFQuery {
	cols := make([]uint32, p.Z)
	for i := range cols {
		cols[i] = uint32((i*31 + salt*7 + 3) % p.W)
	}
	return &core.TFQuery{Cols: cols}
}

// TestScatterGatherBitIdentical is the core determinism contract: for
// every shard/replica fan, the merged facade answers are bit-identical
// to a single owner over the whole corpus at Epsilon=0.
func TestScatterGatherBitIdentical(t *testing.T) {
	docs := testDocs(120, 11)
	ref := newReference(t, docs)
	p := testParams()
	for _, shards := range []int{1, 2, 4} {
		for _, replicas := range []int{1, 2} {
			g := newGroup(t, shards, replicas, docs)
			if got, want := g.DocIDs(), ref.DocIDs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d replicas=%d: DocIDs mismatch", shards, replicas)
			}
			for salt := 0; salt < 8; salt++ {
				q := queryCols(p, salt)
				got, err := g.AnswerRTK(q)
				if err != nil {
					t.Fatalf("shards=%d: AnswerRTK: %v", shards, err)
				}
				want, err := ref.AnswerRTK(q)
				if err != nil {
					t.Fatalf("reference AnswerRTK: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d replicas=%d salt=%d: merged RTK response differs from single owner", shards, replicas, salt)
				}
			}
			for _, d := range docs[:10] {
				q := queryCols(p, d.DocID)
				got, err := g.AnswerTF(d.DocID, q)
				if err != nil {
					t.Fatalf("AnswerTF: %v", err)
				}
				want, err := ref.AnswerTF(d.DocID, q)
				if err != nil {
					t.Fatalf("reference AnswerTF: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d: TF response differs for doc %d", shards, d.DocID)
				}
				gl, gu, err := g.DocMeta(d.DocID)
				if err != nil {
					t.Fatalf("DocMeta: %v", err)
				}
				wl, wu, _ := ref.DocMeta(d.DocID)
				if gl != wl || gu != wu {
					t.Fatalf("DocMeta mismatch for doc %d", d.DocID)
				}
			}
		}
	}
}

// TestOneByOneIsItsOwner: a 1 × 1 group's owner holds the group's
// mechanism and answers every query itself, so at ε = 0.5 the group
// releases, draw for draw, what an owner with an identically seeded
// mechanism releases — a second draw at the facade would shift every
// value. Traced calls go to the same owner.
func TestOneByOneIsItsOwner(t *testing.T) {
	docs := testDocs(60, 53)
	p := testParams()
	p.Epsilon = 0.5
	mech := func() dp.Mechanism {
		m, err := dp.ForEpsilon(p.Epsilon, rand.New(rand.NewSource(61)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	g, err := New(Config{Params: p, Seed: testSeed, Mech: mech()})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewOwner(p, testSeed, mech())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	if err := ref.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	if g.Owner() == nil || g.WithTrace(telemetry.SpanContext{}) != core.OwnerAPI(g.Owner()) {
		t.Fatal("a 1 × 1 group must hold one owner and trace straight to it")
	}
	for salt := 0; salt < 4; salt++ {
		q := queryCols(p, salt)
		got, err := g.AnswerRTK(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.AnswerRTK(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("salt %d: AnswerRTK differs from the owner's", salt)
		}
		qs := []*core.TFQuery{q, queryCols(p, salt+5)}
		gotB, err := g.AnswerRTKBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := ref.AnswerRTKBatch(qs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotB, wantB) {
			t.Fatalf("salt %d: AnswerRTKBatch differs from the owner's", salt)
		}
		d := docs[salt].DocID
		gotTF, err := g.AnswerTF(d, q)
		if err != nil {
			t.Fatal(err)
		}
		wantTF, err := ref.AnswerTF(d, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotTF, wantTF) {
			t.Fatalf("salt %d: AnswerTF differs from the owner's", salt)
		}
	}
}

// TestEndToEndReverseTopK runs the full Algorithm 5 pipeline against
// the facade and the single owner with identically seeded queriers.
func TestEndToEndReverseTopK(t *testing.T) {
	docs := testDocs(120, 13)
	ref := newReference(t, docs)
	g := newGroup(t, 4, 2, docs)
	p := testParams()
	for term := uint64(0); term < 10; term++ {
		qa, err := core.NewQuerier(p, testSeed, rand.New(rand.NewSource(77)))
		if err != nil {
			t.Fatal(err)
		}
		qb, err := core.NewQuerier(p, testSeed, rand.New(rand.NewSource(77)))
		if err != nil {
			t.Fatal(err)
		}
		got, gotCost, err := core.RTKReverseTopK(qa, g, term, p.K)
		if err != nil {
			t.Fatalf("sharded RTKReverseTopK: %v", err)
		}
		want, wantCost, err := core.RTKReverseTopK(qb, ref, term, p.K)
		if err != nil {
			t.Fatalf("reference RTKReverseTopK: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("term %d: sharded result differs from single owner", term)
		}
		if gotCost != wantCost {
			t.Fatalf("term %d: cost differs: sharded %+v, single %+v", term, gotCost, wantCost)
		}
	}
}

// TestReplicaFailover kills replicas one by one: queries keep answering
// identically until the last replica of a shard dies, then fail with
// ErrNoReplica.
func TestReplicaFailover(t *testing.T) {
	docs := testDocs(80, 17)
	ref := newReference(t, docs)
	p := testParams()
	p.Shards = 2
	p.Replicas = 2
	g, err := New(Config{Params: p, Seed: testSeed, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	q := queryCols(p, 1)
	want, err := ref.AnswerRTK(q)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		got, err := g.AnswerRTK(q)
		if err != nil {
			t.Fatalf("AnswerRTK after kill: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("failover changed the answer")
		}
	}
	check()
	g.KillReplica(0, 0)
	for i := 0; i < 6; i++ { // several calls so both rotation positions hit the dead replica
		check()
	}
	g.KillReplica(0, 1)
	if _, err := g.AnswerRTK(q); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("want ErrNoReplica with every replica dead, got %v", err)
	}
	g.ReviveReplica(0, 1)
	check()
}

// TestBreakerOpensOnDeadReplica drives enough failures through a killed
// replica to open its breaker, then checks the state is observable.
func TestBreakerOpensOnDeadReplica(t *testing.T) {
	docs := testDocs(40, 19)
	p := testParams()
	p.Shards = 2
	p.Replicas = 2
	pol := resilience.DefaultPolicy()
	pol.FailureThreshold = 3
	g, err := New(Config{Params: p, Seed: testSeed, BlockSize: 4, Policy: &pol})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	var changes []resilience.State
	g.SetHooks(Hooks{BreakerChange: func(lbl string, s resilience.State) {
		if lbl == BreakerLabel(0, 0) {
			changes = append(changes, s)
		}
	}})
	g.KillReplica(0, 0)
	q := queryCols(p, 2)
	for i := 0; i < 12; i++ {
		if _, err := g.AnswerRTK(q); err != nil {
			t.Fatalf("query %d should have failed over: %v", i, err)
		}
	}
	if got := g.ReplicaState(0, 0); got != resilience.Open {
		t.Fatalf("breaker state = %v, want Open", got)
	}
	found := false
	for _, s := range changes {
		if s == resilience.Open {
			found = true
		}
	}
	if !found {
		t.Fatal("BreakerChange hook never reported the open transition")
	}
}

// TestCacheInvalidationShardLocal is the RemoveDocument satellite: a
// removal bumps only the owning shard's generation, so a cache keyed by
// the generation vector (the federation's answer cache) loses only what
// that shard contributed to — no
// cross-shard stampede.
func TestCacheInvalidationShardLocal(t *testing.T) {
	docs := testDocs(120, 23)
	g := newGroup(t, 4, 1, docs)

	victim := docs[0].DocID
	vs := g.ShardFor(victim)
	gensBefore := g.Generations()
	if err := g.RemoveDocument(victim); err != nil {
		t.Fatalf("RemoveDocument: %v", err)
	}
	gensAfter := g.Generations()
	for si := range gensBefore {
		moved := gensAfter[si] != gensBefore[si]
		if si == vs && !moved {
			t.Fatalf("owning shard %d generation did not move", si)
		}
		if si != vs && moved {
			t.Fatalf("shard %d generation moved on a foreign removal", si)
		}
	}

	// And the removal is live: the victim no longer appears anywhere.
	for _, id := range g.DocIDs() {
		if id == victim {
			t.Fatal("removed document still listed")
		}
	}
}

// TestRemoveDocumentMatchesSingleOwner checks post-removal answers stay
// bit-identical to a single owner that removed the same document. The
// geometry is uncapped (K large enough that no cell evicts): in-place
// deletion cannot resurrect entries the cap already dropped, and a
// single owner evicts globally while shard owners evict locally — so in
// the capped regime the sharded post-removal answer is legitimately
// *more* complete than the single owner's, not bit-identical. With no
// eviction both paths are exact and must agree to the bit.
func TestRemoveDocumentMatchesSingleOwner(t *testing.T) {
	docs := testDocs(90, 29)
	p := testParams()
	p.K = 64 // HeapCap 128 >> 90 docs: nothing evicts
	ref, err := core.NewOwner(p, testSeed, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	sp := p
	sp.Shards = 4
	sp.Replicas = 2
	g, err := New(Config{Params: sp, Seed: testSeed, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	victim := docs[41].DocID
	if err := ref.RemoveDocument(victim); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveDocument(victim); err != nil {
		t.Fatal(err)
	}
	for salt := 0; salt < 6; salt++ {
		q := queryCols(p, salt)
		got, err := g.AnswerRTK(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.AnswerRTK(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("salt %d: post-removal RTK response differs", salt)
		}
	}
	if err := g.RemoveDocument(victim); !errors.Is(err, core.ErrUnknownDoc) {
		t.Fatalf("double removal: want ErrUnknownDoc, got %v", err)
	}
}

// TestChurnMatchesSingleOwner runs the write-beside-read cycle — ingest
// one document, search, remove one — for 200 steps on a 4 x 2 group whose
// shards stay under the cap while their union overflows it, so every
// answer is cut by the facade merge. Spare ids come round again and
// again, one step behind their removal, so an ingest lands now above
// every live id and now below; every fifth step a document from the
// middle of some shard's range leaves and returns. After every step the
// group answers bit for bit what a single owner built from the same
// documents answers (built afresh: in a long-lived capped owner a removal
// does not bring back what the cap dropped, see above), and every 25
// steps both replicas of every shard write the same snapshot — reads go
// round-robin, so the replicas' cells differ in layout, which nothing
// observable may show.
//
// Then a shard churns across the cap: it holds cap − 1 documents, the
// largest ids, and goes to cap + 1 and back, lap after lap, each time
// with other documents. Its owners' cells hold every live id until the
// push past the cap and lower their bounds from then on; what a cell
// loses that way is the entry the cell ranks last — a zero with a large
// id — which the other shards' documents keep out of the union's top cap
// as well, so the group still answers what the single owner does, at
// cap + 1 and after each way back.
func TestChurnMatchesSingleOwner(t *testing.T) {
	p := testParams()
	p.K = 18 // HeapCap 36: shards hold 10-12 documents, their union 40-42
	all := testDocs(48, 43)
	for i := range all {
		all[i].DocID = i
	}
	base, spare := all[:40], all[40:]
	c := newChurnGroup(t, p, 10, base)
	for step := 0; step < 200; step++ {
		c.add(spare[step%len(spare)])
		c.check(step)
		if step > 0 {
			c.remove(spare[(step-1)%len(spare)].DocID)
		}
		if step%5 == 4 {
			mid := base[(step*7)%len(base)]
			c.remove(mid.DocID)
			c.check(step)
			c.add(mid)
		}
		if step%25 == 24 {
			c.checkReplicas(step)
		}
	}

	// Across the cap, in blocks of 40 ids: shard 3 holds 120-154, the cap
	// less one, and 155-159 come and go; shards 0 and 1 hold six smaller
	// ids between them.
	all = testDocs(46, 47)
	for i := range all {
		all[i].DocID = []int{0, 1, 2, 3, 40, 41}[min(i, 5)]
		if i >= 6 {
			all[i].DocID = 120 + i - 6
		}
	}
	base, spare = all[:41], all[41:]
	c = newChurnGroup(t, p, 40, base)
	crossing := c.g.shards[3].replicas
	for lap := 0; lap < 12; lap++ {
		x, y := spare[lap%len(spare)], spare[(lap+1+lap/len(spare))%len(spare)]
		c.add(x)
		c.check(4 * lap)
		c.add(y)
		for _, r := range crossing {
			if rtk := r.owner.RTK(); rtk.NumDocs() != p.HeapCap()+1 || rtk.MaxCellLoad() != p.HeapCap() {
				t.Fatalf("lap %d: shard 3 summarizes %d documents in cells of at most %d, want %d in %d",
					lap, rtk.NumDocs(), rtk.MaxCellLoad(), p.HeapCap()+1, p.HeapCap())
			}
		}
		c.check(4*lap + 1)
		c.remove(y.DocID)
		c.check(4*lap + 2)
		c.remove(x.DocID)
		c.check(4*lap + 3)
		c.checkReplicas(lap)
	}
}

// churnGroup is a 4 x 2 group beside the documents it holds.
type churnGroup struct {
	t    *testing.T
	p    core.Params
	g    *Group
	live map[int]core.DocCounts
}

func newChurnGroup(t *testing.T, p core.Params, blockSize int, base []core.DocCounts) *churnGroup {
	t.Helper()
	sp := p
	sp.Shards, sp.Replicas = 4, 2
	g, err := New(Config{Params: sp, Seed: testSeed, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddDocuments(base); err != nil {
		t.Fatal(err)
	}
	c := &churnGroup{t: t, p: p, g: g, live: make(map[int]core.DocCounts)}
	for _, d := range base {
		c.live[d.DocID] = d
	}
	return c
}

func (c *churnGroup) add(d core.DocCounts) {
	c.t.Helper()
	if err := c.g.AddDocument(d.DocID, d.Counts); err != nil {
		c.t.Fatal(err)
	}
	c.live[d.DocID] = d
}

func (c *churnGroup) remove(id int) {
	c.t.Helper()
	if err := c.g.RemoveDocument(id); err != nil {
		c.t.Fatal(err)
	}
	delete(c.live, id)
}

// check asks the group three queries and requires, bit for bit, what a
// single owner built afresh from the live documents answers — an answer
// the facade merge cut at the cap.
func (c *churnGroup) check(step int) {
	c.t.Helper()
	docs := make([]core.DocCounts, 0, len(c.live))
	for _, d := range c.live {
		docs = append(docs, d)
	}
	ref, err := core.NewOwner(c.p, testSeed, dp.Disabled())
	if err != nil {
		c.t.Fatal(err)
	}
	if err := ref.AddDocuments(docs); err != nil {
		c.t.Fatal(err)
	}
	for salt := 0; salt < 3; salt++ {
		q := queryCols(c.p, step+salt)
		got, err := c.g.AnswerRTK(q)
		if err != nil {
			c.t.Fatal(err)
		}
		want, err := ref.AnswerRTK(q)
		if err != nil {
			c.t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			c.t.Fatalf("step %d salt %d: sharded answer differs from the single owner's:\n got %+v\nwant %+v", step, salt, got, want)
		}
		if n := len(got.Cells[0].IDs); n != c.p.HeapCap() {
			c.t.Fatalf("step %d: row 0 holds %d entries, want the cap %d: the merge did not overflow", step, n, c.p.HeapCap())
		}
	}
}

// checkReplicas requires both replicas of every shard to write the same
// snapshot.
func (c *churnGroup) checkReplicas(step int) {
	c.t.Helper()
	for si, s := range c.g.shards {
		var first bytes.Buffer
		for ri, r := range s.replicas {
			var snap bytes.Buffer
			if _, err := r.owner.WriteTo(&snap); err != nil {
				c.t.Fatal(err)
			}
			if ri == 0 {
				first = snap
			} else if !bytes.Equal(first.Bytes(), snap.Bytes()) {
				c.t.Fatalf("step %d: shard %d replica %d snapshot differs from replica 0's", step, si, ri)
			}
		}
	}
}

// TestAddDocumentsAllOrNothing: a duplicate anywhere in the batch
// leaves the whole group unchanged.
func TestAddDocumentsAllOrNothing(t *testing.T) {
	docs := testDocs(40, 31)
	g := newGroup(t, 4, 2, docs)
	gens := g.Generations()
	batch := testDocs(12, 37)
	for i := range batch {
		batch[i].DocID = 1000 + i*3
	}
	batch[7].DocID = docs[3].DocID // collides with an existing doc
	if err := g.AddDocuments(batch); err == nil {
		t.Fatal("duplicate batch should fail")
	}
	if !reflect.DeepEqual(g.Generations(), gens) {
		t.Fatal("failed batch moved a shard generation")
	}
	n := len(g.DocIDs())
	if n != len(docs) {
		t.Fatalf("failed batch left %d docs, want %d", n, len(docs))
	}
}

// TestRefusedBatchKeepsAnswers: a batch one of whose documents no owner
// may hold is refused before any shard is written, so the group answers
// exactly as a twin that never saw it — replica snapshots included. Undoing
// an applied part instead would remove its documents but not bring back
// the entries they evicted from the capped cells.
func TestRefusedBatchKeepsAnswers(t *testing.T) {
	docs := testDocs(60, 53)
	g, twin := newGroup(t, 2, 2, docs), newGroup(t, 2, 2, docs)
	batch := testDocs(40, 59)
	for i := range batch {
		batch[i].DocID = 1000 + i*3
	}
	batch = append(batch, core.DocCounts{DocID: math.MaxInt32 + 1, Counts: map[uint64]int64{7: 1}})
	if err := g.AddDocuments(batch); !errors.Is(err, core.ErrBadParams) {
		t.Fatalf("AddDocuments returned %v, want ErrBadParams", err)
	}
	if !reflect.DeepEqual(g.DocIDs(), twin.DocIDs()) || !reflect.DeepEqual(g.Generations(), twin.Generations()) {
		t.Fatal("the refused batch changed the group's ids or generations")
	}
	p := testParams()
	for salt := 0; salt < 40; salt++ {
		got, err := g.AnswerRTK(queryCols(p, salt))
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.AnswerRTK(queryCols(p, salt))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Cells, want.Cells) {
			t.Fatalf("query %d: the refused batch changed the answer", salt)
		}
	}
	for si, sh := range g.shards {
		for ri, r := range sh.replicas {
			var got, want bytes.Buffer
			if _, err := r.owner.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.shards[si].replicas[ri].owner.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("shard %d replica %d: the refused batch changed its snapshot", si, ri)
			}
		}
	}
}

// TestIngestRangeGuards: a document an RTK-Sketch entry cannot hold — an
// id outside int32, which used to be stored and removed as its low 32
// bits, or counts past int32 — is refused by whichever owner it routes
// to, and the group keeps nothing of it or of the batch it came in.
func TestIngestRangeGuards(t *testing.T) {
	docs := testDocs(40, 43)
	g := newGroup(t, 4, 2, docs)
	p := testParams()
	before, err := g.AnswerRTK(queryCols(p, 3))
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]core.DocCounts{
		"id above int32":   {DocID: 1<<32 + docs[5].DocID, Counts: docs[5].Counts},
		"counts too large": {DocID: 2000, Counts: map[uint64]int64{7: math.MaxInt32, 8: 1}},
	}
	for name, doc := range bad {
		if err := g.AddDocument(doc.DocID, doc.Counts); !errors.Is(err, core.ErrBadParams) {
			t.Fatalf("%s: AddDocument returned %v, want ErrBadParams", name, err)
		}
		batch := testDocs(12, 47)
		for i := range batch {
			batch[i].DocID = 1000 + i*3
		}
		batch[7] = doc
		if err := g.AddDocuments(batch); !errors.Is(err, core.ErrBadParams) {
			t.Fatalf("%s: AddDocuments returned %v, want ErrBadParams", name, err)
		}
		if n := len(g.DocIDs()); n != len(docs) {
			t.Fatalf("%s: the group holds %d documents, want %d", name, n, len(docs))
		}
		after, err := g.AnswerRTK(queryCols(p, 3))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after.Cells, before.Cells) {
			t.Fatalf("%s: a refused document changed an answer", name)
		}
	}
	// The id the oversized one would have been truncated to is still there.
	if err := g.RemoveDocument(docs[5].DocID); err != nil {
		t.Fatal(err)
	}
}

// TestErrorRouting: protocol-level negative answers come back verbatim
// and never trip failover.
func TestErrorRouting(t *testing.T) {
	docs := testDocs(40, 41)
	g := newGroup(t, 2, 2, docs)
	p := testParams()
	if _, _, err := g.DocMeta(99999); !errors.Is(err, core.ErrUnknownDoc) {
		t.Fatalf("DocMeta unknown: %v", err)
	}
	if _, err := g.AnswerTF(99999, queryCols(p, 0)); !errors.Is(err, core.ErrUnknownDoc) {
		t.Fatalf("AnswerTF unknown: %v", err)
	}
	if _, err := g.AnswerRTK(&core.TFQuery{Cols: []uint32{1}}); !errors.Is(err, core.ErrBadQuery) {
		t.Fatalf("short query: %v", err)
	}
	bad := queryCols(p, 0)
	bad.Cols[0] = uint32(p.W)
	if _, err := g.AnswerRTK(bad); !errors.Is(err, core.ErrBadQuery) {
		t.Fatalf("out-of-range column: %v", err)
	}
	for si, s := range g.shards {
		for ri := range s.replicas {
			if got := g.ReplicaState(si, ri); got != resilience.Closed {
				t.Fatalf("replica %d/%d breaker moved on protocol errors: %v", si, ri, got)
			}
		}
	}
}

// TestLabelsBounded: any index clamps into the closed label enum.
func TestLabelsBounded(t *testing.T) {
	for _, i := range []int{-1, 0, 15, 16, 1 << 20} {
		if l := ShardLabel(i); l == "" {
			t.Fatalf("empty shard label for %d", i)
		}
	}
	if ShardLabel(99) != LabelOverflow || ReplicaLabel(99) != LabelOverflow {
		t.Fatal("out-of-table indexes must clamp to overflow")
	}
	if BreakerLabel(1, 2) != "s1/r2" {
		t.Fatalf("BreakerLabel(1,2) = %q", BreakerLabel(1, 2))
	}
}

// TestFacadeNoiseSingleDraw: with DP enabled, every value of one answer
// carries the same noise offset (one draw per release, Algorithm 2's
// schedule) and the raw cache never leaks unperturbed values... the
// offset must differ between two identical queries (fresh draw each
// release even on a cache hit).
func TestFacadeNoiseSingleDraw(t *testing.T) {
	docs := testDocs(60, 43)
	p := testParams()
	p.Shards = 2
	p.Epsilon = 0.5
	mech, err := dp.ForEpsilon(p.Epsilon, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Params: p, Seed: testSeed, Mech: mech, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewOwner(testParams(), testSeed, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	q := queryCols(p, 5)
	raw, err := ref.AnswerRTK(q)
	if err != nil {
		t.Fatal(err)
	}
	// (value+noise)-value wobbles in the last ulp across magnitudes, so
	// "same draw" is equality up to a relative tolerance, not bit equality.
	const tol = 1e-9
	offset := func() float64 {
		resp, err := g.AnswerRTK(q)
		if err != nil {
			t.Fatal(err)
		}
		var off float64
		seen := false
		for a, c := range resp.Cells {
			for i, v := range c.Values {
				d := v - raw.Cells[a].Values[i]
				if !seen {
					off = d
					seen = true
				} else if math.Abs(d-off) > tol*math.Max(1, math.Abs(off)) {
					t.Fatalf("row %d entry %d: noise offset %v differs from %v (not a single draw)", a, i, d, off)
				}
			}
		}
		if !seen {
			t.Skip("corpus produced empty cells")
		}
		return off
	}
	first := offset()
	second := offset() // second call is a cache hit on both shards
	if math.Abs(first-second) <= tol*math.Max(1, math.Abs(first)) {
		t.Fatal("two releases drew identical noise; cached raw answers must be re-perturbed per release")
	}
}

// TestShardForStability: the doc-range map is pure and covers all shards.
func TestShardForStability(t *testing.T) {
	g, err := New(Config{Params: func() core.Params { p := testParams(); p.Shards = 4; return p }(), Seed: 1, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for id := 0; id < 256; id++ {
		s := g.ShardFor(id)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardFor(%d) = %d out of range", id, s)
		}
		if s != g.ShardFor(id) {
			t.Fatal("ShardFor not stable")
		}
		seen[s] = true
	}
	if len(seen) != 4 {
		t.Fatalf("block striping covered %d shards, want 4", len(seen))
	}
	if g.ShardFor(-40) < 0 || g.ShardFor(-40) >= 4 {
		t.Fatal("negative ids must still map into range")
	}
}

// TestRetentionShardedMatchesSingleOwnerUnderWrites: a group makes its
// shards' raw answers for one call and returns their memory once merged,
// so a reply a caller still holds must never be made of memory a later
// call was handed. It runs under the load that would expose one — 2 000
// queries over 8 goroutines, alone and in batches of three, every
// merged answer released at once so memory changes hands constantly,
// beside a writer that ingests and removes. Between bursts, with the
// writer quiet, the group must answer what a single owner built from
// the live documents answers (TestChurnMatchesSingleOwner's rule), one
// query at a time and batched.
func TestRetentionShardedMatchesSingleOwnerUnderWrites(t *testing.T) {
	p := testParams()
	p.K = 18 // HeapCap 36: shards hold 10-12 documents, their union 40-42
	all := testDocs(48, 43)
	for i := range all {
		all[i].DocID = i
	}
	base, spare := all[:40], all[40:]
	sp := p
	sp.Shards, sp.Replicas = 4, 2
	g, err := New(Config{Params: sp, Seed: testSeed, BlockSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddDocuments(base); err != nil {
		t.Fatal(err)
	}
	live := make(map[int]core.DocCounts)
	for _, d := range base {
		live[d.DocID] = d
	}

	const bursts, perBurst, workers = 10, 200, 8
	for burst := 0; burst < bursts; burst++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := 0; n < perBurst/workers; n++ {
					salt := burst*perBurst + w*31 + n
					qs := []*core.TFQuery{queryCols(p, salt%23), queryCols(p, (salt+7)%23), queryCols(p, (salt+11)%23)}
					if n%2 == 0 {
						qs = qs[:1]
					}
					resps, err := g.AnswerRTKBatch(qs)
					if err != nil {
						t.Error(err)
						return
					}
					for _, resp := range resps {
						resp.Release()
					}
				}
			}(w)
		}
		// The writer: a spare document comes and the previous one goes
		// while the queries run.
		in, out := spare[burst%len(spare)], spare[(burst+len(spare)-1)%len(spare)]
		if err := g.AddDocument(in.DocID, in.Counts); err != nil {
			t.Fatal(err)
		}
		if _, there := live[out.DocID]; there {
			if err := g.RemoveDocument(out.DocID); err != nil {
				t.Fatal(err)
			}
		}
		live[in.DocID] = in
		delete(live, out.DocID)
		wg.Wait()

		docs := make([]core.DocCounts, 0, len(live))
		for _, d := range live {
			docs = append(docs, d)
		}
		ref, err := core.NewOwner(p, testSeed, dp.Disabled())
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.AddDocuments(docs); err != nil {
			t.Fatal(err)
		}
		for salt := 0; salt < 23; salt++ {
			qs := []*core.TFQuery{queryCols(p, salt), queryCols(p, (salt+5)%23)}
			want, err := ref.AnswerRTKBatch(qs)
			if err != nil {
				t.Fatal(err)
			}
			one, err := g.AnswerRTK(qs[0])
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.AnswerRTKBatch(qs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one, want[0]) || !reflect.DeepEqual(got, want) {
				t.Fatalf("burst %d salt %d: sharded answers differ from the single owner's:\n one %+v\n got %+v\nwant %+v", burst, salt, one, got, want)
			}
			for _, r := range append(append(got, one), want...) {
				r.Release()
			}
		}
	}
}

// BenchmarkGroupAnswerRTK measures the facade's scatter-gather at the
// benchmark geometry (z = 30, alpha*K = 250, 1 200 documents over
// 4 shards x 1 replica): every call pays four raw answers and the
// merge; the caller releases the merged reply as recovery does.
func BenchmarkGroupAnswerRTK(b *testing.B) {
	p := core.DefaultParams()
	p.K, p.Epsilon = 50, 0
	p.Shards, p.Replicas = 4, 1
	g, err := New(Config{Params: p, Seed: testSeed})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	docs := make([]core.DocCounts, 1200)
	for i := range docs {
		counts := make(map[uint64]int64)
		for t := 0; t < 80; t++ {
			counts[uint64(rng.Intn(500))]++
		}
		docs[i] = core.DocCounts{DocID: i, Counts: counts}
	}
	if err := g.AddDocuments(docs); err != nil {
		b.Fatal(err)
	}
	queries := make([]*core.TFQuery, 64)
	for i := range queries {
		queries[i] = queryCols(p, i)
		if _, err := g.AnswerRTK(queries[i]); err != nil { // bring every addressed cell to canonical order
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := g.AnswerRTK(queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		resp.Release()
	}
}

// TestTracedGroupAnswersAndSpans: the view WithTrace returns for a
// valid span context answers every OwnerAPI call exactly as the group
// does, and records its replica attempts as "shard.attempt" spans of
// the caller's trace.
func TestTracedGroupAnswersAndSpans(t *testing.T) {
	docs := testDocs(60, 5)
	g := newGroup(t, 2, 2, docs)
	reg := telemetry.NewRegistry()
	reg.EnableTracing(0, 0)
	g.SetHooks(Hooks{Registry: reg})
	root := reg.StartRootSpan("root", nil)
	view := g.WithTrace(root.Context())
	if view == core.OwnerAPI(g) {
		t.Fatal("a valid span context must get a traced view")
	}
	p := testParams()
	if got, want := view.DocIDs(), g.DocIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DocIDs: %v, want %v", got, want)
	}
	d := docs[7].DocID
	gl, gu, gerr := view.DocMeta(d)
	wl, wu, werr := g.DocMeta(d)
	if gl != wl || gu != wu || gerr != nil || werr != nil {
		t.Fatalf("DocMeta(%d): %d, %d, %v, want %d, %d, %v", d, gl, gu, gerr, wl, wu, werr)
	}
	gotTF, err := view.AnswerTF(d, queryCols(p, 1))
	if err != nil {
		t.Fatal(err)
	}
	wantTF, err := g.AnswerTF(d, queryCols(p, 1))
	if err != nil || !reflect.DeepEqual(gotTF, wantTF) {
		t.Fatalf("AnswerTF: %+v, want %+v (%v)", gotTF, wantTF, err)
	}
	gotRTK, err := view.AnswerRTK(queryCols(p, 2))
	if err != nil {
		t.Fatal(err)
	}
	wantRTK, err := g.AnswerRTK(queryCols(p, 2))
	if err != nil || !reflect.DeepEqual(gotRTK, wantRTK) {
		t.Fatalf("AnswerRTK differs from the group's (%v)", err)
	}
	qs := []*core.TFQuery{queryCols(p, 3), queryCols(p, 4)}
	gotBatch, err := view.AnswerRTKBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch, err := g.AnswerRTKBatch(qs)
	if err != nil || !reflect.DeepEqual(gotBatch, wantBatch) {
		t.Fatalf("AnswerRTKBatch differs from the group's (%v)", err)
	}
	root.End()
	spans, ok := reg.Trace(root.Context().TraceID)
	if !ok {
		t.Fatal("the caller's trace was not retained")
	}
	attempts := 0
	for _, sp := range spans {
		if sp.Name == "shard.attempt" {
			attempts++
		}
	}
	// DocIDs and the two RTK calls reach both shards, DocMeta and
	// AnswerTF only the document's: one healthy replica answers each.
	if attempts != 2+1+1+2+2 {
		t.Fatalf("%d shard.attempt spans in the trace, want 8", attempts)
	}
}
