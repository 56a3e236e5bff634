package core

import (
	"errors"
	"reflect"
	"testing"
)

// countingMech hands out 1, 2, 3, ... — a reply shows which draw
// perturbed it — and so counts the draws made.
type countingMech struct{ draws int }

func (m *countingMech) Sample() float64  { m.draws++; return float64(m.draws) }
func (m *countingMech) Epsilon() float64 { return 1 }

// fixedNoise is a mechanism whose every draw is the same.
type fixedNoise float64

func (f fixedNoise) Sample() float64  { return float64(f) }
func (f fixedNoise) Epsilon() float64 { return 1 }

// batchQueries returns the queries of k plans for distinct terms.
func batchQueries(q *Querier, k int) ([]*Plan, []*TFQuery) {
	plans, qs := make([]*Plan, k), make([]*TFQuery, k)
	for i := range plans {
		plans[i] = q.Plan(uint64(1003 + 2*i))
		qs[i] = plans[i].Query()
	}
	return plans, qs
}

// rtkBatch is RTKWithPlans into new lists: the documents and costs per
// plan, or no documents on error.
func rtkBatch(plans []*Plan, owner OwnerAPI, k int) ([][]DocCount, []Cost, error) {
	docs, costs := make([][]DocCount, len(plans)), make([]Cost, len(plans))
	if err := RTKWithPlans(plans, owner, k, docs, costs); err != nil {
		return nil, costs, err
	}
	return docs, costs, nil
}

// TestRTKWithPlansInPlace: lists recovered into disjoint ranges of one
// slab stay in their ranges — each is where its range begins and within
// its capacity — and equal the lists recovered into new memory.
func TestRTKWithPlansInPlace(t *testing.T) {
	q, o := leaseGeometry(t)
	plans, _ := batchQueries(q, 3)
	const k = 10
	want, wantCosts, err := rtkBatch(plans, o, k)
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]DocCount, len(plans)*k)
	docs, costs := make([][]DocCount, len(plans)), make([]Cost, len(plans))
	for i := range docs {
		docs[i] = slab[i*k : i*k : (i+1)*k]
	}
	if err := RTKWithPlans(plans, o, k, docs, costs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(docs, want) || !reflect.DeepEqual(costs, wantCosts) {
		t.Fatalf("in place: %v at %+v, want %v at %+v", docs, costs, want, wantCosts)
	}
	for i, d := range docs {
		if len(d) == 0 || &d[0] != &slab[i*k] || cap(d) != k {
			t.Fatalf("list %d (%d entries, capacity %d) left its range of the slab", i, len(d), cap(d))
		}
	}
}

// TestAnswerRTKBatchDrawsInQueryOrder: a batch is answered with the
// draws its queries would have got one by one — the i-th reply carries
// the i-th draw — so grouping a search's terms moves no noise.
func TestAnswerRTKBatchDrawsInQueryOrder(t *testing.T) {
	p := DefaultParams()
	p.K, p.W = 10, 64
	q, _ := leaseGeometry(t)
	single, batched := &countingMech{}, &countingMech{}
	one, _ := buildZipfOwner(t, p, single, 150, 77)
	all, _ := buildZipfOwner(t, p, batched, 150, 77)
	_, qs := batchQueries(q, 3)

	var want []*RTKResponse
	for _, query := range qs {
		resp, err := one.AnswerRTK(query)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, resp)
	}
	got, err := all.AnswerRTKBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the batch's replies differ from the same queries answered one by one")
	}
	if reflect.DeepEqual(got[0], got[1]) || single.draws != 3 || batched.draws != 3 {
		t.Fatalf("degenerate: %d and %d draws for 3 queries, replies 0 and 1 equal: %v",
			single.draws, batched.draws, reflect.DeepEqual(got[0], got[1]))
	}
}

// TestAnswerRTKBatchAllOrNothing: every query is checked before the
// first draw, so a batch whose last query is malformed, an empty batch
// and one above the cap are ErrBadQuery with no noise drawn and no
// reply made.
func TestAnswerRTKBatchAllOrNothing(t *testing.T) {
	p := DefaultParams()
	p.K, p.W = 10, 64
	q, _ := leaseGeometry(t)
	mech := &countingMech{}
	o, _ := buildZipfOwner(t, p, mech, 150, 77)
	_, good := batchQueries(q, 3)

	short := &TFQuery{Cols: good[2].Cols[:p.Z-1]}
	wide := &TFQuery{Cols: append([]uint32(nil), good[2].Cols...)}
	wide.Cols[p.Z-1] = uint32(p.W)
	over := make([]*TFQuery, MaxRTKBatch+1)
	for i := range over {
		over[i] = good[i%len(good)]
	}
	for name, qs := range map[string][]*TFQuery{
		"last query short":        {good[0], good[1], short},
		"last query out of range": {good[0], good[1], wide},
		"last query nil":          {good[0], good[1], nil},
		"empty batch":             {},
		"above the cap":           over,
	} {
		resps, err := o.AnswerRTKBatch(qs)
		if !errors.Is(err, ErrBadQuery) || resps != nil {
			t.Errorf("%s: (%v, %v), want no replies and ErrBadQuery", name, resps, err)
		}
		if mech.draws != 0 {
			t.Fatalf("%s: %d noise draws for a refused batch", name, mech.draws)
		}
	}
	if resps, err := o.AnswerRTKBatch(over[:MaxRTKBatch]); err != nil || len(resps) != MaxRTKBatch || mech.draws != MaxRTKBatch {
		t.Fatalf("a batch at the cap: %d replies, %d draws (%v)", len(resps), mech.draws, err)
	}
}

// handedOut wraps an owner and keeps a pointer to every reply it hands
// out — to look at after the caller is done, never to read the rows of —
// optionally swapping reply `spoil` of a batch for one recovery refuses.
type handedOut struct {
	OwnerAPI
	spoil int
	seen  []*RTKResponse
}

func (h *handedOut) AnswerRTK(q *TFQuery) (*RTKResponse, error) {
	resp, err := h.OwnerAPI.AnswerRTK(q)
	h.seen = append(h.seen, resp)
	return resp, err
}

func (h *handedOut) AnswerRTKBatch(qs []*TFQuery) ([]*RTKResponse, error) {
	resps, err := h.OwnerAPI.AnswerRTKBatch(qs)
	if err == nil && h.spoil >= 0 {
		resps[h.spoil].Release()
		resps[h.spoil], _, _ = NewRTKResponse(len(qs[0].Cols)-1, 0) // a row short
	}
	h.seen = append(h.seen, resps...)
	return resps, err
}

// released reports whether every reply reads as Release leaves one.
func released(resps []*RTKResponse) bool {
	for _, r := range resps {
		if len(r.Cells) != 0 || cap(r.Cells) != 0 {
			return false
		}
	}
	return true
}

// TestLeaseBatchRepliesAllReleased: RTKWithPlans holds the k replies of
// its exchange and ends every one of them — after recovering them all,
// and equally when a reply in the middle is refused and the ones after
// it are never read. What it returns is what RTKWithPlan returns plan by
// plan, or nothing.
func TestLeaseBatchRepliesAllReleased(t *testing.T) {
	q, o := leaseGeometry(t)
	plans, _ := batchQueries(q, 3)
	var wantDocs [][]DocCount
	var wantCosts []Cost
	for _, plan := range plans {
		docs, cost, err := RTKWithPlan(plan, o, 10)
		if err != nil || len(docs) == 0 {
			t.Fatalf("single recovery: %v (%v)", docs, err)
		}
		wantDocs, wantCosts = append(wantDocs, docs), append(wantCosts, cost)
	}

	whole := &handedOut{OwnerAPI: o, spoil: -1}
	docs, costs, err := rtkBatch(plans, whole, 10)
	if err != nil || !reflect.DeepEqual(docs, wantDocs) || !reflect.DeepEqual(costs, wantCosts) {
		t.Fatalf("batched recovery: %v at %+v (%v), want %v at %+v", docs, costs, err, wantDocs, wantCosts)
	}
	if len(whole.seen) != 3 || !released(whole.seen) {
		t.Fatalf("after a recovered batch, %d replies handed out, all released: %v", len(whole.seen), released(whole.seen))
	}

	spoiled := &handedOut{OwnerAPI: o, spoil: 1}
	docs, _, err = rtkBatch(plans, spoiled, 10)
	if !errors.Is(err, ErrBadQuery) || docs != nil {
		t.Fatalf("a batch with a refused reply: (%v, %v), want no documents and ErrBadQuery", docs, err)
	}
	if len(spoiled.seen) != 3 || !released(spoiled.seen) {
		t.Fatalf("after a refused reply, %d replies handed out, all released: %v", len(spoiled.seen), released(spoiled.seen))
	}

	// One plan is the batch of one: asked as AnswerRTK, released alike.
	lone := &handedOut{OwnerAPI: o, spoil: -1}
	if docs, _, err := rtkBatch(plans[:1], lone, 10); err != nil || !reflect.DeepEqual(docs[0], wantDocs[0]) {
		t.Fatalf("a batch of one: %v (%v), want %v", docs, err, wantDocs[0])
	}
	if len(lone.seen) != 1 || !released(lone.seen) {
		t.Fatalf("after a batch of one, %d replies handed out, released: %v", len(lone.seen), released(lone.seen))
	}
}
