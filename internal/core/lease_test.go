package core

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// leaseGeometry is benchGeometry in small — full cells of alpha*K = 50
// over 150 documents, epsilon 0 — so the lease tests stay quick under
// the race detector.
func leaseGeometry(t testing.TB) (*Querier, *Owner) {
	p := DefaultParams()
	p.K, p.W, p.Epsilon = 10, 64, 0
	q, err := NewQuerier(p, 42, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	o, _ := buildZipfOwner(t, p, nil, 150, 77)
	return q, o
}

// heldOwner answers with the one reply it holds — what OwnerAPI forbids
// an implementation to do with a reply the caller may Release.
type heldOwner struct {
	OwnerAPI
	resp *RTKResponse
}

func (h heldOwner) AnswerRTK(*TFQuery) (*RTKResponse, error) { return h.resp, nil }

// TestReleaseEndsTheReply: a released reply reads as zero cells, so a
// holder that should not exist is refused by recovery and frames an
// empty answer rather than someone else's; releasing twice, releasing a
// reply the constructor did not make and releasing nil change nothing.
func TestReleaseEndsTheReply(t *testing.T) {
	q, o := leaseGeometry(t)
	plan := q.Plan(1003)
	resp, err := o.AnswerRTK(plan.Query())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != o.params.Z || resp.payloadLen == 0 {
		t.Fatalf("setup: %d cells, carried length %d", len(resp.Cells), resp.payloadLen)
	}
	resp.Release()
	if len(resp.Cells) != 0 || cap(resp.Cells) != 0 || resp.payloadLen != 0 {
		t.Fatalf("released reply still reads %d cells (cap %d), carried length %d", len(resp.Cells), cap(resp.Cells), resp.payloadLen)
	}
	if docs, _, err := RTKWithPlan(plan, heldOwner{resp: resp}, 10); !errors.Is(err, ErrBadQuery) || docs != nil {
		t.Fatalf("recovery from a released reply: (%v, %v), want ErrBadQuery", docs, err)
	}
	if payload, ok := resp.AppendPayload(nil); !ok || len(payload) != 2 {
		t.Fatalf("a released reply encodes to % x (%v), want the two bytes of an empty reply", payload, ok)
	}
	// Another answer takes the memory over; the released reply stays dead.
	again, err := o.AnswerRTK(plan.Query())
	if err != nil {
		t.Fatal(err)
	}
	resp.Release()
	if len(resp.Cells) != 0 || len(again.Cells) != o.params.Z || len(again.Cells[0].IDs) == 0 {
		t.Fatalf("second Release: released reply has %d cells, the live one %d", len(resp.Cells), len(again.Cells))
	}

	var none *RTKResponse
	none.Release()
	literal := &RTKResponse{Cells: []RTKCell{{IDs: []int32{1, 2}, Values: []float64{3, 4}}, {}}}
	spare := &RTKResponse{Cells: append(make([]RTKCell, 0, 8), literal.Cells...)} // capacity to spare, nothing parked in it
	for _, r := range []*RTKResponse{literal, spare} {
		r.Release()
		if !reflect.DeepEqual(r.Cells, literal.Cells) {
			t.Fatalf("Release changed a reply the constructor did not make: %+v", r)
		}
	}
}

// TestLeaseNoStaleReach: the slabs are handed out as they were left, so
// every cell a producer returns must end where its row ends — equal
// length and capacity, ids and values alike — and hold this answer only.
// The pool is primed with a larger reply full of a value no answer
// contains; owner, merge and decoder then answer, and must say what they
// said before there was anything to recycle.
func TestLeaseNoStaleReach(t *testing.T) {
	q, o := leaseGeometry(t)
	plan := q.Plan(1007)
	parts := benchMergeParts(300, 40, sparseValue)
	produce := map[string]func() *RTKResponse{
		"Owner.AnswerRTK": func() *RTKResponse {
			resp, err := o.AnswerRTK(plan.Query())
			if err != nil {
				t.Fatal(err)
			}
			return resp
		},
		"MergeRTKResponses": func() *RTKResponse { return MergeRTKResponses(parts, 50, true, fixedNoise(0)) },
	}
	payload, ok := produce["Owner.AnswerRTK"]().AppendPayload(nil)
	if !ok {
		t.Fatal("the owner's reply has no version 2 payload")
	}
	produce["DecodeRTKPayload"] = func() *RTKResponse {
		resp, err := DecodeRTKPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	want := make(map[string]*RTKResponse) // never released: nothing of theirs is recycled
	for name, f := range produce {
		want[name] = f()
	}

	const stale = -12345
	prime := func() {
		var held []*RTKResponse
		for i := 0; i < 8; i++ { // the race detector's sync.Pool drops some Puts
			r, ids, vals := NewRTKResponse(64, 20000)
			for k := range ids {
				ids[k], vals[k] = stale, stale
			}
			for a := range r.Cells {
				r.Cells[a] = RTKCell{IDs: ids[:300:300], Values: vals[:300:300]}
			}
			held = append(held, r)
		}
		for _, r := range held {
			r.Release()
		}
	}
	for name, f := range produce {
		for round := 0; round < 3; round++ {
			prime()
			got := f()
			for a, c := range got.Cells {
				if cap(c.IDs) != len(c.IDs) || cap(c.Values) != len(c.Values) {
					t.Fatalf("%s: row %d has %d ids in capacity %d, %d values in capacity %d",
						name, a, len(c.IDs), cap(c.IDs), len(c.Values), cap(c.Values))
				}
			}
			if !reflect.DeepEqual(got, want[name]) {
				t.Fatalf("%s, round %d: the answer changed once there was memory to recycle", name, round)
			}
			got.Release()
		}
	}
}

// heldTFOwner answers every TF query with the one reply it holds.
type heldTFOwner struct {
	OwnerAPI
	resp *TFResponse
}

func (h heldTFOwner) AnswerTF(int, *TFQuery) (*TFResponse, error) { return h.resp, nil }

// TestReleaseEndsTheTFReply: a released TF reply holds no values, so a
// holder that should not exist is refused by recovery — Recover's and
// CrossTF's alike — rather than reading an answer the memory serves
// next; releasing twice, releasing a literal and releasing nil change
// nothing.
func TestReleaseEndsTheTFReply(t *testing.T) {
	q, o := leaseGeometry(t)
	query, priv := q.BuildQuery(1003)
	resp, err := o.AnswerTF(3, query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Recover(priv, resp); err != nil {
		t.Fatalf("setup: %v", err)
	}
	resp.Release()
	if resp.Values != nil {
		t.Fatalf("released reply still reads %d values", len(resp.Values))
	}
	if _, err := q.Recover(priv, resp); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("Recover from a released reply: %v, want ErrBadQuery", err)
	}
	if _, err := CrossTF(q, heldTFOwner{resp: resp}, 3, 1003); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("CrossTF over a released reply: %v, want ErrBadQuery", err)
	}
	resp.Release()
	if resp.Values != nil {
		t.Fatal("a second Release revived the reply")
	}

	var none *TFResponse
	none.Release()
	literal := &TFResponse{Values: []float64{1, 2, 3}}
	literal.Release()
	if !reflect.DeepEqual(literal, &TFResponse{Values: []float64{1, 2, 3}}) {
		t.Fatalf("Release changed a reply NewTFResponse did not make: %+v", literal)
	}
}

// TestLeaseTFNoStaleReach: a recycled TF reply's memory is handed out as
// it was left, so every producer must write all of a reply's values and
// hand them over ending at their capacity. The pool is primed with
// longer replies full of a value no answer holds; owner and CrossTF must
// then answer what they answered before there was anything to recycle.
func TestLeaseTFNoStaleReach(t *testing.T) {
	q, o := leaseGeometry(t)
	query, priv := q.BuildQuery(1007)
	want, err := o.AnswerTF(5, query)
	if err != nil {
		t.Fatal(err)
	}
	wantTF, err := q.Recover(priv, want)
	if err != nil {
		t.Fatal(err)
	}
	// CrossTF draws as BuildQuery does: a querier in the state q was in
	// before BuildQuery draws the same query.
	fresh, _ := leaseGeometry(t)
	const stale = -12345
	prime := func() {
		var held []*TFResponse
		for i := 0; i < 8; i++ { // the race detector's sync.Pool drops some Puts
			r := NewTFResponse(4 * o.params.Z)
			for k := range r.Values {
				r.Values[k] = stale
			}
			held = append(held, r)
		}
		for _, r := range held {
			r.Release()
		}
	}
	for round := 0; round < 3; round++ {
		prime()
		got, err := o.AnswerTF(5, query)
		if err != nil {
			t.Fatal(err)
		}
		if cap(got.Values) != len(got.Values) || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: the owner's reply changed once there was memory to recycle: %v (cap %d), want %v",
				round, got.Values, cap(got.Values), want.Values)
		}
		got.Release()
	}
	prime()
	if got, err := CrossTF(fresh, o, 5, 1007); err != nil || got != wantTF {
		t.Fatalf("CrossTF over recycled memory: %v (%v), want %v", got, err, wantTF)
	}
}

// TestTFAllocCeilings pins the warm per-call allocation budget of the
// point query and the plans at the benchmark geometry: a released owner
// reply and a whole CrossTF cost nothing, a shared plan its four
// objects, and a one-shot reverse top-K — whose plan is pooled — the
// reply header Release makes and the result it returns.
func TestTFAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; ceilings hold without -race")
	}
	q, o := benchGeometry(t, 0.5)
	plans := make([]*Plan, 64)
	for i := range plans {
		plans[i] = q.Plan(uint64(1000 + i))
	}
	i := 0
	for _, c := range []struct {
		name    string
		ceiling float64
		call    func() error
	}{
		{"Owner.AnswerTF, reply released", 0, func() error {
			resp, err := o.AnswerTF(i%1200, plans[i%len(plans)].Query())
			resp.Release()
			return err
		}},
		{"CrossTF (owner call included)", 0, func() error {
			_, err := CrossTF(q, o, i%1200, uint64(i))
			return err
		}},
		{"Querier.Plan", 4, func() error {
			q.Plan(uint64(i))
			return nil
		}},
		{"RTKReverseTopK (owner call included)", 2, func() error {
			_, _, err := RTKReverseTopK(q, o, uint64(1000+i%64), 50)
			return err
		}},
	} {
		var err error
		n := testing.AllocsPerRun(200, func() {
			i++
			if e := c.call(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n > c.ceiling {
			t.Errorf("%s: %.1f allocs per call, ceiling %v", c.name, n, c.ceiling)
		}
	}
}

// TestLeaseMixedLengthsAllocFree: a reply is as long as the cells its
// query addresses hold, so replies of one geometry vary in length, and a
// slab made for one must serve the longer ones that follow it. After a
// warm-up of four replies, batches of four held at once (as a search
// holds one per party) at lengths from just above the warm-up's to
// almost twice it, in mixed order, take every cell array and slab from
// released replies: per reply, the one allocation left is the header
// Release parks for the next.
func TestLeaseMixedLengthsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; ceilings hold without -race")
	}
	const z, held = 30, 4
	lengths := []int{1900, 1100, 2047, 1500, 1025, 1999, 1300, 1700, 1800, 1200, 1600, 1400}
	var batch [held]*RTKResponse
	hold := func(i int) {
		for k := range batch {
			n := lengths[(i+k)%len(lengths)]
			resp, ids, vals := NewRTKResponse(z, n)
			if len(ids) != n || len(vals) != n || len(resp.Cells) != z {
				t.Fatalf("NewRTKResponse(%d, %d): %d cells, slabs of %d and %d", z, n, len(resp.Cells), len(ids), len(vals))
			}
			resp.Cells[0] = RTKCell{IDs: ids[:n:n], Values: vals[:n:n]}
			batch[k] = resp
		}
		for _, resp := range batch {
			resp.Release()
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one pool shard, as AllocsPerRun runs
	// The warm-up: shorter than every reply after it.
	for k := range batch {
		batch[k], _, _ = NewRTKResponse(z, 1025)
	}
	for _, resp := range batch {
		resp.Release()
	}
	// Counted by hand: AllocsPerRun would warm up on the first mixed batch
	// and round the average down.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range lengths {
		hold(i)
	}
	runtime.ReadMemStats(&after)
	if n, most := after.Mallocs-before.Mallocs, uint64(held*len(lengths)); n > most {
		t.Errorf("%d replies of mixed lengths: %d allocs, ceiling %d (the parked headers)", most, n, most)
	}
}
