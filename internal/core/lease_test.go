package core

import (
	"errors"
	"math/rand"
	"reflect"
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
	resp, err := o.AnswerRTK(plan.query)
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
	again, err := o.AnswerRTK(plan.query)
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
	parts := benchMergeParts(300, 40)
	produce := map[string]func() *RTKResponse{
		"Owner.AnswerRTK": func() *RTKResponse {
			resp, err := o.AnswerRTK(plan.query)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		},
		"MergeRTKResponses": func() *RTKResponse { return MergeRTKResponses(parts, 50, true, 0) },
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
