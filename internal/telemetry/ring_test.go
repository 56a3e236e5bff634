package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

// TestRing: a push past capacity overwrites the oldest entry and hands
// it back, a snapshot comes back oldest first, and a lookup finds the
// newest match.
func TestRing(t *testing.T) {
	type rec struct {
		id    string
		terms int
	}
	r := NewRing[rec](3)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("empty ring snapshot = %+v, want nil", got)
	}
	for i := 0; i < 5; i++ {
		old, evicted := r.Push(rec{id: fmt.Sprintf("t%d", i), terms: i})
		if evicted != (i >= 3) || (evicted && old.terms != i-3) {
			t.Fatalf("push %d evicted %+v, %v", i, old, evicted)
		}
	}
	var kept []string
	for _, e := range r.Snapshot() {
		kept = append(kept, e.id)
	}
	if got := strings.Join(kept, ","); got != "t2,t3,t4" {
		t.Fatalf("snapshot = %s, want t2,t3,t4", got)
	}
	find := func(id string) (rec, bool) {
		return r.Newest(func(e rec) bool { return e.id == id })
	}
	for i := 0; i < 5; i++ {
		e, ok := find(fmt.Sprintf("t%d", i))
		if ok != (i >= 2) || (ok && e.terms != i) {
			t.Fatalf("lookup t%d = %+v, %v", i, e, ok)
		}
	}
	// Newest first: of two entries under one ID, the later wins.
	r.Push(rec{id: "t3", terms: 30})
	if e, ok := find("t3"); !ok || e.terms != 30 {
		t.Fatalf("lookup t3 = %+v, %v, want the newest (30)", e, ok)
	}
	if _, ok := find(""); ok {
		t.Fatal("lookup of the empty ID found an entry")
	}
}
