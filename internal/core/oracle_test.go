package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"csfltr/internal/dp"
	"csfltr/internal/sketch"
)

// The reference query side: the copy-and-sort owner answer and the
// map-based recovery this package used before cells kept their DocID
// order resident and recovery became a sorted merge. They survive here
// only as the oracle the production code is compared against bit for bit.

// refCell is a copy of cell (row, col) sorted by DocID, and never
// touches the resident layout.
func refCell(s *RTKSketch, row int, col uint32) []Entry {
	out := slices.Clone(s.cells[row*s.params.W+int(col)].entries)
	sort.Slice(out, func(i, j int) bool { return out[i].DocID < out[j].DocID })
	return out
}

// refOwner answers RTK queries from copies, so the wrapped owner's cells
// stay in whatever layout ingestion left them in.
type refOwner struct{ *Owner }

func (r refOwner) AnswerRTK(q *TFQuery) (*RTKResponse, error) {
	o := r.Owner
	o.mu.Lock()
	defer o.mu.Unlock()
	if q == nil || len(q.Cols) != o.params.Z {
		return nil, fmt.Errorf("%w: query has %d columns, want %d", ErrBadQuery, qLen(q), o.params.Z)
	}
	noise := o.mech.Sample()
	cells := make([]RTKCell, o.params.Z)
	for a := 0; a < o.params.Z; a++ {
		if q.Cols[a] >= uint32(o.params.W) {
			return nil, fmt.Errorf("%w: column %d out of range", ErrBadQuery, q.Cols[a])
		}
		entries := refCell(o.rtk, a, q.Cols[a])
		if len(entries) == 0 {
			continue // the zero RTKCell
		}
		cell := RTKCell{
			IDs:    make([]int32, len(entries)),
			Values: make([]float64, len(entries)),
		}
		for i, e := range entries {
			cell.IDs[i] = e.DocID
			cell.Values[i] = float64(e.Value) + noise
		}
		cells[a] = cell
	}
	// The length an owner carries must be the length a walk measures.
	resp := &RTKResponse{Cells: cells}
	resp.payloadLen, _ = resp.PayloadLen()
	return resp, nil
}

// refRTKWithPlan recovers candidates through a per-document map of
// (row, value) observations and ranks them with a reflection sort.
func refRTKWithPlan(plan *Plan, owner OwnerAPI, k int) ([]DocCount, Cost, error) {
	query, priv := plan.Query(), &plan.priv
	var cost Cost
	cost.BytesSent += query.WireSize()
	resp, err := owner.AnswerRTK(query)
	if err != nil {
		return nil, cost, err
	}
	cost.Messages = 1
	cost.BytesReceived += resp.WireSize()
	cost.SketchLookups = plan.params.Z
	type obs struct {
		rows []int
		vals []float64
	}
	byDoc := make(map[int32]*obs)
	for _, a := range priv.PV {
		cell := resp.Cells[a]
		for i, id := range cell.IDs {
			o := byDoc[id]
			if o == nil {
				o = &obs{}
				byDoc[id] = o
			}
			o.rows = append(o.rows, a)
			o.vals = append(o.vals, cell.Values[i])
		}
	}
	threshold := int(math.Ceil(plan.params.Beta * float64(plan.params.Z1)))
	if threshold < 1 {
		threshold = 1
	}
	candidates := make([]DocCount, 0, len(byDoc))
	for id, o := range byDoc {
		if len(o.rows) < threshold {
			continue
		}
		rows, vals := o.rows, o.vals
		if plan.params.Estimator == EstimatorZeroFill {
			rows, vals = priv.PV, make([]float64, len(priv.PV))
			mergeZeroFill(priv.PV, o.rows, o.vals, vals)
		}
		est := sketch.EstimateFromRows(plan.params.SketchKind, plan.fam, priv.Term, rows, vals)
		candidates = append(candidates, DocCount{DocID: int(id), Count: est})
	}
	sort.Slice(candidates, func(i, j int) bool {
		// An estimate that is not a number (only a hostile reply yields
		// one) ranks below every number, by id among its like.
		a, b := candidates[i], candidates[j]
		if an, bn := math.IsNaN(a.Count), math.IsNaN(b.Count); an != bn {
			return bn
		} else if !an && a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.DocID < b.DocID
	})
	if len(candidates) > k {
		candidates = candidates[:k]
	}
	return candidates, cost, nil
}

// mergeZeroFill scatters a document's observed per-row values into dst —
// one slot per private row, zero where the document was evicted from the
// cell heap. rows must be a sorted subsequence of pv and dst must have
// len(pv). (RTKWithPlan now zero-fills while it merges the rows.)
func mergeZeroFill(pv, rows []int, vals, dst []float64) {
	j := 0
	for i, a := range pv {
		if j < len(rows) && rows[j] == a {
			dst[i] = vals[j]
			j++
		} else {
			dst[i] = 0
		}
	}
}

// refMergeCell merges per-partition copies of one cell the way the shard
// gather used to: concatenate, reflection-sort by eviction order, cut at
// the cap, reflection-sort by DocID.
func refMergeCell(parts [][]Entry, heapCap int, abs bool) []Entry {
	var merged []Entry
	for _, p := range parts {
		merged = append(merged, p...)
	}
	if len(merged) > heapCap {
		key := func(e Entry) int64 {
			if abs && e.Value < 0 {
				return -int64(e.Value)
			}
			return int64(e.Value)
		}
		sort.Slice(merged, func(i, j int) bool {
			ki, kj := key(merged[i]), key(merged[j])
			if ki != kj {
				return ki > kj
			}
			return merged[i].DocID < merged[j].DocID
		})
		merged = merged[:heapCap]
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].DocID < merged[j].DocID })
	return merged
}

func sameDocCounts(got, want []DocCount) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].DocID != want[i].DocID ||
			math.Float64bits(got[i].Count) != math.Float64bits(want[i].Count) {
			return fmt.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func checkAscending(t *testing.T, resp *RTKResponse) {
	t.Helper()
	for a, cell := range resp.Cells {
		if len(cell.IDs) != len(cell.Values) {
			t.Fatalf("row %d: %d ids, %d values", a, len(cell.IDs), len(cell.Values))
		}
		for i := 1; i < len(cell.IDs); i++ {
			if cell.IDs[i] <= cell.IDs[i-1] {
				t.Fatalf("row %d not strictly ascending at %d: %v", a, i, cell.IDs)
			}
		}
	}
}

// settleOne offers batch, whose ids are distinct and not live, to the one
// cell of s as insert does: the documents counted, their non-zero entries
// handed over ascending.
func settleOne(s *RTKSketch, batch []Entry) {
	slices.SortFunc(batch, func(a, b Entry) int { return cmp.Compare(a.DocID, b.DocID) })
	s.docs += len(batch)
	if nonZero := slices.DeleteFunc(batch, func(e Entry) bool { return e.Value == 0 }); len(nonZero) > 0 {
		s.cells[0].settle(s.params.HeapCap(), nonZero, new(settleScratch))
	}
}

// strictlyAscending is the order every cell keeps its entries in.
func strictlyAscending(es []Entry) bool {
	for i := 1; i < len(es); i++ {
		if es[i].DocID <= es[i-1].DocID {
			return false
		}
	}
	return true
}

// TestSettleMatchesModel drives one cell through random batches and
// removals and holds it, after every step, to the definition of the
// zero-free Algorithm 4: a batch leaves the cap entries ranking highest,
// under the eviction order, among the non-zero entries the cell held and
// the batch's, and a zero never enters. Caps run from 1 to 50, values
// over a narrow range, so zeros, key ties and (Count-Min) negative keys
// are common, and ids come fresh, from below every live one, back after
// a removal, or as math.MaxInt32. The cell must also keep its entries
// ascending and, while full, cache its minimum as the floor. A cut among
// the negative keys and among the positive ones, a full cell the whole
// batch leaves untouched, and one a few entries beat (settled from its
// floor) must each come up at least 100 times.
func TestSettleMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var cuts [2]int // the smallest entry kept past the cap: negative, positive key
	untouched, beaten := 0, 0
	for trial := 0; trial < 600; trial++ {
		cap := 1 + rng.Intn(50)
		if trial%3 == 0 {
			cap = 1 + rng.Intn(6) // full cells and floor ties the common case
		}
		abs := trial%2 == 0
		s := &RTKSketch{params: Params{Z: 1, W: 1, Alpha: 1, K: cap}, cells: []cellHeap{{abs: abs}}}
		order := cellHeap{abs: abs}
		var model []Entry
		live := map[int32]bool{}
		var retired, ids []int32 // ids: the live ones, in ingest order
		nextID := int32(100)
		newID := func() int32 {
			for {
				var id int32
				switch r := rng.Intn(8); {
				case r < 2: // below every live id
					id = -nextID
					nextID++
				case r == 2 && len(retired) > 0:
					i := rng.Intn(len(retired))
					id = retired[i]
					retired = slices.Delete(retired, i, i+1)
				case r == 3:
					id = math.MaxInt32
				default:
					id = nextID
					nextID++
				}
				if !live[id] {
					live[id] = true
					ids = append(ids, id)
					return id
				}
			}
		}
		for step := 0; step < 40; step++ {
			if len(ids) > 0 && rng.Intn(4) == 0 {
				i := rng.Intn(len(ids))
				victim := ids[i]
				ids = slices.Delete(ids, i, i+1)
				held := slices.ContainsFunc(model, func(e Entry) bool { return e.DocID == victim })
				if got := s.Delete(int(victim), nil); got != map[bool]int{false: 0, true: 1}[held] {
					t.Fatalf("trial %d step %d: Delete(%d) reports %d cells, model holds it: %v", trial, step, victim, got, held)
				}
				model = slices.DeleteFunc(model, func(e Entry) bool { return e.DocID == victim })
				delete(live, victim)
				retired = append(retired, victim)
			} else {
				batch := make([]Entry, 1+rng.Intn(2*cap+2))
				for i := range batch {
					batch[i] = Entry{DocID: newID(), Value: int32(rng.Intn(7) - 3)}
				}
				all := append(slices.Clone(model), batch...)
				all = slices.DeleteFunc(all, func(e Entry) bool { return e.Value == 0 })
				slices.SortFunc(all, func(a, b Entry) int { // ranking highest first
					if rankLess(order.ranked(b), order.ranked(a)) {
						return -1
					}
					return 1
				})
				kept := all[:min(cap, len(all))]
				if len(all) > cap {
					cuts[max(0, min(1, order.key(kept[cap-1])))]++
				}
				if len(model) == cap {
					switch enter := 0; {
					case !slices.ContainsFunc(batch, func(e Entry) bool { return slices.Contains(kept, e) }):
						untouched++
					default:
						for _, e := range batch {
							if slices.Contains(kept, e) {
								enter++
							}
						}
						if enter <= min(cap-1, smallOverflow) {
							beaten++
						}
					}
				}
				model = slices.Clone(kept)
				settleOne(s, slices.Clone(batch))
			}

			want := slices.Clone(model)
			slices.SortFunc(want, func(a, b Entry) int { return cmp.Compare(a.DocID, b.DocID) })
			h := &s.cells[0]
			if got := s.Cell(0, 0); !slices.Equal(got, want) || !strictlyAscending(got) {
				t.Fatalf("trial %d step %d (cap %d): cell holds %v, model %v", trial, step, cap, got, want)
			}
			if len(model) == cap {
				floor := model[cap-1]
				if h.floorKey != order.key(floor) || h.floorDoc != floor.DocID {
					t.Fatalf("trial %d step %d (cap %d): floor (%d, key %d), model's minimum %v", trial, step, cap, h.floorDoc, h.floorKey, floor)
				}
			}
		}
	}
	for class, n := range cuts {
		if n < 100 {
			t.Errorf("the cut fell among the %s keys %d times, want >= 100", []string{"negative", "positive"}[class], n)
		}
	}
	if untouched < 100 || beaten < 100 {
		t.Errorf("a full cell let a whole batch go %d times and was beaten by a few entries %d times, want >= 100 each", untouched, beaten)
	}
}

// TestSearchFromTail checks the gallop-and-bisect lower bound against a
// linear one for every target at every length, gaps and both ends
// included.
func TestSearchFromTail(t *testing.T) {
	for n := 0; n <= 70; n++ {
		es := make([]Entry, n)
		for i := range es {
			es[i].DocID = int32(2*i + 2)
		}
		for id := int32(0); id <= int32(2*n+3); id++ {
			want := 0
			for want < n && es[want].DocID < id {
				want++
			}
			if got := searchFromTail(es, id); got != want {
				t.Fatalf("n=%d id=%d: index %d, want %d", n, id, got, want)
			}
		}
	}
}

// modelSketch is the zero-free Algorithm 4 by definition, one plain
// slice per cell: an update offers the document to every cell it puts a
// non-zero value in, which keeps the cap largest entries under the
// eviction order; a deletion drops the document from every cell. It
// shares no code with cellHeap.
type modelSketch struct {
	p     Params
	cells [][]Entry
}

func newModelSketch(p Params) *modelSketch {
	return &modelSketch{p: p, cells: make([][]Entry, p.Z*p.W)}
}

func (m *modelSketch) less(a, b Entry) bool {
	ka, kb := a.Value, b.Value
	if m.p.SketchKind == sketch.Count {
		ka, kb = max(ka, -ka), max(kb, -kb)
	}
	return ka < kb || ka == kb && a.DocID > b.DocID
}

func (m *modelSketch) add(t *testing.T, docID int, counts map[uint64]int64) {
	fam, err := m.p.Family(42)
	if err != nil {
		t.Fatal(err)
	}
	table := sketch.MustNew(m.p.SketchKind, fam)
	table.AddCounts(counts)
	for c := range m.cells {
		e := Entry{DocID: int32(docID), Value: int32(table.Cell(c/m.p.W, uint32(c%m.p.W)))}
		if e.Value == 0 {
			continue
		}
		if len(m.cells[c]) < m.p.HeapCap() {
			m.cells[c] = append(m.cells[c], e)
			continue
		}
		min := 0
		for i, x := range m.cells[c] {
			if m.less(x, m.cells[c][min]) {
				min = i
			}
		}
		if m.less(m.cells[c][min], e) {
			m.cells[c][min] = e
		}
	}
}

func (m *modelSketch) remove(docID int) {
	for c := range m.cells {
		m.cells[c] = slices.DeleteFunc(m.cells[c], func(e Entry) bool { return e.DocID == int32(docID) })
	}
}

// check compares every cell of s with the model's cell sorted by DocID,
// and holds every cell to ascending ids and to no zero entry.
func (m *modelSketch) check(t *testing.T, s *RTKSketch) {
	t.Helper()
	for c := range m.cells {
		got := s.Cell(c/m.p.W, uint32(c%m.p.W))
		if !strictlyAscending(got) || slices.ContainsFunc(got, func(e Entry) bool { return e.Value == 0 }) {
			t.Fatalf("cell %d holds %v: not ascending, or a zero", c, got)
		}
		want := slices.Clone(m.cells[c])
		slices.SortFunc(want, func(a, b Entry) int { return int(a.DocID) - int(b.DocID) })
		if !slices.Equal(got, want) {
			t.Fatalf("cell %d reads %v, model %v", c, got, want)
		}
	}
}

// cellState is what one cell keeps: its entries and, while it is full,
// its floor.
type cellState struct {
	stored []Entry
	floor  Entry // ranked; zero unless the cell is full
}

// residentState returns what every cell of s keeps — the form a batch
// must leave exactly as the same documents ingested one by one do.
func residentState(s *RTKSketch) []cellState {
	out := make([]cellState, len(s.cells))
	for c := range s.cells {
		h := &s.cells[c]
		out[c] = cellState{stored: append([]Entry(nil), h.entries...)}
		if len(h.entries) == s.params.HeapCap() {
			out[c].floor = Entry{DocID: h.floorDoc, Value: h.floorKey}
		}
	}
	return out
}

// TestDeletePathsMatchModel puts a sketch into each state a removal can
// meet — no cell full, after ingest in id order or a shuffled batch;
// cells past the cap one by one, shuffled, or in one batch; refilled
// below a larger id; one under the cap; a small removed id ingested
// again; math.MaxInt32 with the largest values; a few entries settled
// into full cells from their floors, and many weighed whole; negative
// counts (Count-Min keys below zero) — and removes the newest, the
// oldest, a middle and a nowhere-resident document (no terms, so no
// non-zero value anywhere), with the document's table (only the cells of
// its row are visited, a full cell it orders below skipped) and without
// (every cell is searched), for both sketch kinds. The cells must equal
// the zero-free model's after every removal, and NumDocs the document
// count.
func TestDeletePathsMatchModel(t *testing.T) {
	const ghost = 9000 // no terms: resident nowhere
	somewhere := func(t *testing.T, o *Owner, what string, ok func(h *cellHeap) bool) {
		t.Helper()
		for c := range o.rtk.cells {
			if ok(&o.rtk.cells[c]) {
				return
			}
		}
		t.Fatalf("setup: no cell %s", what)
	}
	full := func(o *Owner) func(h *cellHeap) bool {
		return func(h *cellHeap) bool { return len(h.entries) == o.params.HeapCap() }
	}
	noneFull := func(t *testing.T, o *Owner) {
		t.Helper()
		if got := o.rtk.MaxCellLoad(); got >= o.params.HeapCap() {
			t.Fatalf("setup: a cell holds %d entries under a cap of %d", got, o.params.HeapCap())
		}
	}
	stores := func(h *cellHeap, id int32) bool {
		return slices.ContainsFunc(h.entries, func(e Entry) bool { return e.DocID == id })
	}
	heavy := map[uint64]int64{1: 90, 2: 90, 3: 90} // resident in most cells
	pastCap := func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
		for id := 10; id < 30; id++ {
			addBoth(t, o, m, id, pathCounts(rng))
		}
		somewhere(t, o, "is full", full(o))
	}
	layouts := []struct {
		name  string
		build func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand)
	}{
		{"ascending", func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
			for id := 10; id < 16; id++ { // ascending one by one: every cell appends
				addBoth(t, o, m, id, pathCounts(rng))
			}
			noneFull(t, o)
		}},
		{"shuffled batch", func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
			batch := make([]DocCounts, 6)
			for i, id := range rng.Perm(len(batch)) {
				batch[i] = DocCounts{DocID: 10 + id, Counts: pathCounts(rng)}
				m.add(t, batch[i].DocID, batch[i].Counts)
			}
			if err := o.AddDocuments(batch); err != nil {
				t.Fatal(err)
			}
			noneFull(t, o)
		}},
		{"past the cap one by one", pastCap},
		{"refilled below a larger id", func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
			pastCap(t, o, m, rng)
			addBoth(t, o, m, ghost, nil)
			for id := 25; id < 30; id++ {
				removeBoth(t, o, m, id)
			}
			batch := []DocCounts{{DocID: 26, Counts: pathCounts(rng)}, {DocID: 27, Counts: pathCounts(rng)}}
			for _, d := range batch {
				m.add(t, d.DocID, d.Counts)
			}
			if err := o.AddDocuments(batch); err != nil { // below the ghost
				t.Fatal(err)
			}
		}},
		{"full", func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
			for _, id := range rng.Perm(30) {
				addBoth(t, o, m, 10+id, pathCounts(rng))
			}
			addBoth(t, o, m, ghost, nil)
			somewhere(t, o, "is full", full(o))
		}},
		{"one under", func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
			for _, id := range rng.Perm(30) {
				addBoth(t, o, m, 10+id, pathCounts(rng))
			}
			addBoth(t, o, m, ghost, nil)
			addBoth(t, o, m, 5, heavy)
			removeBoth(t, o, m, 5)
			somewhere(t, o, "is one under the cap", func(h *cellHeap) bool { return len(h.entries) == o.params.HeapCap()-1 })
		}},
		{"small id again", func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
			pastCap(t, o, m, rng)
			removeBoth(t, o, m, 10)
			addBoth(t, o, m, 10, heavy)
			somewhere(t, o, "is full and holds the returning id", func(h *cellHeap) bool { return full(o)(h) && stores(h, 10) })
		}},
		{"largest id", func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
			pastCap(t, o, m, rng)
			addBoth(t, o, m, math.MaxInt32, heavy)
			somewhere(t, o, "is full and holds math.MaxInt32", func(h *cellHeap) bool { return full(o)(h) && stores(h, math.MaxInt32) })
		}},
		{"one batch past the cap", func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
			batch := make([]DocCounts, 30)
			for i, id := range rng.Perm(len(batch)) {
				batch[i] = DocCounts{DocID: 10 + id, Counts: pathCounts(rng)}
				m.add(t, batch[i].DocID, batch[i].Counts)
			}
			if err := o.AddDocuments(batch); err != nil {
				t.Fatal(err)
			}
			somewhere(t, o, "is full", full(o))
		}},
		{"many into full cells", func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
			pastCap(t, o, m, rng)
			batch := make([]DocCounts, 20)
			for i := range batch {
				batch[i] = DocCounts{DocID: 40 + i, Counts: pathCounts(rng)}
				m.add(t, batch[i].DocID, batch[i].Counts)
			}
			if err := o.AddDocuments(batch); err != nil {
				t.Fatal(err)
			}
		}},
		{"negative counts", func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
			for id := 10; id < 30; id++ {
				counts := pathCounts(rng)
				if id%2 == 1 {
					for term := range counts {
						counts[term] = -counts[term]
					}
				}
				addBoth(t, o, m, id, counts)
			}
			somewhere(t, o, "is full with a negative value", func(h *cellHeap) bool {
				return full(o)(h) && slices.ContainsFunc(h.entries, func(e Entry) bool { return e.Value < 0 })
			})
		}},
		{"a few into full cells", func(t *testing.T, o *Owner, m *modelSketch, rng *rand.Rand) {
			pastCap(t, o, m, rng)
			batch := []DocCounts{{DocID: 3, Counts: heavy}, {DocID: 40, Counts: pathCounts(rng)}, {DocID: 41, Counts: heavy}}
			for _, d := range batch {
				m.add(t, d.DocID, d.Counts)
			}
			if err := o.AddDocuments(batch); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, kind := range []sketch.Kind{sketch.Count, sketch.CountMin} {
		for _, layout := range layouts {
			for _, tables := range []bool{true, false} {
				for _, victim := range []string{"newest", "oldest", "middle", "absent"} {
					name := fmt.Sprintf("kind=%v/%s/tables=%v/%s", kind, layout.name, tables, victim)
					t.Run(name, func(t *testing.T) {
						p := testParams()
						p.SketchKind = kind
						p.Z, p.W, p.Z1, p.Alpha, p.K = 5, 4, 3, 2, 4 // cells cap at 8
						var opts []OwnerOption
						if !tables {
							opts = append(opts, WithoutDocTables())
						}
						o, err := NewOwner(p, 42, dp.Disabled(), opts...)
						if err != nil {
							t.Fatal(err)
						}
						m := newModelSketch(p)
						layout.build(t, o, m, rand.New(rand.NewSource(31)))
						m.check(t, o.rtk)
						ids := slices.DeleteFunc(o.DocIDs(), func(id int) bool { return id == ghost })
						id := map[string]int{
							"newest": ids[len(ids)-1], "oldest": ids[0], "middle": ids[len(ids)/2], "absent": ghost,
						}[victim]
						if id != ghost {
							removeBoth(t, o, m, id)
							return
						}
						for c := range o.rtk.cells {
							if stores(&o.rtk.cells[c], ghost) {
								t.Fatalf("setup: the ghost document is resident in cell %d", c)
							}
						}
						if _, ok := o.meta[ghost]; ok {
							removeBoth(t, o, m, ghost)
							return
						}
						// A document the owner does not have is stored nowhere.
						for c := range o.rtk.cells {
							if o.rtk.cells[c].remove(ghost) {
								t.Fatalf("cell %d: removing an absent id dropped an entry", c)
							}
						}
						m.check(t, o.rtk)
					})
				}
			}
		}
	}
}

func pathCounts(rng *rand.Rand) map[uint64]int64 {
	m := make(map[uint64]int64)
	for j := 0; j < 3; j++ {
		m[uint64(rng.Intn(12))] += int64(1 + rng.Intn(4))
	}
	return m
}

func addBoth(t *testing.T, o *Owner, m *modelSketch, id int, counts map[uint64]int64) {
	t.Helper()
	if err := o.AddDocument(id, counts); err != nil {
		t.Fatal(err)
	}
	m.add(t, id, counts)
}

func removeBoth(t *testing.T, o *Owner, m *modelSketch, id int) {
	t.Helper()
	if err := o.RemoveDocument(id); err != nil {
		t.Fatal(err)
	}
	m.remove(id)
	m.check(t, o.rtk)
	if got, want := o.rtk.NumDocs(), len(o.DocIDs()); got != want {
		t.Fatalf("after removing %d: NumDocs %d, roster %d", id, got, want)
	}
}

// churn drives identical random mutations into a set of owners.
type churn struct {
	rng     *rand.Rand
	owners  []*Owner
	live    []int // in ingestion order
	used    map[int]bool
	retired []int                    // removed ids, free to come back
	docs    map[int]map[uint64]int64 // what every live document holds
}

func newChurn(seed int64, owners ...*Owner) *churn {
	return &churn{
		rng: rand.New(rand.NewSource(seed)), owners: owners,
		used: map[int]bool{}, docs: map[int]map[uint64]int64{},
	}
}

func (c *churn) counts() map[uint64]int64 {
	m := make(map[uint64]int64)
	for j := 0; j < 6; j++ {
		m[uint64(c.rng.Intn(24))] += int64(1 + c.rng.Intn(9))
	}
	return m
}

// freshID mixes ids above every earlier one (a cell's append, also when
// it refills one a removal opened up) with ids
// that land out of order and ids that were removed and come back — below
// the largest id ever seen, yet possibly above every live one.
func (c *churn) freshID() int {
	if n := len(c.retired); n > 0 && c.rng.Intn(4) == 0 {
		i := c.rng.Intn(n)
		id := c.retired[i]
		c.retired = slices.Delete(c.retired, i, i+1)
		c.live = append(c.live, id)
		return id
	}
	id := 4000 + len(c.used)
	for c.rng.Intn(2) == 0 || c.used[id] {
		id = c.rng.Intn(4000)
	}
	c.used[id] = true
	c.live = append(c.live, id)
	return id
}

// mutate applies one random AddDocument / AddDocuments / RemoveDocument
// to every owner. Removals take the newest document (LIFO), the oldest
// (FIFO), the largest id or a random one.
func (c *churn) mutate(t *testing.T) {
	t.Helper()
	switch op := c.rng.Intn(10); {
	case op < 5:
		id, counts := c.freshID(), c.counts()
		c.docs[id] = counts
		for _, o := range c.owners {
			if err := o.AddDocument(id, counts); err != nil {
				t.Fatal(err)
			}
		}
	case op < 7:
		batch := make([]DocCounts, 1+c.rng.Intn(12))
		for i := range batch {
			batch[i] = DocCounts{DocID: c.freshID(), Counts: c.counts()}
			c.docs[batch[i].DocID] = batch[i].Counts
		}
		for _, o := range c.owners {
			if err := o.AddDocuments(batch); err != nil {
				t.Fatal(err)
			}
		}
	case len(c.live) > 0:
		i := c.rng.Intn(len(c.live))
		switch c.rng.Intn(4) {
		case 0:
			i = len(c.live) - 1
		case 1:
			i = 0
		case 2:
			i = slices.Index(c.live, slices.Max(c.live))
		}
		id := c.live[i]
		c.live = slices.Delete(c.live, i, i+1)
		c.retired = append(c.retired, id)
		delete(c.docs, id)
		for _, o := range c.owners {
			if err := o.RemoveDocument(id); err != nil {
				t.Fatal(err)
			}
			if got := o.rtk.NumDocs(); got != len(c.live) {
				t.Fatalf("after removing %d: NumDocs %d, %d documents live", id, got, len(c.live))
			}
		}
	}
}

func snapshot(t *testing.T, o *Owner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRTKMatchesOracle: over random interleavings of ingestion (one by
// one, in batches, of ids that come back after removal), removal
// (LIFO, FIFO, the largest id, random), a snapshot reload and queries,
// the resident-order owner plus merge-based recovery must equal the
// copy-and-sort owner plus map-based recovery exactly — ids, count bits,
// cost and raw responses — in every estimator, sketch kind, cap regime
// and noise setting.
func TestRTKMatchesOracle(t *testing.T) {
	for _, kind := range []sketch.Kind{sketch.Count, sketch.CountMin} {
		for _, est := range []EstimatorMode{EstimatorZeroFill, EstimatorPresentRows} {
			for _, capped := range []bool{true, false} {
				for _, eps := range []float64{0, 0.5} {
					name := fmt.Sprintf("kind=%v/est=%d/capped=%v/eps=%v", kind, est, capped, eps)
					t.Run(name, func(t *testing.T) {
						p := DefaultParams()
						p.SketchKind, p.Estimator, p.Epsilon = kind, est, eps
						p.Z, p.W, p.Z1, p.Beta = 9, 6, 5, 0.3
						p.Alpha, p.K = 2, 4 // cells cap at 8 of up to ~100 live docs
						if !capped {
							p.K = 400
						}
						oracleRun(t, p)
					})
				}
			}
		}
	}
}

func oracleRun(t *testing.T, p Params) {
	newOwner := func() *Owner {
		mech, err := dp.ForEpsilon(p.Epsilon, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewOwner(p, 42, mech)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	got, want := newOwner(), newOwner()
	q, err := NewQuerier(p, 42, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	c := newChurn(5, got, want)
	queries := 0
	for step := 0; step < 400; step++ {
		if step == 200 {
			// The second half runs on a reloaded owner: every cell arrives
			// from its view, full ones with a scanned floor, and removals,
			// refills and reads carry on from there. It keeps the mechanism,
			// so the noise draws stay in step with the reference's.
			loaded, err := ReadOwner(bytes.NewReader(snapshot(t, got)), got.mech)
			if err != nil {
				t.Fatal(err)
			}
			got, c.owners[0] = loaded, loaded
		}
		if c.rng.Intn(3) > 0 {
			c.mutate(t)
			continue
		}
		queries++
		plan := q.Plan(uint64(c.rng.Intn(24)))
		// Raw answers first: one noise draw on each side.
		gotResp, err := got.AnswerRTK(plan.Query())
		if err != nil {
			t.Fatal(err)
		}
		wantResp, err := refOwner{want}.AnswerRTK(plan.Query())
		if err != nil {
			t.Fatal(err)
		}
		checkAscending(t, gotResp)
		if !reflect.DeepEqual(gotResp, wantResp) {
			t.Fatalf("step %d: responses differ:\n got %+v\nwant %+v", step, gotResp, wantResp)
		}
		for a := 0; a < p.Z; a++ {
			if col := plan.Query().Cols[a]; !slices.Equal(got.rtk.Cell(a, col), refCell(want.rtk, a, col)) {
				t.Fatalf("step %d: Cell(%d,%d) differs", step, a, col)
			}
		}
		// Then recovery: the second draw on each side.
		gotDocs, gotCost, err := RTKWithPlan(plan, got, p.K)
		if err != nil {
			t.Fatal(err)
		}
		wantDocs, wantCost, err := refRTKWithPlan(plan, refOwner{want}, p.K)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameDocCounts(gotDocs, wantDocs); err != nil {
			t.Fatalf("step %d term %d: %v", step, plan.Term(), err)
		}
		if gotCost != wantCost {
			t.Fatalf("step %d: cost %+v, want %+v", step, gotCost, wantCost)
		}
	}
	if queries < 50 || len(c.live) < 20 {
		t.Fatalf("degenerate run: %d queries, %d live docs", queries, len(c.live))
	}
	// want's cells were never sorted in place until this snapshot.
	if !bytes.Equal(snapshot(t, got), snapshot(t, want)) {
		t.Fatal("snapshots differ between the queried owner and the reference owner")
	}
}

// TestSnapshotIndependentOfQueries: an owner read (AnswerRTK, Cell) after
// every single mutation persists byte-identically to one never read, and
// reloads to an owner that keeps evolving identically.
func TestSnapshotIndependentOfQueries(t *testing.T) {
	for _, kind := range []sketch.Kind{sketch.Count, sketch.CountMin} {
		p := testParams()
		p.SketchKind = kind
		p.W, p.Alpha, p.K = 6, 2, 4
		read, unread := newOwnerT(t, p), newOwnerT(t, p)
		q, err := NewQuerier(p, 42, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		c := newChurn(8, read, unread)
		for step := 0; step < 250; step++ {
			c.mutate(t)
			for i := 0; i < 2; i++ {
				resp, err := read.AnswerRTK(q.Plan(uint64(c.rng.Intn(24))).Query())
				if err != nil {
					t.Fatal(err)
				}
				checkAscending(t, resp)
			}
			read.rtk.Cell(c.rng.Intn(p.Z), uint32(c.rng.Intn(p.W)))
		}
		snap := snapshot(t, read)
		if !bytes.Equal(snap, snapshot(t, unread)) {
			t.Fatalf("kind=%v: snapshot depends on query history", kind)
		}
		loaded, err := ReadOwner(bytes.NewReader(snap), dp.Disabled())
		if err != nil {
			t.Fatal(err)
		}
		c.owners = append(c.owners, loaded)
		for step := 0; step < 60; step++ {
			c.mutate(t)
		}
		if !bytes.Equal(snapshot(t, loaded), snapshot(t, unread)) {
			t.Fatalf("kind=%v: reloaded owner diverged after further churn", kind)
		}
	}
}

// TestNumDocsTracksRoster: the sketch's document counter follows the
// roster through every mutation — also through the removal of a document
// no cell holds any more, which with the floor skip is the common case —
// and what a snapshot persists of it is a function of the documents, not
// of the churn that led to them.
func TestNumDocsTracksRoster(t *testing.T) {
	p := testParams()
	p.W, p.Alpha, p.K = 6, 2, 4 // cells cap at 8

	// A document without terms and with the largest id loses every tie:
	// once the cells are full it is resident nowhere.
	o := newOwnerT(t, p)
	c := newChurn(3, o)
	for len(c.live) < 20 {
		c.mutate(t)
	}
	before := o.rtk.NumDocs()
	if err := o.AddDocument(9999, nil); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveDocument(9999); err != nil {
		t.Fatal(err)
	}
	if got := o.rtk.NumDocs(); got != before || got != len(o.DocIDs()) {
		t.Fatalf("NumDocs %d after adding and removing a resident-nowhere document, want %d (roster %d)", got, before, len(o.DocIDs()))
	}

	for _, capped := range []bool{true, false} {
		if !capped {
			p.K = 400
		}
		o := newOwnerT(t, p)
		c := newChurn(4, o)
		for step := 0; step < 300; step++ {
			c.mutate(t)
			if got, want := o.rtk.NumDocs(), len(o.DocIDs()); got != want || want != len(c.live) {
				t.Fatalf("capped=%v step %d: NumDocs %d, roster %d, %d documents live", capped, step, got, want, len(c.live))
			}
		}
		snap := snapshot(t, o)
		loaded, err := ReadOwner(bytes.NewReader(snap), dp.Disabled())
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.rtk.NumDocs(); got != len(c.live) {
			t.Fatalf("capped=%v: reloaded NumDocs %d, %d documents live", capped, got, len(c.live))
		}
		if capped {
			continue // eviction is lossy: a removal does not bring back what the cap dropped
		}
		fresh := newOwnerT(t, p)
		for id, counts := range c.docs {
			if err := fresh.AddDocument(id, counts); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(snap, snapshot(t, fresh)) {
			t.Fatal("snapshot after churn differs from a fresh owner's over the same documents")
		}
	}
}

func newOwnerT(t testing.TB, p Params) *Owner {
	t.Helper()
	o, err := NewOwner(p, 42, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// mergeRow is one row of a merge case: per partition, its entries in
// ascending DocID order, ids disjoint across partitions.
type mergeRow [][]Entry

// randomMergeRow deals sum(sizes) distinct ids out to the partitions and
// draws every value from value.
func randomMergeRow(rng *rand.Rand, sizes []int, value func() int64) mergeRow {
	n := 0
	for _, sz := range sizes {
		n += sz
	}
	ids := rng.Perm(2 * n)[:n]
	row := make(mergeRow, len(sizes))
	for pi, sz := range sizes {
		part := ids[:sz]
		ids = ids[sz:]
		sort.Ints(part)
		for _, id := range part {
			row[pi] = append(row[pi], Entry{DocID: int32(id), Value: int32(value())})
		}
	}
	return row
}

// checkMerge runs MergeRTKResponses over rows (all with the same number
// of partitions), releasing with a mechanism whose every draw is draw,
// and compares every row with refMergeCell: same ids, same value bits
// (the count plus draw), strictly ascending, exactly min(n, heapCap)
// entries.
func checkMerge(t testing.TB, rows []mergeRow, heapCap int, abs bool, draw float64) {
	t.Helper()
	parts := make([]*RTKResponse, len(rows[0]))
	for pi := range parts {
		parts[pi] = &RTKResponse{Cells: make([]RTKCell, len(rows))}
		for a, row := range rows {
			cell := &parts[pi].Cells[a]
			for _, e := range row[pi] {
				cell.IDs = append(cell.IDs, e.DocID)
				cell.Values = append(cell.Values, float64(e.Value))
			}
		}
	}
	got := MergeRTKResponses(parts, heapCap, abs, fixedNoise(draw))
	if len(got.Cells) != len(rows) {
		t.Fatalf("%d rows, want %d", len(got.Cells), len(rows))
	}
	// The length the merge carries is the length a walk measures; it may
	// only go unrecorded for a count outside the sizer's window.
	if walked, _ := (&RTKResponse{Cells: got.Cells}).PayloadLen(); got.payloadLen != walked {
		inWindow := true
		for _, cell := range got.Cells {
			for _, v := range cell.Values {
				inWindow = inWindow && math.Abs(v-draw) < rtkCountWindow/2
			}
		}
		if got.payloadLen != 0 || inWindow {
			t.Fatalf("merged reply carries length %d, a walk measures %d", got.payloadLen, walked)
		}
	}
	for a, row := range rows {
		n := 0
		for _, part := range row {
			n += len(part)
		}
		want := refMergeCell(row, heapCap, abs)
		cell := got.Cells[a]
		if len(cell.IDs) != min(n, heapCap) || len(cell.IDs) != len(want) || len(cell.Values) != len(want) {
			t.Fatalf("row %d: %d ids and %d values from %d candidates under cap %d, oracle %d",
				a, len(cell.IDs), len(cell.Values), n, heapCap, len(want))
		}
		for i, e := range want {
			if i > 0 && cell.IDs[i] <= cell.IDs[i-1] {
				t.Fatalf("row %d not strictly ascending at %d: %v", a, i, cell.IDs)
			}
			if cell.IDs[i] != e.DocID || math.Float64bits(cell.Values[i]) != math.Float64bits(float64(e.Value)+draw) {
				t.Fatalf("row %d entry %d: (%d,%v), want (%d,%v)", a, i,
					cell.IDs[i], cell.Values[i], e.DocID, float64(e.Value)+draw)
			}
		}
	}
}

// TestMergeRTKResponsesMatchesOracle: merging per-partition answers must
// equal the concatenate-and-sort reference on both sides of the cap —
// over small random shapes, and at the shape the sharded benchmark
// produces: cap 250, four partitions of 62-67 entries overflowing it by
// 1-16, most values 0, so hundreds of entries tie on the key and only the
// DocID tie-break decides the cut.
func TestMergeRTKResponsesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	small := func() int64 { return int64(rng.Intn(9) - 4) } // collisions on the key are common
	for trial := 0; trial < 300; trial++ {
		z, nparts := 1+rng.Intn(4), 1+rng.Intn(5)
		rows := make([]mergeRow, z)
		for a := range rows {
			sizes := make([]int, nparts)
			for pi := range sizes {
				sizes[pi] = rng.Intn(8)
			}
			rows[a] = randomMergeRow(rng, sizes, small)
		}
		checkMerge(t, rows, 1+rng.Intn(12), rng.Intn(2) == 0, float64(rng.Intn(3))*0.37)
	}

	sparse := func() int64 { // >= 55 % zeros, the rest small and of either sign
		if rng.Intn(100) < 60 {
			return 0
		}
		return int64(rng.Intn(7) - 3)
	}
	for over := 1; over <= 16; over++ {
		sizes := make([]int, 4)
		for i := 0; i < 250+over; i++ {
			sizes[i%4]++
		}
		rows := make([]mergeRow, 6)
		for a := range rows {
			rows[a] = randomMergeRow(rng, sizes, sparse)
		}
		for _, abs := range []bool{true, false} {
			checkMerge(t, rows, 250, abs, 0)
			checkMerge(t, rows, 250, abs, -1.625)
		}
	}

	edges := map[string]struct {
		sizes   []int
		heapCap int
		value   func() int64
	}{
		"all keys equal":           {[]int{40, 40, 40}, 100, func() int64 { return 3 }},
		"all keys equal under abs": {[]int{40, 40, 40}, 100, func() int64 { return int64(3 - 6*rng.Intn(2)) }},
		"one over the cap":         {[]int{30, 30, 41}, 100, small},
		"one part empty":           {[]int{70, 0, 70}, 100, small},
		"one part alone overflows": {[]int{130, 5}, 100, small},
		"single part":              {[]int{130}, 100, small},
		"negative values":          {[]int{60, 60, 60}, 100, func() int64 { return -int64(rng.Intn(5)) }},
		"cap of one":               {[]int{3, 3}, 1, small},
	}
	for name, e := range edges {
		rows := []mergeRow{randomMergeRow(rng, e.sizes, e.value), randomMergeRow(rng, e.sizes, e.value)}
		for _, abs := range []bool{true, false} {
			for _, noise := range []float64{0, 0.37} {
				t.Run(fmt.Sprintf("%s/abs=%v/noise=%v", name, abs, noise), func(t *testing.T) {
					checkMerge(t, rows, e.heapCap, abs, noise)
				})
			}
		}
	}

	// The tail scan that names a small overflow's drops, on either side of
	// smallOverflow: rows whose zeros run out before the overflow does, so
	// non-zeros go; ids dealt to parts one at a time, so the descending
	// walk changes part at every entry; more than 8 parts; zeros at both
	// ends of the id range; and Count-Min keys below 0, down to the
	// smallest a value can have, where the scan may stop early.
	rng = rand.New(rand.NewSource(23)) // the edges above draw in map order
	const tailCap = 60
	nonzero := func() int64 { return int64(1+rng.Intn(4)) * int64(1-2*rng.Intn(2)) }
	tailCases := []struct {
		name  string
		build func(n int) mergeRow
	}{
		{"fewer zeros than the overflow", func(n int) mergeRow {
			row := randomMergeRow(rng, []int{n / 4, n / 4, n / 4, n - 3*(n/4)}, nonzero)
			for z := (n - tailCap) / 2; z > 0; z-- {
				part := row[rng.Intn(len(row))]
				part[rng.Intn(len(part))].Value = 0
			}
			return row
		}},
		{"dealt one at a time", func(n int) mergeRow {
			row := make(mergeRow, 5)
			for id := 0; id < n; id++ {
				row[id%5] = append(row[id%5], Entry{DocID: int32(3 * id), Value: int32(sparse())})
			}
			return row
		}},
		{"eleven parts", func(n int) mergeRow {
			sizes := make([]int, 11)
			for i := 0; i < n; i++ {
				sizes[rng.Intn(11)]++
			}
			return randomMergeRow(rng, sizes, sparse)
		}},
		{"zeros at the extreme ids", func(n int) mergeRow {
			row := randomMergeRow(rng, []int{n / 3, n / 3, n - 2*(n/3)}, nonzero)
			row[0][0] = Entry{DocID: math.MinInt32}
			row[2][len(row[2])-1] = Entry{DocID: math.MaxInt32}
			return row
		}},
		{"keys below zero", func(n int) mergeRow {
			return randomMergeRow(rng, []int{n / 2, n - n/2}, func() int64 {
				if rng.Intn(12) == 0 {
					return -math.MaxInt32
				}
				return int64(rng.Intn(7) - 3)
			})
		}},
	}
	for _, c := range tailCases {
		for _, over := range []int{1, 16, 17} {
			rows := []mergeRow{c.build(tailCap + over), c.build(tailCap + over), c.build(tailCap + over)}
			for _, abs := range []bool{true, false} {
				for _, noise := range []float64{0, 0.37} {
					t.Run(fmt.Sprintf("%s/over=%d/abs=%v/noise=%v", c.name, over, abs, noise), func(t *testing.T) {
						checkMerge(t, rows, tailCap, abs, noise)
					})
				}
			}
		}
	}
}

// benchMergeParts builds z = 30 rows over documents 0..docs-1, dealt to
// four partitions in blocks of ids the way shard.Group stripes them, with
// every value drawn from value.
func benchMergeParts(docs, block int, value func(*rand.Rand) int) []*RTKResponse {
	rng := rand.New(rand.NewSource(41))
	parts := make([]*RTKResponse, 4)
	for pi := range parts {
		parts[pi] = &RTKResponse{Cells: make([]RTKCell, 30)}
	}
	for a := 0; a < 30; a++ {
		for id := 0; id < docs; id++ {
			cell := &parts[id/block%4].Cells[a]
			cell.IDs = append(cell.IDs, int32(id))
			cell.Values = append(cell.Values, float64(value(rng)))
		}
	}
	return parts
}

// sparseValue is the sharded benchmark's value mix: most cell values 0,
// the rest small and of either sign, as a Count Sketch cell holds them.
func sparseValue(rng *rand.Rand) int {
	if rng.Intn(100) >= 60 {
		return rng.Intn(7) - 3
	}
	return 0
}

// The regimes of the facade merge at the benchmark geometry (z = 30, cap
// 250, 4 partitions): everything fits; the ingest_churn shape, 4 x 64 + 1
// candidates for 250 places — also with no zeros, so the tail scan never
// stops early, and under Count-Min, whose counts are never negative but
// whose smallest key is, so the scan runs to the end; and every partition
// full.
var benchMergeShapes = []struct {
	name        string
	docs, block int
	value       func(*rand.Rand) int
	abs         bool
}{
	{"fits", 248, 64, sparseValue, true},
	{"over_by_7", 257, 64, sparseValue, true},
	{"over_by_7/dense", 257, 64, func(rng *rand.Rand) int { return (1 + rng.Intn(3)) * (1 - 2*rng.Intn(2)) }, true},
	{"over_by_7/count_min", 257, 64, func(rng *rand.Rand) int { return max(sparseValue(rng), 0) }, false},
	{"over_4x", 1000, 125, sparseValue, true},
}

func BenchmarkMergeRTKResponses(b *testing.B) {
	for _, shape := range benchMergeShapes {
		b.Run(shape.name, func(b *testing.B) {
			parts := benchMergeParts(shape.docs, shape.block, shape.value)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp := MergeRTKResponses(parts, 250, shape.abs, fixedNoise(0.5))
				if len(resp.Cells) != 30 {
					b.Fatal("short response")
				}
				resp.Release() // as recovery does with a group's answer
			}
		})
	}
}

// stubOwner answers every RTK query with a copy of a fixed response,
// standing in for a remote party whose answer crossed a transport: like
// a decoder it builds each answer through NewRTKResponse, so the caller
// owns what it gets and recovery's Release ends that copy, not resp.
type stubOwner struct {
	OwnerAPI
	resp *RTKResponse
}

func (s stubOwner) AnswerRTK(*TFQuery) (*RTKResponse, error) {
	nIDs, nVals := 0, 0
	for _, c := range s.resp.Cells {
		nIDs, nVals = nIDs+len(c.IDs), nVals+len(c.Values)
	}
	out, ids, vals := NewRTKResponse(len(s.resp.Cells), max(nIDs, nVals))
	out.payloadLen = s.resp.payloadLen
	for i, c := range s.resp.Cells { // a malformed cell keeps its shape
		n, m := copy(ids, c.IDs), copy(vals, c.Values)
		out.Cells[i] = RTKCell{IDs: ids[:n:n], Values: vals[:m:m]}
		ids, vals = ids[n:], vals[m:]
	}
	return out, nil
}

// TestRTKWithPlanRejectsMalformedResponse: a response whose cells carry
// fewer values than ids, or ids out of canonical order, is a protocol
// error — not an index-out-of-range panic in the coordinator.
func TestRTKWithPlanRejectsMalformedResponse(t *testing.T) {
	p := testParams()
	p.K = 20 // cells hold alpha*K = 100 entries
	q, o := newPair(t, p, nil)
	for id := 0; id < 100; id++ {
		if err := o.AddDocument(id, map[uint64]int64{7: int64(1 + id%5)}); err != nil {
			t.Fatal(err)
		}
	}
	plan := q.Plan(7)
	row := plan.priv.PV[0]
	mutations := map[string]func(c *RTKCell){
		"short values": func(c *RTKCell) { c.Values = c.Values[:len(c.Values)-1] },
		"long values":  func(c *RTKCell) { c.Values = append(c.Values, 1) },
		"descending":   func(c *RTKCell) { c.IDs[0], c.IDs[1] = c.IDs[1], c.IDs[0] },
		"duplicate id": func(c *RTKCell) { c.IDs[1] = c.IDs[0] },
	}
	for name, mutate := range mutations {
		resp, err := o.AnswerRTK(plan.Query())
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Cells[row].IDs) != 100 {
			t.Fatalf("setup: private row holds %d ids, want 100", len(resp.Cells[row].IDs))
		}
		mutate(&resp.Cells[row])
		docs, _, err := RTKWithPlan(plan, stubOwner{resp: resp}, p.K)
		if !errors.Is(err, ErrBadQuery) || docs != nil {
			t.Fatalf("%s: got (%v, %v), want ErrBadQuery", name, docs, err)
		}
	}
	resp, err := o.AnswerRTK(plan.Query())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RTKWithPlan(plan, stubOwner{resp: resp}, p.K); err != nil {
		t.Fatalf("well-formed response rejected: %v", err)
	}
}

// randomReply builds a well-formed reply of z rows over documents
// 0..universe-1: each row lists a document with probability density and
// draws its value from value.
func randomReply(rng *rand.Rand, z, universe int, density float64, value func() float64) *RTKResponse {
	ids := make([]int32, universe)
	for id := range ids {
		ids[id] = int32(id)
	}
	return replyOver(rng, z, ids, density, value)
}

// replyOver is randomReply over the ascending documents ids.
func replyOver(rng *rand.Rand, z int, ids []int32, density float64, value func() float64) *RTKResponse {
	resp := &RTKResponse{Cells: make([]RTKCell, z)}
	for a := range resp.Cells {
		for _, id := range ids {
			if rng.Float64() < density {
				resp.Cells[a].IDs = append(resp.Cells[a].IDs, id)
				resp.Cells[a].Values = append(resp.Cells[a].Values, value())
			}
		}
	}
	return resp
}

// TestRTKRecoveryMatchesReference: recovery that keeps the best k as it
// goes and skips a candidate whose median provably cannot enter must
// return what estimating every candidate and sorting them all returns —
// same documents, same order, same count bits — on the inputs built to
// sit on its edges: values from a handful of integers, so estimates tie
// at the floor constantly; k from 1 to beyond the candidates; floors that
// are zero or negative; odd and even numbers of private rows, in both
// estimator modes (the present-rows one varies the count per candidate);
// soft-intersection thresholds of one row and of several; Count-Min; and
// replies salted with NaN, infinities and magnitudes whose pairwise mean
// overflows, which is where a shortcut around a sort goes wrong first.
// Recovery scatters the rows one window of 64 ids at a time, so the
// trials after the first 400 spread the documents over many windows:
// universes of up to 400 ids, ids farther apart than a window, runs
// across window edges, negative ids and the int32 extremes, up to 40
// private rows — and 300, more than a narrow per-document row count
// could hold — each reply recovered by every estimator and sketch kind.
func TestRTKRecoveryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64 / 2}
	values := map[string]func() float64{
		"ties":     func() float64 { return float64(rng.Intn(5) - 2) },
		"negative": func() float64 { return float64(-1 - rng.Intn(3)) },
		"zero":     func() float64 { return 0 },
		"noisy":    func() float64 { return float64(rng.Intn(7)-3) + 0.37 },
		"hostile": func() float64 {
			if rng.Intn(4) == 0 {
				return hostile[rng.Intn(len(hostile))]
			}
			return float64(rng.Intn(5) - 2)
		},
		"huge": func() float64 { return math.MaxFloat64 * float64(rng.Intn(5)-2) / 2 },
	}
	for trial := 0; trial < 400; trial++ {
		p := DefaultParams()
		p.Z = 1 + rng.Intn(12)
		p.Z1 = 1 + rng.Intn(p.Z)
		p.W = 16
		p.Epsilon = 0
		p.Beta = []float64{0.05, 0.3, 0.6, 1}[rng.Intn(4)]
		p.Estimator = []EstimatorMode{EstimatorZeroFill, EstimatorPresentRows}[rng.Intn(2)]
		p.SketchKind = []sketch.Kind{sketch.Count, sketch.Count, sketch.CountMin}[rng.Intn(3)]
		q, err := NewQuerier(p, uint64(trial), rng)
		if err != nil {
			t.Fatal(err)
		}
		plan := q.Plan(uint64(rng.Intn(1000)))
		universe := 1 + rng.Intn(40)
		for name, value := range values {
			owner := stubOwner{resp: randomReply(rng, p.Z, universe, []float64{0.2, 0.7, 1}[rng.Intn(3)], value)}
			checkRecovery(t, fmt.Sprintf("trial %d, %s values", trial, name), plan, owner, universe)
		}
	}

	shapes := []struct {
		name string
		ids  func() []int32
	}{
		{"dense", func() []int32 { // 65 to 400 consecutive ids from anywhere in [-500, 500)
			ids, base := make([]int32, 65+rng.Intn(336)), int32(rng.Intn(1000)-500)
			for i := range ids {
				ids[i] = base + int32(i)
			}
			return ids
		}},
		{"sparse", func() []int32 { // every gap wider than a window
			var ids []int32
			for id, n := int32(-rng.Intn(5000)), 5+rng.Intn(40); len(ids) < n; id += int32(window + 1 + rng.Intn(300)) {
				ids = append(ids, id)
			}
			return ids
		}},
		{"edges", func() []int32 { // a run across every window edge, windows starting at the first id
			first := int32(rng.Intn(200) - 100)
			ids := []int32{first}
			for j, n := int32(1), int32(2+rng.Intn(6)); j <= n; j++ {
				r := int32(1 + rng.Intn(4))
				for id := first + window*j - r; id < first+window*j+r; id++ {
					ids = append(ids, id)
				}
			}
			return ids
		}},
		{"extremes", func() []int32 {
			return []int32{math.MinInt32, math.MinInt32 + 1, math.MinInt32 + 63, math.MinInt32 + 64,
				-65, -64, -1, 0, 1, 63, 64, math.MaxInt32 - 64, math.MaxInt32 - 63, math.MaxInt32 - 1, math.MaxInt32}
		}},
	}
	// plansFor returns p's plan for term in both estimators and both
	// sketch kinds.
	plansFor := func(p Params, term uint64) []*Plan {
		var out []*Plan
		for _, mode := range []EstimatorMode{EstimatorZeroFill, EstimatorPresentRows} {
			for _, kind := range []sketch.Kind{sketch.Count, sketch.CountMin} {
				p.Estimator, p.SketchKind = mode, kind
				q, err := NewQuerier(p, term, rng)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, q.Plan(term))
			}
		}
		return out
	}
	for trial := 0; trial < 40; trial++ {
		shape := shapes[trial%len(shapes)]
		ids := shape.ids()
		p := DefaultParams()
		p.Z = 1 + rng.Intn(40)
		p.Z1 = 1 + rng.Intn(p.Z)
		p.W = 16
		p.Epsilon = 0
		p.Beta = []float64{0.05, 0.3, 0.6, 1}[rng.Intn(4)]
		plans := plansFor(p, uint64(rng.Intn(1000)))
		for name, value := range values {
			owner := stubOwner{resp: replyOver(rng, p.Z, ids, []float64{0.2, 0.7, 1}[rng.Intn(3)], value)}
			for _, plan := range plans {
				checkRecovery(t, fmt.Sprintf("%s trial %d, %s values", shape.name, trial, name), plan, owner, len(ids))
			}
		}
	}

	// 300 private rows over two windows, nearly every row holding every
	// document: a row count that wraps at 256 drops candidates at the
	// soft intersection or at the count bound.
	p := DefaultParams()
	p.Z, p.Z1, p.W, p.Epsilon = 300, 300, 16, 0
	ids := make([]int32, 100)
	for i := range ids {
		ids[i] = int32(i - 30)
	}
	positive := func() float64 { return float64(rng.Intn(5)) }
	for _, beta := range []float64{0.05, 0.6} {
		p.Beta = beta
		for _, density := range []float64{0.9, 1} {
			owner := stubOwner{resp: replyOver(rng, p.Z, ids, density, positive)}
			for _, plan := range plansFor(p, 77) {
				checkRecovery(t, fmt.Sprintf("z1=300, density %v", density), plan, owner, len(ids))
			}
		}
	}
}

// checkRecovery holds RTKWithPlan to the reference on owner's reply for
// k from 1 to beyond the n documents it offers.
func checkRecovery(t *testing.T, desc string, plan *Plan, owner OwnerAPI, n int) {
	t.Helper()
	p := plan.params
	for _, k := range []int{1, 2, 3, 1 + n/2, n, n + 5} {
		got, _, err := RTKWithPlan(plan, owner, k)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := refRTKWithPlan(plan, owner, k)
		if err := sameDocCounts(got, want); err != nil {
			t.Fatalf("%s (z1=%d of %d, beta=%v, estimator=%d, kind=%v, k=%d of %d): %v\n got %v\nwant %v",
				desc, p.Z1, p.Z, p.Beta, p.Estimator, p.SketchKind, k, n, err, got, want)
		}
	}
}

// benchGeometry is the benchmark's protocol geometry (z = 30, w = 200,
// alpha*K = 250) over 1200 Zipf documents: every cell is full.
func benchGeometry(t testing.TB, eps float64) (*Querier, *Owner) {
	p := DefaultParams()
	p.K = 50
	p.Epsilon = eps
	mech, err := dp.ForEpsilon(eps, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuerier(p, 42, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	o, _ := buildZipfOwner(t, p, mech, 1200, 77)
	return q, o
}

// TestRTKAllocCeilings pins the warm per-query allocation budget at the
// benchmark geometry, so a regression shows up in tier-1 rather than
// only on the scorecard's allocs_per_op.
func TestRTKAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; ceilings hold without -race")
	}
	q, o := benchGeometry(t, 0.5)
	plans := make([]*Plan, 64)
	for i := range plans {
		plans[i] = q.Plan(uint64(1000 + i))
		if _, _, err := RTKWithPlan(plans[i], o, 50); err != nil { // warm: scratch pooled
			t.Fatal(err)
		}
	}
	i := 0
	answer := testing.AllocsPerRun(200, func() {
		i++
		if _, err := o.AnswerRTK(plans[i%len(plans)].Query()); err != nil {
			t.Fatal(err)
		}
	})
	if answer > 4 {
		t.Errorf("Owner.AnswerRTK, reply kept: %.1f allocs per call, ceiling 4", answer)
	}
	// A released reply leaves one allocation to the next: its header.
	leased := testing.AllocsPerRun(200, func() {
		i++
		resp, err := o.AnswerRTK(plans[i%len(plans)].Query())
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	})
	if leased > 1 {
		t.Errorf("Owner.AnswerRTK, reply released: %.1f allocs per call, ceiling 1", leased)
	}
	recovered := testing.AllocsPerRun(200, func() {
		i++
		if _, _, err := RTKWithPlan(plans[i%len(plans)], o, 50); err != nil {
			t.Fatal(err)
		}
	})
	if recovered > 2 {
		t.Errorf("RTKWithPlan (owner call included): %.1f allocs per call, ceiling 2", recovered)
	}

	// The facade merge: the reply is leased and its cursor table and
	// gather scratch pooled, whatever the rows hold.
	for _, shape := range benchMergeShapes {
		parts := benchMergeParts(shape.docs, shape.block, shape.value)
		merge := testing.AllocsPerRun(50, func() { MergeRTKResponses(parts, 250, shape.abs, fixedNoise(0.5)).Release() })
		if merge > 1 {
			t.Errorf("MergeRTKResponses %s, reply released: %.1f allocs per call, ceiling 1", shape.name, merge)
		}
	}

	// Removing a document and putting it back moves entries within the
	// cells' own slabs.
	const victim = 600
	docs, tables := []DocCounts{{DocID: victim}}, []sketch.Compact{o.docTables[victim]}
	sc := new(settleScratch)
	churn := testing.AllocsPerRun(10, func() {
		o.rtk.Delete(victim, &tables[0])
		o.rtk.insert(docs, tables, sc)
	})
	if churn > 0 {
		t.Errorf("RTKSketch.Delete + insert of one document: %.1f allocs, want 0", churn)
	}
}

// TestRTKScratchIndependentOfIDSpan: recovery's working memory is one
// window of 64 slots per private row, however far apart the ids lie. A
// reply whose rows hold the int32 extremes and zero recovers warm within
// TestRTKAllocCeilings' RTKWithPlan ceiling, and leaves 64·z1 values of
// window behind.
func TestRTKScratchIndependentOfIDSpan(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; ceilings hold without -race")
	}
	p := DefaultParams()
	q, err := NewQuerier(p, 42, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	plan := q.Plan(1000)
	resp := &RTKResponse{Cells: make([]RTKCell, p.Z)}
	for a := range resp.Cells {
		resp.Cells[a] = RTKCell{IDs: []int32{math.MinInt32, 0, math.MaxInt32}, Values: []float64{3, float64(a), 5}}
	}
	var owner OwnerAPI = stubOwner{resp: resp}   // boxed once, not per call
	docs, _, err := RTKWithPlan(plan, owner, 50) // warm: scratch pooled
	if err != nil {
		t.Fatal(err)
	}
	if want, _, _ := refRTKWithPlan(plan, owner, 50); sameDocCounts(docs, want) != nil || len(docs) != 3 {
		t.Fatalf("recovered %v, want %v", docs, want)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := RTKWithPlan(plan, owner, 50); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("RTKWithPlan over ids %d..%d: %.1f allocs per call, ceiling 2", math.MinInt32, math.MaxInt32, allocs)
	}
	var sc rtkScratch
	var cost Cost
	if _, err := sc.recover(plan, resp, 50, &cost, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := cap(sc.slots), window*p.Z1; got != want {
		t.Errorf("recovery window holds %d values, want 64·z1 = %d", got, want)
	}
}
