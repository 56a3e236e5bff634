package core

import (
	"bytes"
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
// map-based recovery this package used before cells kept their canonical
// order resident and recovery became a sorted merge. They survive here
// only as the oracle the production code is compared against bit for bit.

// refCell is a copy of cell (row, col) sorted by DocID; it never touches
// the resident layout.
func refCell(s *RTKSketch, row int, col uint32) []Entry {
	h := &s.cells[row*s.params.W+int(col)]
	out := make([]Entry, len(h.entries))
	copy(out, h.entries)
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
	return &RTKResponse{Cells: cells}, nil
}

// refRTKWithPlan recovers candidates through a per-document map of
// (row, value) observations and ranks them with a reflection sort.
func refRTKWithPlan(plan *Plan, owner OwnerAPI, k int) ([]DocCount, Cost, error) {
	query, priv := plan.query, plan.priv
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
		if candidates[i].Count != candidates[j].Count {
			return candidates[i].Count > candidates[j].Count
		}
		return candidates[i].DocID < candidates[j].DocID
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
				return -e.Value
			}
			return e.Value
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

// TestCellHeapMatchesModel drives one cell through random pushes,
// removals and canonical reads and compares it, after every step, with
// the definition: keep the cap largest entries under the eviction order.
// Small caps and a narrow key range make floor ties, floor removals and
// refills of a canonical cell the common case rather than the rare one.
func TestCellHeapMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var sorter docSorter
	for trial := 0; trial < 400; trial++ {
		cap := 1 + rng.Intn(6)
		h := cellHeap{abs: trial%2 == 0}
		var model []Entry
		nextID := int32(100)
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				e := Entry{DocID: nextID, Value: int64(rng.Intn(7) - 3)}
				nextID++
				if rng.Intn(3) == 0 { // out-of-order id, never seen before
					e.DocID = -nextID
				}
				h.push(e, cap)
				if len(model) < cap {
					model = append(model, e)
				} else {
					min := 0
					for i := range model {
						if h.less(model[i], model[min]) {
							min = i
						}
					}
					if h.less(model[min], e) {
						model[min] = e
					}
				}
			case op < 8 && len(model) > 0:
				victim := model[rng.Intn(len(model))]
				if rng.Intn(2) == 0 { // aim at the eviction minimum
					for _, e := range model {
						if h.less(e, victim) {
							victim = e
						}
					}
				}
				id := victim.DocID
				if got := h.remove(id); got != 1 {
					t.Fatalf("trial %d step %d: remove(%d) = %d, want 1", trial, step, id, got)
				}
				model = slices.DeleteFunc(model, func(e Entry) bool { return e.DocID == id })
			default:
				got := h.canonicalize(&sorter)
				if !slices.IsSortedFunc(got, func(a, b Entry) int { return int(a.DocID) - int(b.DocID) }) {
					t.Fatalf("trial %d step %d: canonicalize left %v", trial, step, got)
				}
			}
			got := slices.Clone(h.entries)
			want := slices.Clone(model)
			sorter.sort(got)
			sorter.sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d (cap %d): cell holds %v, model %v", trial, step, cap, got, want)
			}
		}
	}
}

// churn drives identical random mutations into a set of owners.
type churn struct {
	rng    *rand.Rand
	owners []*Owner
	live   []int
	used   map[int]bool
}

func (c *churn) counts() map[uint64]int64 {
	m := make(map[uint64]int64)
	for j := 0; j < 6; j++ {
		m[uint64(c.rng.Intn(24))] += int64(1 + c.rng.Intn(9))
	}
	return m
}

// freshID mixes ids above every earlier one (the append that keeps a
// cell canonical, also when it refills one a removal opened up) with ids
// that land out of order.
func (c *churn) freshID() int {
	id := 4000 + len(c.used)
	for c.rng.Intn(2) == 0 || c.used[id] {
		id = c.rng.Intn(4000)
	}
	c.used[id] = true
	c.live = append(c.live, id)
	return id
}

// mutate applies one random AddDocument / AddDocuments / RemoveDocument
// to every owner.
func (c *churn) mutate(t *testing.T) {
	t.Helper()
	switch op := c.rng.Intn(10); {
	case op < 5:
		id, counts := c.freshID(), c.counts()
		for _, o := range c.owners {
			if err := o.AddDocument(id, counts); err != nil {
				t.Fatal(err)
			}
		}
	case op < 7:
		batch := make([]DocCounts, 1+c.rng.Intn(12))
		for i := range batch {
			batch[i] = DocCounts{DocID: c.freshID(), Counts: c.counts()}
		}
		workers := 1 + c.rng.Intn(3) // unclamped: real multi-accumulator merges
		for _, o := range c.owners {
			if err := o.addDocuments(batch, workers); err != nil {
				t.Fatal(err)
			}
		}
	case len(c.live) > 0:
		i := c.rng.Intn(len(c.live))
		id := c.live[i]
		c.live = append(c.live[:i], c.live[i+1:]...)
		for _, o := range c.owners {
			if err := o.RemoveDocument(id); err != nil {
				t.Fatal(err)
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

// TestRTKMatchesOracle: over random interleavings of ingestion, removal
// and queries, the resident-order owner plus merge-based recovery must
// equal the copy-and-sort owner plus map-based recovery exactly — ids,
// count bits, cost and raw responses — in every estimator, sketch kind,
// cap regime and noise setting.
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
	c := &churn{rng: rand.New(rand.NewSource(5)), owners: []*Owner{got, want}, used: map[int]bool{}}
	queries := 0
	for step := 0; step < 400; step++ {
		if c.rng.Intn(3) > 0 {
			c.mutate(t)
			continue
		}
		queries++
		plan := q.Plan(uint64(c.rng.Intn(24)))
		// Raw answers first: one noise draw on each side.
		gotResp, err := got.AnswerRTK(plan.query)
		if err != nil {
			t.Fatal(err)
		}
		wantResp, err := refOwner{want}.AnswerRTK(plan.query)
		if err != nil {
			t.Fatal(err)
		}
		checkAscending(t, gotResp)
		if !reflect.DeepEqual(gotResp, wantResp) {
			t.Fatalf("step %d: responses differ:\n got %+v\nwant %+v", step, gotResp, wantResp)
		}
		for a := 0; a < p.Z; a++ {
			if col := plan.query.Cols[a]; !slices.Equal(got.rtk.Cell(a, col), refCell(want.rtk, a, col)) {
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
		c := &churn{rng: rand.New(rand.NewSource(8)), owners: []*Owner{read, unread}, used: map[int]bool{}}
		for step := 0; step < 250; step++ {
			c.mutate(t)
			for i := 0; i < 2; i++ {
				resp, err := read.AnswerRTK(q.Plan(uint64(c.rng.Intn(24))).query)
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

func newOwnerT(t testing.TB, p Params) *Owner {
	t.Helper()
	o, err := NewOwner(p, 42, dp.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestMergeRTKResponsesMatchesOracle: merging per-partition answers must
// equal the concatenate-and-sort reference on both sides of the cap.
func TestMergeRTKResponsesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		z, nparts := 1+rng.Intn(4), 1+rng.Intn(5)
		heapCap := 1 + rng.Intn(12)
		abs := rng.Intn(2) == 0
		noise := float64(rng.Intn(3)) * 0.37
		parts := make([]*RTKResponse, nparts)
		entries := make([][][]Entry, nparts) // [part][row]
		for pi := range parts {
			parts[pi] = &RTKResponse{Cells: make([]RTKCell, z)}
			entries[pi] = make([][]Entry, z)
			for a := 0; a < z; a++ {
				var cell RTKCell
				for id := int32(pi); id < 60; id += int32(nparts) { // disjoint, ascending
					if rng.Intn(10) < 2 {
						v := int64(rng.Intn(9) - 4) // collisions on the key are common
						cell.IDs = append(cell.IDs, id)
						cell.Values = append(cell.Values, float64(v))
						entries[pi][a] = append(entries[pi][a], Entry{DocID: id, Value: v})
					}
				}
				parts[pi].Cells[a] = cell
			}
		}
		got := MergeRTKResponses(parts, heapCap, abs, noise)
		checkAscending(t, got)
		for a := 0; a < z; a++ {
			rowParts := make([][]Entry, nparts)
			for pi := range parts {
				rowParts[pi] = entries[pi][a]
			}
			want := refMergeCell(rowParts, heapCap, abs)
			if len(got.Cells[a].IDs) != len(want) {
				t.Fatalf("trial %d row %d: %d entries, want %d", trial, a, len(got.Cells[a].IDs), len(want))
			}
			for i, e := range want {
				if got.Cells[a].IDs[i] != e.DocID || got.Cells[a].Values[i] != float64(e.Value)+noise {
					t.Fatalf("trial %d row %d entry %d: (%d,%v), want (%d,%v)", trial, a, i,
						got.Cells[a].IDs[i], got.Cells[a].Values[i], e.DocID, float64(e.Value)+noise)
				}
			}
		}
	}
}

// stubOwner answers every RTK query with a fixed response, standing in
// for a remote party whose answer crossed a transport.
type stubOwner struct {
	OwnerAPI
	resp *RTKResponse
}

func (s stubOwner) AnswerRTK(*TFQuery) (*RTKResponse, error) { return s.resp, nil }

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
		resp, err := o.AnswerRTK(plan.query)
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
	resp, err := o.AnswerRTK(plan.query)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RTKWithPlan(plan, stubOwner{resp: resp}, p.K); err != nil {
		t.Fatalf("well-formed response rejected: %v", err)
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
		if _, _, err := RTKWithPlan(plans[i], o, 50); err != nil { // warm: cells canonical, scratch pooled
			t.Fatal(err)
		}
	}
	i := 0
	answer := testing.AllocsPerRun(200, func() {
		i++
		if _, err := o.AnswerRTK(plans[i%len(plans)].query); err != nil {
			t.Fatal(err)
		}
	})
	if answer > 4 {
		t.Errorf("Owner.AnswerRTK: %.1f allocs per call, ceiling 4", answer)
	}
	recovered := testing.AllocsPerRun(200, func() {
		i++
		if _, _, err := RTKWithPlan(plans[i%len(plans)], o, 50); err != nil {
			t.Fatal(err)
		}
	})
	if recovered > 12 {
		t.Errorf("RTKWithPlan (owner call included): %.1f allocs per call, ceiling 12", recovered)
	}
}
