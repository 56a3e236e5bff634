package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"csfltr/internal/dp"
	"csfltr/internal/hashutil"
	"csfltr/internal/sketch"
)

// Entry is one element of an RTK-Sketch cell: a document id and the raw
// sketch cell value the document produced at this position. It is 8
// bytes, and the sketch is z*w*alpha*K of them, so both fields are as
// narrow as their range allows: a cell value is a signed sum of one
// document's term counts, and ingest (checkDoc) refuses a document whose
// counts sum past math.MaxInt32 in magnitude — which also keeps -Value
// representable for the |Value| ranking key.
type Entry struct {
	DocID int32
	Value int32
}

// fitsDocID and fitsValue are the range guards every narrowing into an
// Entry sits behind: at ingest (checkDoc) and when a snapshot is read.
func fitsDocID(id int64) bool { return math.MinInt32 <= id && id <= math.MaxInt32 }
func fitsValue(v int64) bool  { return -math.MaxInt32 <= v && v <= math.MaxInt32 }

// cellHeap is one capped RTK-Sketch cell: the at most cap non-zero
// entries with the largest ranking key offered to it. For Count Sketch
// the key is |Value|: a document's cell value is its (sign-weighted)
// contribution plus collision noise, and the querier recovers the sign
// later, so magnitude is what predicts relevance. For Count-Min the key
// is Value itself (positive unless a document's counts are not).
//
// Eviction follows a strict total order — key ascending, ties broken by
// DocID descending — so the set of entries a cell keeps depends only on
// the set of entries offered to it, never on their order. That
// content-addressed determinism is what lets a sharded party merge its
// shards' cells into the single sketch's (MergeRTKResponses), and what
// lets a batch be settled into a cell at once (RTKSketch.settle) with the
// cell a loop of single documents leaves. The entries are kept ascending
// by DocID — the order every observable surface (AnswerRTK, snapshots,
// Cell) emits — so no read sorts and no second copy is kept.
//
// While a cell is full, floorKey/floorDoc cache its eviction minimum: a
// batch entry that does not beat it is let go with one comparison against
// fields already in cache, and a removal skips a full cell its document
// orders below. floorAt is where the floor's entry was when last known, a
// hint checked before use.
type cellHeap struct {
	entries  []Entry
	abs      bool  // order by |Value| (Count Sketch) instead of Value
	floorDoc int32 // DocID of the eviction minimum, valid while full
	floorKey int32 // key of the eviction minimum, valid while full
	floorAt  int32
}

func (h *cellHeap) key(e Entry) int32 {
	if h.abs {
		if e.Value < 0 {
			return -e.Value
		}
	}
	return e.Value
}

// ranked returns e with its value replaced by its ranking key, the form
// rankLess orders.
func (h *cellHeap) ranked(e Entry) Entry { return Entry{DocID: e.DocID, Value: h.key(e)} }

// rankLess is the strict total eviction order over ranked entries: smaller
// key first, ties by larger DocID first — so when keys tie at the cap
// boundary the larger DocID is evicted and the surviving set stays
// order-independent.
func rankLess(a, b Entry) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.DocID > b.DocID
}

// beats reports whether e orders above the cached floor of a full cell,
// which is whether the cell can keep e: ties on the key keep the smaller
// DocID.
func (h *cellHeap) beats(e Entry) bool {
	ke := h.key(e)
	return ke > h.floorKey || ke == h.floorKey && e.DocID < h.floorDoc
}

// remove drops docID's entry and reports whether the cell stored one:
// the entries ascend, so it is searched, newest ids first, and the gap
// closed with one copy.
func (h *cellHeap) remove(docID int32) bool {
	i := searchFromTail(h.entries, docID)
	if i == len(h.entries) || h.entries[i].DocID != docID {
		return false
	}
	h.entries = slices.Delete(h.entries, i, i+1)
	return true
}

// searchFromTail returns the index of the first entry of ascending es
// whose DocID is at least docID. It gallops back from the tail and
// bisects the bracket, so the most recently ingested document — the one
// churn removes — is found in the last cache line and any other in
// O(log n).
func searchFromTail(es []Entry, docID int32) int {
	hi, step := len(es), 1 // es[hi:] are all >= docID
	for hi > 0 && es[max(hi-step, 0)].DocID >= docID {
		hi = max(hi-step, 0)
		step <<= 1
	}
	lo := max(hi-step, 0)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); es[mid].DocID < docID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// add stores e, whose id the cell does not store: an append when it comes
// after every stored entry, and otherwise where a search from the tail
// puts it. above is the caller's word that e's id exceeds every id
// summarized before its batch, and so every stored one but the batch's,
// which are added ascending: ingest in id order appends without loading
// the cell's last entry, a cache miss per cell touched.
func (h *cellHeap) add(e Entry, above bool) {
	n := len(h.entries)
	if above || n == 0 || e.DocID > h.entries[n-1].DocID {
		h.entries = append(h.entries, e)
		return
	}
	h.entries = slices.Insert(h.entries, searchFromTail(h.entries, e.DocID), e)
}

// RTKSketch is the paper's reverse top-K sketch (Section V-B): a z x w
// table whose every cell keeps at most alpha*K (docID, value) pairs, the
// ones ranking highest. It replaces the n per-document sketches of the
// NAIVE solution on the owner side and reduces per-term query cost from
// O(zn) to O(z*alpha*K).
//
// A document enters a cell only through a non-zero value: a cell holds
// the at most alpha*K non-zero entries ranking highest among those
// offered to it, and a document absent from a cell reads as a zero to
// the querier (zero-fill). Algorithm 4 as the paper states it also tops
// a cell that fewer than alpha*K documents reach up with zero entries;
// those carry nothing an absent row does not, and are not kept.
//
// Documents come in batches (insert), and each cell a batch puts a
// non-zero value in is settled once per batch (settle); a cell's entries
// always ascend by DocID.
//
// RTKSketch is not safe for concurrent mutation.
type RTKSketch struct {
	params Params
	fam    *hashutil.Family
	cells  []cellHeap // row-major z x w
	docs   int
	top    int64            // the largest id ever summarized; math.MinInt64 before the first
	row    []sketch.RowCell // a removed document's row
}

// NewRTKSketch creates an empty RTK-Sketch bound to the shared hash
// family.
func NewRTKSketch(params Params, fam *hashutil.Family) (*RTKSketch, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if fam == nil {
		return nil, fmt.Errorf("%w: nil family", ErrBadParams)
	}
	if fam.Z() != params.Z || fam.W() != params.W {
		return nil, fmt.Errorf("%w: family geometry %dx%d does not match params %dx%d",
			ErrBadParams, fam.Z(), fam.W(), params.Z, params.W)
	}
	cells := make([]cellHeap, params.Z*params.W)
	abs := params.SketchKind == sketch.Count
	for i := range cells {
		cells[i].abs = abs
	}
	return &RTKSketch{params: params, fam: fam, cells: cells, top: math.MinInt64}, nil
}

// Params returns the sketch's parameters.
func (s *RTKSketch) Params() Params { return s.params }

// NumDocs returns the number of documents currently summarized.
func (s *RTKSketch) NumDocs() int { return s.docs }

// insert is Algorithm 4's insertion of a batch: it counts the documents,
// each summarized by its compact table over the sketch's hash family
// (tables[i] is docs[i]'s), and settles every cell the batch puts a
// non-zero value in once. It walks the sketch row by row, reading the
// batch's row from each table, so beside the tables its working memory
// is one row of non-zero entries and one cell's candidates. The caller
// has checked the batch (CheckBatch), so every id and every cell value
// fits an Entry. sc is the batch's scratch.
//
// Rows are independent hash tables, so a batch of more than one document
// settles them in contiguous bands, one per processor up to z, the caller
// running the first (settleBands). A band writes only its own cells, and
// the sketch is the same whatever the number of bands. A batch of one —
// an online add — settles inline.
func (s *RTKSketch) insert(docs []DocCounts, tables []sketch.Compact, sc *settleScratch) {
	order := sc.order[:0]
	for i := range docs {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(docs[a].DocID, docs[b].DocID) })
	ids := sc.ids[:0]
	for _, i := range order {
		ids = append(ids, int32(docs[i].DocID))
	}
	sc.order, sc.ids = order, ids
	sc.above = int64(ids[0]) > s.top
	s.docs += len(ids)
	s.top = max(s.top, int64(ids[len(ids)-1]))
	b := settleBatch{tables: tables, order: order, ids: ids}
	if bands := min(runtime.GOMAXPROCS(0), s.params.Z); len(ids) > 1 && bands > 1 {
		s.settleBands(b, bands, sc)
		return
	}
	s.settleRows(&b, 0, s.params.Z, sc)
}

// settleBatch is what every band of a batch reads and none writes: the
// tables, and the batch's positions and ids ascending by id.
type settleBatch struct {
	tables []sketch.Compact
	order  []int
	ids    []int32
}

// settleBands settles the batch's rows in the given number of contiguous
// bands: band 0 on the caller with sc, every other on its own goroutine
// with its own pooled scratch. b comes by value, so that only a banded
// batch moves it to the heap.
func (s *RTKSketch) settleBands(b settleBatch, bands int, sc *settleScratch) {
	z := s.params.Z
	var wg sync.WaitGroup
	for k := 1; k < bands; k++ {
		band := settleScratchPool.Get().(*settleScratch)
		band.above = sc.above
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s.settleRows(&b, lo, hi, band)
			settleScratchPool.Put(band)
		}(k*z/bands, (k+1)*z/bands)
	}
	s.settleRows(&b, 0, z/bands, sc)
	wg.Wait()
}

// settleRows settles every cell of rows lo to hi-1 that the batch puts a
// non-zero value in; no other cell changes.
func (s *RTKSketch) settleRows(b *settleBatch, lo, hi int, sc *settleScratch) {
	cap, w := s.params.HeapCap(), s.params.W
	for a := lo; a < hi; a++ {
		row, ends := sc.readRow(a, b.order, b.tables)
		slab, cols := sc.bucket(w, row, ends, b.ids)
		for k := 0; k < len(cols); {
			at, j := k, cols[k]
			for k < len(cols) && cols[k] == j {
				k++
			}
			s.cells[a*w+j].settle(cap, slab[at:k], sc)
		}
	}
}

// settleScratch is the working memory of one batch, pooled as
// mergeScratch is: the memo its tables are built with (empty between
// batches), the batch's positions and ids ascending by id, one row's
// non-zero cells table by table, the same as entries ordered by column
// and their columns, one cell's ranked candidates and new entries, and a
// full cell's entries that beat its floor and the positions of those that
// go. Every band of a batch past the first has a scratch of its own, and
// uses only its row and cell fields and above.
type settleScratch struct {
	memo   sketch.Memo
	order  []int
	ids    []int32
	row    []sketch.RowCell
	ends   []int
	starts []int
	slab   []Entry
	cols   []int
	ranked []Entry
	out    []Entry
	enter  []Entry
	gone   []int
	above  bool // the batch's ids exceed every id summarized before it
}

var settleScratchPool = sync.Pool{New: func() any { return new(settleScratch) }}

// readRow returns the non-zero cells of row a of the batch's tables, in
// ascending id order, one table's after another's: table k's end where
// ends[k] says.
func (sc *settleScratch) readRow(a int, order []int, tables []sketch.Compact) ([]sketch.RowCell, []int) {
	row, ends := sc.row[:0], sc.ends[:0]
	for _, i := range order {
		row = tables[i].AppendRow(row, a)
		ends = append(ends, len(row))
	}
	sc.row, sc.ends = row, ends
	return row, ends
}

// bucket orders a row read by readRow by column, ids ascending within a
// column, by a counting sort, and returns its entries beside the column
// of each.
func (sc *settleScratch) bucket(w int, row []sketch.RowCell, ends []int, ids []int32) ([]Entry, []int) {
	slab := slices.Grow(sc.slab[:0], len(row))[:len(row)]
	cols := slices.Grow(sc.cols[:0], len(row))[:len(row)]
	if len(ends) == 1 { // one table's row ascends by column already
		for i, rc := range row {
			slab[i], cols[i] = Entry{DocID: ids[0], Value: int32(rc.Value)}, rc.Col
		}
		sc.slab, sc.cols = slab, cols
		return slab, cols
	}
	// Column j's entries go from starts[j+1] up, which leaves starts[j+1]
	// where column j+1's begin.
	starts := slices.Grow(sc.starts[:0], w+2)[:w+2]
	clear(starts)
	for _, rc := range row {
		starts[rc.Col+2]++
	}
	for j := 2; j < len(starts); j++ {
		starts[j] += starts[j-1]
	}
	from := 0
	for k, end := range ends {
		for _, rc := range row[from:end] {
			at := starts[rc.Col+1]
			slab[at], cols[at] = Entry{DocID: ids[k], Value: int32(rc.Value)}, rc.Col
			starts[rc.Col+1]++
		}
		from = end
	}
	sc.starts, sc.slab, sc.cols = starts, slab, cols
	return slab, cols
}

// settle is Algorithm 4's step for one cell and a whole batch: the cell
// keeps the cap entries ranking highest among those it stored and the
// batch's — what offering it the documents one at a time leaves, since
// that set does not depend on the order. batch holds the batch's non-zero
// entries for the cell, at least one, ids ascending. A batch the cell
// keeps whole is added; a full cell that at most a few entries beat is
// settled from its floor (settleFull); any other is weighed whole
// (settleOver).
func (h *cellHeap) settle(cap int, batch []Entry, sc *settleScratch) {
	n := len(h.entries)
	if n+len(batch) < cap {
		h.entries = slices.Grow(h.entries, len(batch))
		for _, e := range batch {
			h.add(e, sc.above)
		}
		return
	}
	if n == cap {
		if enter, few := h.beaters(batch, cap, sc); few {
			if len(enter) > 0 {
				h.settleFull(enter, sc)
			}
			return
		}
	}
	h.settleOver(cap, batch, sc)
}

// beaters returns the batch's entries that beat the floor of a full cell,
// in the scratch, and reports whether settleFull may settle them: whether
// fewer than the cap and at most smallOverflow do. Otherwise settleOver
// weighs the whole cell.
func (h *cellHeap) beaters(batch []Entry, cap int, sc *settleScratch) ([]Entry, bool) {
	most := min(cap-1, smallOverflow)
	enter := sc.enter[:0]
	for _, e := range batch {
		if h.beats(e) {
			if enter = append(enter, e); len(enter) > most {
				return nil, false
			}
		}
	}
	sc.enter = enter
	return enter, true
}

// settleFull settles the cell, full, against the entries of a batch that
// beat its floor (beaters), at least one: every other entry of the batch
// ranks below the floor and goes. Of the cell's entries and those that
// beat it, the lowest len(enter) go too, found by walking the cell up from
// its floor (floorWalk) beside enter sorted by rank, and the next one up
// is the new floor. Only what leaves and what enters is moved: a batch of
// b such entries costs O(b log b), the walk's steps, and the shift of the
// entries above where they leave and land — no ranking of the whole cell.
func (h *cellHeap) settleFull(enter []Entry, sc *settleScratch) {
	if len(enter) > 1 { // most batches that beat a full cell are one entry
		slices.SortFunc(enter, func(a, b Entry) int {
			if x, y := h.ranked(a), h.ranked(b); x != y {
				if rankLess(x, y) {
					return -1
				}
				return 1
			}
			return 0
		})
	}
	walk := floorWalk{h: h, at: h.floorPos(), cur: Entry{DocID: h.floorDoc, Value: h.floorKey}}
	gone, lost := sc.gone[:0], 0 // gone: where the cell stores what goes
	for range enter {
		if rankLess(h.ranked(enter[lost]), walk.cur) {
			lost++
			continue
		}
		gone = append(gone, walk.at)
		walk.next()
	}
	floor, stay := walk.cur, enter[lost:]
	if len(stay) > 0 && rankLess(h.ranked(stay[0]), floor) {
		floor = h.ranked(stay[0])
	}
	// Where the floor will be if it stays and what stays is added above it.
	at := walk.at
	for _, i := range gone {
		if i < walk.at {
			at--
		}
	}
	if len(stay) > 1 {
		slices.SortFunc(stay, func(a, b Entry) int { return cmp.Compare(a.DocID, b.DocID) })
	}
	h.removeAt(gone)
	for _, e := range stay {
		h.add(e, sc.above)
	}
	h.floorKey, h.floorDoc, h.floorAt = floor.Value, floor.DocID, int32(at)
	sc.gone = gone
}

// removeAt drops the stored entries at the positions at, closing the gaps
// in one pass from the lowest of them.
func (h *cellHeap) removeAt(at []int) {
	if len(at) == 0 {
		return
	}
	slices.Sort(at)
	es, out := h.entries, at[0]
	for k, i := range at {
		end := len(es)
		if k+1 < len(at) {
			end = at[k+1]
		}
		out += copy(es[out:], es[i+1:end])
	}
	h.entries = es[:out]
}

// floorWalk walks a full cell's entries up from its floor, in eviction
// order: keys smallest first, largest id first among equal keys. cur is
// the entry it is at, ranked, and at is where cur is among the entries.
// The first entry of each larger key is found by a scan of the entries,
// and the rest of a key by a search down from the last.
type floorWalk struct {
	h   *cellHeap
	at  int
	cur Entry
}

// floorPos returns the index of the floor's entry in the full cell:
// floorAt, if it still is, else what a search finds.
func (h *cellHeap) floorPos() int {
	if at := int(h.floorAt); at < len(h.entries) && h.entries[at].DocID == h.floorDoc {
		return at
	}
	return searchFromTail(h.entries, h.floorDoc)
}

// next moves the walk one entry up. The cell holds more entries than the
// walk has passed.
func (w *floorWalk) next() {
	es, k := w.h.entries, w.cur.Value
	for i := w.at - 1; i >= 0; i-- {
		if w.h.key(es[i]) == k {
			w.cur, w.at = w.h.ranked(es[i]), i
			return
		}
	}
	w.cur = Entry{Value: math.MaxInt32}
	for i, e := range es {
		// Ids ascend, so an equal key later is a larger id: it ranks lower.
		if x := w.h.ranked(e); x.Value > k && x.Value <= w.cur.Value {
			w.cur, w.at = x, i
		}
	}
}

// settleOver settles the cell when the batch takes it to the cap or past
// it: of the entries it stored and the batch's, the cap ranking highest
// stay. The cut — the lowest that stays, the new floor — is selected
// among them all (selectRank), and one merge up the ids writes what
// stays.
func (h *cellHeap) settleOver(cap int, batch []Entry, sc *settleScratch) {
	es := h.entries
	ranked := sc.ranked[:0]
	for _, e := range es {
		ranked = append(ranked, h.ranked(e))
	}
	for _, e := range batch {
		ranked = append(ranked, h.ranked(e))
	}
	cut := selectRank(ranked, len(ranked)-cap)
	out, at := sc.out[:0], 0
	for i, j := 0, 0; i < len(es) || j < len(batch); {
		var e Entry
		if j == len(batch) || i < len(es) && es[i].DocID < batch[j].DocID {
			e, i = es[i], i+1
		} else {
			e, j = batch[j], j+1
		}
		if x := h.ranked(e); !rankLess(x, cut) {
			if x == cut {
				at = len(out)
			}
			out = append(out, e)
		}
	}
	h.entries = append(h.entries[:0], out...)
	h.floorKey, h.floorDoc, h.floorAt = cut.Value, cut.DocID, int32(at)
	sc.ranked, sc.out = ranked, out
}

// Delete removes document docID, which must be summarized, from every
// cell (Algorithm 4's deletion) and returns the number of cells that held
// it. table is the document's compact table, read a row at a time, or nil
// if the caller no longer has it. With it, only the cells of the
// document's row — those it put a non-zero value in — are visited, and a
// full cell whose cached floor orders above the document's entry is
// skipped without touching its slab: an entry a full cell holds orders at
// or above its floor. Without it every cell is searched.
func (s *RTKSketch) Delete(docID int, table *sketch.Compact) int {
	id := int32(docID) // summarized, so checkDoc saw it fit
	s.docs--
	held := 0
	if table == nil {
		for c := range s.cells {
			if s.cells[c].remove(id) {
				held++
			}
		}
		return held
	}
	cap, w := s.params.HeapCap(), s.params.W
	for a := 0; a < s.params.Z; a++ {
		s.row = table.AppendRow(s.row[:0], a)
		for _, rc := range s.row {
			h := &s.cells[a*w+rc.Col]
			e := Entry{DocID: id, Value: int32(rc.Value)}
			if len(h.entries) == cap && !h.beats(e) && id != h.floorDoc {
				continue // below the floor
			}
			if h.remove(id) {
				held++
			}
		}
	}
	return held
}

// AbsEvictionKeys reports whether cell eviction ranks entries by
// |Value| (Count Sketch) rather than Value (Count-Min) — the abs flag
// of cellHeap, exposed so partition-merging callers (internal/shard)
// can reproduce the eviction order exactly.
func (p Params) AbsEvictionKeys() bool { return p.SketchKind == sketch.Count }

// MergeRTKResponses merges per-partition answers to one query into the
// answer a single sketch over the union of the partitions' documents
// would give, released with one draw from mech (rtkRelease). Parts are
// raw (noise-free, so every value is an exact integer) Owner answers over
// disjoint document sets, read and left as they are; like them, the
// result belongs to the caller and carries its encoded length, measured
// in the merge loop.
//
// Correctness: eviction is a strict total order (key descending,
// key-ties keep the smaller DocID), so an entry in the global top-cap is
// necessarily in the top-cap of its own partition —
// the top-cap of the combined survivors under the same order is the
// single-sketch cell bit for bit. The parts arrive ascending by DocID, so
// every row is one k-way merge by DocID, taken a run at a time: the part
// with the smallest head gives up every id below the others' heads.
// A row whose n candidates overflow the cap loses its n-heapCap lowest
// entries. When the overflow is small, as it is when shards just under
// the cap meet, a scan from the rows' tails names those entries
// (mergeScratch.drops) and the runs are copied around them. Otherwise the
// merge gathers the candidates, selects the cut — the entry of rank
// n-heapCap, unique because the order is strict — and drops what orders
// below it. Either way exactly heapCap entries come out, already in
// canonical order, and nothing is ever sorted. abs must be
// Params.AbsEvictionKeys() of the sketches being merged; heapCap is
// Params.HeapCap().
//
//csfltr:deterministic
func MergeRTKResponses(parts []*RTKResponse, heapCap int, abs bool, mech dp.Mechanism) *RTKResponse {
	z := len(parts[0].Cells)
	total, longest := 0, 0
	for a := 0; a < z; a++ {
		n := 0
		for _, p := range parts {
			n += len(p.Cells[a].IDs)
		}
		total += min(n, heapCap)
		longest = max(longest, n)
	}
	resp, ids, vals := NewRTKResponse(z, total)
	order := cellHeap{abs: abs}
	sc := mergeScratchPool.Get().(*mergeScratch)
	heads := slices.Grow(sc.heads[:0], len(parts))[:len(parts)]
	if longest-heapCap > smallOverflow {
		sc.ranked = slices.Grow(sc.ranked[:0], longest)
	}
	rel := newRTKRelease(mech)
	for a := 0; a < z; a++ {
		n := 0
		for pi, p := range parts {
			heads[pi] = p.Cells[a]
			n += len(heads[pi].IDs)
		}
		keep := min(n, heapCap)
		row := RTKCell{IDs: ids[:keep:keep], Values: vals[:keep:keep]}
		if n-heapCap > smallOverflow {
			sc.ranked = order.gather(heads, sc.ranked[:0])
			cut := selectRank(sc.ranked, n-heapCap)
			for out := 0; out < keep; {
				run := nextRun(heads)
				for i, id := range run.IDs {
					if v := run.Values[i]; !rankLess(order.rank(id, v), cut) {
						row.IDs[out], row.Values[out] = id, rel.value(int32(v))
						out++
					}
				}
			}
		} else {
			var drops []int32
			if n > heapCap {
				drops = sc.drops(heads, n-heapCap, abs)
			}
			for out := 0; out < keep; {
				run := nextRun(heads)
				// Every drop up to the run's last id is the run's own: the
				// run holds every id of the row from its first to its last.
				for last := run.IDs[len(run.IDs)-1]; len(drops) > 0 && drops[0] <= last; drops = drops[1:] {
					j, _ := slices.BinarySearch(run.IDs, drops[0])
					out += putRun(row, out, run.IDs[:j], run.Values[:j], rel)
					run.IDs, run.Values = run.IDs[j+1:], run.Values[j+1:]
				}
				out += putRun(row, out, run.IDs, run.Values, rel)
			}
		}
		if keep > 0 { // an empty row stays the zero RTKCell, as a decoder leaves it
			resp.Cells[a] = row
		}
		rel.cell(row.IDs)
		ids, vals = ids[keep:], vals[keep:]
	}
	rel.finish(resp)
	clear(heads) // the scratch must not outlive the parts' rows
	sc.heads = heads
	mergeScratchPool.Put(sc)
	return resp
}

// nextRun takes the next run of a k-way merge by DocID off heads, the
// rows' untaken entries, at least one of them non-empty: every entry of
// the part with the smallest head whose id is below every other part's
// head. Shards own ranges of ids, so runs are long.
func nextRun(heads []RTKCell) RTKCell {
	best, limit := -1, int64(math.MaxInt32)+1
	for pi, c := range heads {
		switch {
		case len(c.IDs) == 0:
		case best < 0 || c.IDs[0] < heads[best].IDs[0]:
			if best >= 0 {
				limit = int64(heads[best].IDs[0])
			}
			best = pi
		case int64(c.IDs[0]) < limit:
			limit = int64(c.IDs[0])
		}
	}
	head := &heads[best]
	m := len(head.IDs)
	if limit <= math.MaxInt32 {
		m, _ = slices.BinarySearch(head.IDs, int32(limit))
	}
	run := RTKCell{IDs: head.IDs[:m], Values: head.Values[:m]}
	head.IDs, head.Values = head.IDs[m:], head.Values[m:]
	return run
}

// putRun writes the entries ids, vals of a raw run into row from position
// out on, values released by rel, and returns how many it wrote.
func putRun(row RTKCell, out int, ids []int32, vals []float64, rel *rtkRelease) int {
	copy(row.IDs[out:], ids)
	dst := row.Values[out : out+len(vals)]
	for i, v := range vals {
		dst[i] = rel.value(int32(v))
	}
	return len(ids)
}

// mergeScratch is the working memory of one MergeRTKResponses, pooled as
// rtkScratch is for recovery: what the merge has yet to take of each
// part's row, and either the gathered candidates of a row that overflows
// the cap by much, or the tail scan's place in each part's row and the ids
// it drops. The candidates are Entries, which a reply's slabs cannot hold
// without a slower selection, so this does not come from NewRTKResponse.
type mergeScratch struct {
	heads   []RTKCell
	ranked  []Entry
	tails   []int
	dropped []int32
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// rank returns an entry of a raw reply row — its value an exact integer,
// an Entry's Value — with the value replaced by its ranking key, the form
// rankLess orders.
func (h *cellHeap) rank(id int32, v float64) Entry {
	return Entry{DocID: id, Value: h.key(Entry{Value: int32(v)})}
}

// gather appends every entry of the rows to dst in ranked form.
func (h *cellHeap) gather(rows []RTKCell, dst []Entry) []Entry {
	for _, c := range rows {
		for i, id := range c.IDs {
			dst = append(dst, h.rank(id, c.Values[i]))
		}
	}
	return dst
}

// smallOverflow is the largest overflow of a merged row whose drops a
// merge finds by the tail scan; beyond it a merge gathers and selects.
const smallOverflow = 16

// drops returns, ascending, the ids of the k entries (1 <= k <=
// smallOverflow, at most what the rows hold) that order lowest under
// rankLess among the raw rows' entries, ranked by the eviction order abs
// names — what selectRank leaves below rank k of them gathered. The
// slice is the scratch's own, valid until its next use.
//
// It walks the rows from their tails in descending id order, the mirror
// of nextRun's walk, and keeps the k lowest seen. It stops as soon as
// those all sit at the smallest key a value can have: 0 under abs, and
// -math.MaxInt32 otherwise, since no value is smaller (fitsValue). Every
// entry not yet seen has a smaller id and a key at least that large, and
// a key tie ranks the smaller id higher, so none orders below one kept.
func (sc *mergeScratch) drops(rows []RTKCell, k int, abs bool) []int32 {
	order := cellHeap{abs: abs}
	floor := int32(-math.MaxInt32)
	if abs {
		floor = 0
	}
	tails := slices.Grow(sc.tails[:0], len(rows))[:len(rows)]
	for pi, c := range rows {
		tails[pi] = len(c.IDs)
	}
	var least [smallOverflow]Entry // the k lowest seen, ascending under rankLess
	n := 0
scan:
	for {
		// The part with the largest tail gives up its run: every id above
		// the largest tail among the others.
		best, limit := -1, int64(math.MinInt32)-1
		for pi, c := range rows {
			switch t := tails[pi]; {
			case t == 0:
			case best < 0 || c.IDs[t-1] > rows[best].IDs[tails[best]-1]:
				if best >= 0 {
					limit = int64(rows[best].IDs[tails[best]-1])
				}
				best = pi
			case int64(c.IDs[t-1]) > limit:
				limit = int64(c.IDs[t-1])
			}
		}
		if best < 0 {
			break
		}
		c, from := rows[best], 0
		if limit >= math.MinInt32 {
			from, _ = slices.BinarySearch(c.IDs[:tails[best]], int32(limit))
		}
		for i := tails[best] - 1; i >= from; i-- {
			e := order.rank(c.IDs[i], c.Values[i])
			if n == k {
				if !rankLess(e, least[k-1]) {
					continue
				}
				n-- // the highest kept leaves to make room
			}
			j := n
			for ; j > 0 && rankLess(e, least[j-1]); j-- {
				least[j] = least[j-1]
			}
			least[j] = e
			if n++; n == k && least[k-1].Value == floor {
				break scan
			}
		}
		tails[best] = from
	}
	dropped := sc.dropped[:0]
	for _, e := range least[:k] {
		dropped = append(dropped, e.DocID)
	}
	slices.Sort(dropped)
	sc.tails, sc.dropped = tails, dropped
	return dropped
}

// selectRank returns the entry of rank k (0-based) under rankLess,
// partially ordering es on the way: quickselect with a median-of-three
// pivot, O(len(es)) for any k, no comparison callback and no randomness.
func selectRank(es []Entry, k int) Entry {
	lo, hi := 0, len(es)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rankLess(es[mid], es[lo]) {
			es[mid], es[lo] = es[lo], es[mid]
		}
		if rankLess(es[hi], es[lo]) {
			es[hi], es[lo] = es[lo], es[hi]
		}
		if rankLess(es[hi], es[mid]) {
			es[hi], es[mid] = es[mid], es[hi]
		}
		pivot := es[mid]
		i, j := lo, hi
		for i <= j {
			for rankLess(es[i], pivot) {
				i++
			}
			for rankLess(pivot, es[j]) {
				j--
			}
			if i <= j {
				es[i], es[j] = es[j], es[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return es[k]
		}
	}
	return es[k]
}

// Cell returns the entries of cell (row, col) in ascending DocID order.
// This is the owner-side lookup of Algorithm 5: the querier asks for the
// cells its term hashes to. The order makes responses (and therefore wire
// encodings and snapshots) independent of ingestion history. The slice is
// the sketch's own storage: it is valid until the sketch's next mutation
// and must not be modified.
func (s *RTKSketch) Cell(row int, col uint32) []Entry {
	return s.cells[row*s.params.W+int(col)].entries
}

// SizeBytes returns the space metric of Fig. 4: 8 bytes (4 for the doc
// id, 4 for the value) per entry the cells hold.
func (s *RTKSketch) SizeBytes() int64 {
	n := int64(0)
	for c := range s.cells {
		n += int64(8 * len(s.cells[c].entries))
	}
	return n
}

// MaxCellLoad returns the largest cell occupancy; useful for verifying
// the alpha*K cap in tests and capacity planning.
func (s *RTKSketch) MaxCellLoad() int {
	most := 0
	for c := range s.cells {
		most = max(most, len(s.cells[c].entries))
	}
	return most
}
