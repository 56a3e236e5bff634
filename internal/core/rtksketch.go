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

// cellHeap is one capped RTK-Sketch cell: the at most cap entries with
// the largest ranking key offered to it. For Count Sketch the key is
// |Value|: a document's cell value is its (sign-weighted) contribution
// plus collision noise, and the querier recovers the sign later, so
// magnitude is what predicts relevance. For Count-Min the key is Value
// itself (non-negative unless a document's counts are not).
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
// orders below.
//
// In an RTKSketch a cell also has a held-prefix bound: it holds every
// live id below it, and stores only its non-zero entries and the zeros at
// or above the bound — the zeros below it are implied by the sketch's
// roster of live ids (see RTKSketch).
type cellHeap struct {
	entries  []Entry
	abs      bool  // order by |Value| (Count Sketch) instead of Value
	floorDoc int32 // DocID of the eviction minimum, valid while full
	floorKey int32 // key of the eviction minimum, valid while full
	below    int32 // the held-prefix bound: every live id below it is held
}

// noBound is the bound of a cell that has let no document below it go: it
// holds every live id below math.MaxInt32, and stores a zero only for id
// math.MaxInt32.
const noBound = math.MaxInt32

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

// keep makes the cell hold es, ascending, under its bound: it stores all
// but the zeros below the bound, which the roster implies, in exactly the
// memory that takes.
func (h *cellHeap) keep(es []Entry) {
	stored := func(e Entry) bool { return e.Value != 0 || e.DocID >= h.below }
	n := 0
	for _, e := range es {
		if stored(e) {
			n++
		}
	}
	h.entries = make([]Entry, 0, n)
	for _, e := range es {
		if stored(e) {
			h.entries = append(h.entries, e)
		}
	}
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
// puts it. above is the caller's word that e's id exceeds every id live
// before its batch, and so every stored one but the batch's, which are
// added ascending: ingest in id order appends without loading the cell's
// last entry, a cache miss per cell touched.
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
// Most of what the cells hold is zeros — a document leaves a non-zero
// value in a few of a row's w cells — and a zero carries nothing the
// roster of live ids does not. So the sketch keeps that roster, ascending,
// and every cell a held-prefix bound: the cell holds every live id below
// its bound, and stores only its non-zero entries and the zeros at or
// above the bound. A cell that has never let a document go holds every
// live id (noBound) and stores its non-zero entries alone; letting go of
// an id below the bound lowers the bound to it. Every observable surface
// (Cell, AnswerRTK, snapshots, MaxCellLoad) emits the merged view — the
// stored entries plus a zero for every live id below the bound that the
// cell does not store — which is, entry for entry, Algorithm 4's cell.
//
// Documents come in batches (insert), and each cell is settled once per
// batch (settle); a cell's entries always ascend by DocID.
//
// RTKSketch is not safe for concurrent mutation.
type RTKSketch struct {
	params Params
	fam    *hashutil.Family
	cells  []cellHeap // row-major z x w
	docs   int
	roster []int32 // the live ids, ascending
	// held counts, per cell that has let a document go, what it holds; -1
	// for a cell that has not, which holds every live id. It is nil while
	// no cell has — always, for a sketch that never reaches alpha*K — and
	// then a removal need visit only the cells that store the document.
	held []int32
	// floorAt is, per cell, where its floor's id was among its stored
	// entries when last known: a hint, checked before use, kept beside
	// held.
	floorAt []int32
	view    []Entry          // Cell's merged view
	row     []sketch.RowCell // a removed document's row
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
		cells[i].abs, cells[i].below = abs, noBound
	}
	return &RTKSketch{params: params, fam: fam, cells: cells}, nil
}

// Params returns the sketch's parameters.
func (s *RTKSketch) Params() Params { return s.params }

// NumDocs returns the number of documents currently summarized.
func (s *RTKSketch) NumDocs() int { return s.docs }

// insert is Algorithm 4's insertion of a batch: it enrols the documents,
// each summarized by its compact table over the sketch's hash family
// (tables[i] is docs[i]'s), and settles every cell once. It walks the
// sketch row by row, reading the batch's row from each table, so beside
// the tables its working memory is one row of non-zero entries and one
// cell's candidates. The caller has checked the batch (CheckBatch), so
// every id and every cell value fits an Entry. sc is the batch's scratch.
//
// Rows are independent hash tables, so a batch of more than one document
// settles them in contiguous bands, one per processor up to z, the caller
// running the first (settleBands). Everything the rows share is settled
// before they start: the roster is enrolled, and the cells' counts are
// made room for exactly when some cell will let a document go (while
// none has, every cell holds every live id, so that is when the batch
// takes them past the cap). A band then writes only its own cells and
// their counts and floor hints, and the sketch is the same whatever the
// number of bands. A batch of one — an online add — settles inline.
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
	live, cap := len(s.roster), s.params.HeapCap()
	sc.above = live == 0 || ids[0] > s.roster[live-1]
	s.enroll(ids)
	if s.held == nil && live+len(ids) > cap {
		s.countHeld()
	}
	b := settleBatch{
		tables: tables, order: order, ids: ids, live: live,
		// While every cell holds every live id and the batch fills none, a
		// cell only stores the batch's non-zero entries for it (settle's
		// take, every zero implied), so only the cells they name are visited.
		quiet: s.held == nil && live+len(ids) < cap && ids[len(ids)-1] < noBound,
	}
	if bands := min(runtime.GOMAXPROCS(0), s.params.Z); len(ids) > 1 && bands > 1 {
		s.settleBands(b, bands, sc)
		return
	}
	s.settleRows(&b, 0, s.params.Z, sc)
}

// settleBatch is what every band of a batch reads and none writes: the
// tables, the batch's positions and ids ascending by id, how many ids
// were live before it, and whether it is quiet (see insert).
type settleBatch struct {
	tables []sketch.Compact
	order  []int
	ids    []int32
	live   int
	quiet  bool
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

// settleRows settles every cell of rows lo to hi-1 with the batch.
func (s *RTKSketch) settleRows(b *settleBatch, lo, hi int, sc *settleScratch) {
	cap, w, ids := s.params.HeapCap(), s.params.W, b.ids
	for a := lo; a < hi; a++ {
		row, ends := sc.readRow(a, b.order, b.tables)
		if b.quiet {
			s.addRow(a, row, ends, ids, sc)
			continue
		}
		slab, cols := sc.bucket(w, row, ends, ids)
		for j, k := 0, 0; j < w; j++ {
			at := k
			for k < len(cols) && cols[k] == j {
				k++
			}
			if c := a*w + j; at < k || !s.unmoved(c, cap, ids[0]) {
				s.settle(c, cap, s.load(c, b.live), slab[at:k], ids, sc)
			}
		}
	}
}

// settleScratch is the working memory of one batch, pooled as
// mergeScratch is: the memo its tables are built with (empty between
// batches), the batch's positions and ids ascending by id, one row's
// non-zero cells table by table, the same as entries ordered by column
// and their columns, per column counts, one cell's ranked negative and
// positive candidates and new entries, and a full cell's entries that
// beat its floor and the positions of those that go. Every band of a
// batch past the first has a scratch of its own, and uses only its row
// and cell fields and above.
type settleScratch struct {
	memo   sketch.Memo
	order  []int
	ids    []int32
	row    []sketch.RowCell
	ends   []int
	starts []int
	slab   []Entry
	cols   []int
	counts []int // all zero between rows
	negs   []Entry
	poss   []Entry
	out    []Entry
	enter  []Entry
	gone   []int
	above  bool // the batch's ids exceed every id live before it
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

// addRow stores row a's non-zero entries of a batch no cell lets a
// document go for, read by readRow: each cell they name grows once, to
// what it comes to store, and then takes them in id order.
func (s *RTKSketch) addRow(a int, row []sketch.RowCell, ends []int, ids []int32, sc *settleScratch) {
	w := s.params.W
	cells := s.cells[a*w : (a+1)*w]
	counts := slices.Grow(sc.counts[:0], w)[:w]
	for _, rc := range row {
		counts[rc.Col]++
	}
	for _, rc := range row {
		if n := counts[rc.Col]; n > 0 {
			cells[rc.Col].entries = slices.Grow(cells[rc.Col].entries, n)
			counts[rc.Col] = 0
		}
	}
	sc.counts = counts
	from := 0
	for k, end := range ends {
		for _, rc := range row[from:end] {
			cells[rc.Col].add(Entry{DocID: ids[k], Value: int32(rc.Value)}, sc.above)
		}
		from = end
	}
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

// enroll puts ids, ascending and none of them live, on the roster.
func (s *RTKSketch) enroll(ids []int32) {
	s.docs += len(ids)
	n := len(s.roster)
	if s.roster = append(s.roster, ids...); n > 0 && ids[0] < s.roster[n-1] {
		slices.Sort(s.roster) // some id below a live one: ingest out of id order
	}
}

// unenroll ends a removal: it takes id off the roster, and so out of
// every cell that implied it.
func (s *RTKSketch) unenroll(id int32) {
	s.docs--
	if i, on := slices.BinarySearch(s.roster, id); on {
		s.roster = slices.Delete(s.roster, i, i+1)
	}
}

// load returns how many entries cell c holds, stored or implied, when
// live documents are summarized: all of them until it lets one go.
func (s *RTKSketch) load(c, live int) int {
	if s.held == nil || s.held[c] < 0 {
		return live
	}
	return int(s.held[c])
}

// count adds delta to what cell c holds, if it keeps a count.
func (s *RTKSketch) count(c, delta int) {
	if s.held != nil && s.held[c] >= 0 {
		s.held[c] += int32(delta)
	}
}

// setHeld counts n entries for cell c, which has let a document go,
// making room for the cells' counts first if none is kept yet.
func (s *RTKSketch) setHeld(c, n int) {
	if s.held == nil {
		s.countHeld()
	}
	s.held[c] = int32(n)
}

// countHeld makes room for the cells' counts and floor hints, every cell
// counted as holding every live id.
func (s *RTKSketch) countHeld() {
	s.held, s.floorAt = make([]int32, len(s.cells)), make([]int32, len(s.cells))
	for c := range s.held {
		s.held[c] = -1
	}
}

// unmoved reports whether a batch of zeros alone, the smallest at id,
// leaves cell c as it is: the cell is full, counts what it holds, its
// bound is at most id, and its floor orders above id's zero, so settle
// would let the whole batch go and change nothing.
func (s *RTKSketch) unmoved(c, cap int, id int32) bool {
	h := &s.cells[c]
	return s.held != nil && int(s.held[c]) == cap && h.below <= id && !h.beats(Entry{DocID: id})
}

// settle is Algorithm 4's step for one cell and a whole batch: the cell
// keeps the cap entries ranking highest among those it held and the
// batch's — what offering it the documents one at a time leaves, since
// that set does not depend on the order — and the smallest id let go
// lowers the bound to it. The cell held n entries; batch holds the
// batch's non-zero entries for it, ids ascending, and every other id of
// ids brings a zero.
func (s *RTKSketch) settle(c, cap, n int, batch []Entry, ids []int32, sc *settleScratch) {
	h := &s.cells[c]
	if n+len(ids) < cap {
		// Nothing goes: the cell takes the batch, storing what the roster
		// does not imply.
		s.count(c, len(ids))
		if len(batch) > 0 || ids[len(ids)-1] >= h.below {
			h.take(batch, ids, sc.above)
		}
		return
	}
	if n == cap {
		switch enter, few := h.beaters(batch, ids, cap, sc); {
		case few && len(enter) == 0:
			// The batch goes whole — the floor only rises — and only the
			// bound can change.
			s.letGo(c, ids[0], cap)
			return
		case few:
			s.settleFull(c, cap, enter, ids, sc)
			return
		}
	}
	s.settleOver(c, cap, n, batch, ids, sc)
}

// take adds a batch the cell keeps whole: its non-zero entries, and a zero
// for every id at or above the bound that the batch has no entry for.
func (h *cellHeap) take(batch []Entry, ids []int32, above bool) {
	if ids[len(ids)-1] < h.below { // every zero implied
		for _, e := range batch {
			h.add(e, above)
		}
		return
	}
	k := 0
	for _, id := range ids {
		e := Entry{DocID: id}
		if k < len(batch) && batch[k].DocID == id {
			e, k = batch[k], k+1
		} else if id < h.below {
			continue
		}
		h.add(e, above)
	}
}

// beaters returns the batch's entries that beat the floor of a full cell —
// its non-zero entries that do, and, when the floor is a zero, the zero of
// every id below the floor's that has none — in the scratch, and reports
// whether settleFull may settle the cell: whether the floor's key is not
// negative, no negative key of the batch sits below the bound (letting it
// go would turn the zeros held above it from implied to stored), and
// fewer than the cap and at most smallOverflow entries beat. Otherwise
// settleOver weighs the whole cell.
func (h *cellHeap) beaters(batch []Entry, ids []int32, cap int, sc *settleScratch) ([]Entry, bool) {
	if len(batch) == 0 && !h.beats(Entry{DocID: ids[0]}) {
		return nil, true // the batch's highest-ranking entry, its smallest id's zero, does not beat
	}
	if h.floorKey < 0 {
		return nil, false
	}
	most := min(cap-1, smallOverflow)
	enter := sc.enter[:0]
	for _, e := range batch {
		switch {
		case h.key(e) < 0 && e.DocID < h.below:
			return nil, false
		case h.beats(e):
			if enter = append(enter, e); len(enter) > most {
				return nil, false
			}
		}
	}
	if h.floorKey == 0 && ids[0] < h.floorDoc {
		if ids[0] < h.below {
			return nil, false // the walk down from the floor would meet the batch's ids
		}
		k := 0
		for _, id := range ids[:heldPrefix(ids, h.floorDoc)] {
			for k < len(batch) && batch[k].DocID < id {
				k++
			}
			if k < len(batch) && batch[k].DocID == id {
				continue // its non-zero entry is weighed above
			}
			if enter = append(enter, Entry{DocID: id}); len(enter) > most {
				return nil, false
			}
		}
	}
	sc.enter = enter
	return enter, true
}

// settleFull settles cell c, full, against the entries of a batch that
// beat its floor (beaters), at least one: every other entry of the batch
// ranks below the floor and goes. Of the cell's entries and those that
// beat it, the lowest len(enter) go too, found by walking the cell up from
// its floor (floorWalk) beside enter sorted by rank, and the next one up
// is the new floor. Only what leaves and what enters is moved: a batch of
// b such entries costs O(b log b), the walk's steps, and the shift of the
// entries above where they leave and land — no ranking of the whole cell
// and no roster walk.
//
// Nothing else changes what the cell stores: every id let go is above
// every zero that stays (zeros rank by id, the largest lowest, and every
// other entry of the batch ranks below them all), so the lowered bound
// leaves each zero that stays on the side of it where it already was.
func (s *RTKSketch) settleFull(c, cap int, enter []Entry, ids []int32, sc *settleScratch) {
	h := &s.cells[c]
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
	walk := newFloorWalk(h, s.roster, s.floorPos(c))
	first, gone, lost := int32(noBound), sc.gone[:0], 0 // gone: where the cell stores what goes
	for range enter {
		if rankLess(h.ranked(enter[lost]), walk.cur) {
			lost++
			continue
		}
		first = min(first, walk.cur.DocID)
		if walk.stored() {
			gone = append(gone, walk.at)
		}
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
	s.letGo(c, min(first, firstOutside(ids, stay)), cap)
	for _, e := range stay {
		if e.Value != 0 || e.DocID >= h.below {
			h.add(e, sc.above)
		}
	}
	h.floorKey, h.floorDoc, s.floorAt[c] = floor.Value, floor.DocID, int32(at)
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

// firstOutside returns the smallest of ascending ids that is not the id of
// an entry of ascending stay, a subset of them; noBound if there is none.
func firstOutside(ids []int32, stay []Entry) int32 {
	for i, id := range ids {
		if i == len(stay) || stay[i].DocID != id {
			return id
		}
	}
	return noBound
}

// floorWalk walks a full cell's held entries up from its floor, in
// eviction order: the zeros, largest id first — the stored ones and those
// the roster implies — and then the positive keys, smallest first, largest
// id first among equal keys. cur is the entry it is at, ranked, and at is
// where cur's id is or would be among the stored entries. Zeros are met
// one step each down the ids; the first positive key, and the first of each
// larger key, is found by a scan of the stored entries, and the rest of a
// key by a search down from the last.
type floorWalk struct {
	h      *cellHeap
	roster []int32
	at, ri int // the stored entries below cur are h.entries[:at]; the held roster ids, roster[:ri]
	cur    Entry
}

// newFloorWalk starts a walk at the floor of full cell h under roster,
// at where the floor's id is among the stored entries. The floor's key
// is not negative, so the cell holds no negative key.
func newFloorWalk(h *cellHeap, roster []int32, at int) floorWalk {
	w := floorWalk{h: h, roster: roster, at: at, cur: Entry{DocID: h.floorDoc, Value: h.floorKey}}
	if h.floorKey == 0 {
		// Every live id below the bound is held, and is a zero unless stored.
		w.ri = rosterPos(roster, min(h.floorDoc, h.below))
	}
	return w
}

// floorPos returns the index of the first entry cell c stores whose id is
// at least its floor's: floorAt's, if it still is, else what a search
// finds.
func (s *RTKSketch) floorPos(c int) int {
	h := &s.cells[c]
	es, at := h.entries, -1
	if s.floorAt != nil {
		at = int(s.floorAt[c])
	}
	if 0 <= at && at <= len(es) && (at == 0 || es[at-1].DocID < h.floorDoc) && (at == len(es) || es[at].DocID >= h.floorDoc) {
		return at
	}
	return searchFromTail(es, h.floorDoc)
}

// stored reports whether the cell stores cur.
func (w *floorWalk) stored() bool {
	return w.at < len(w.h.entries) && w.h.entries[w.at].DocID == w.cur.DocID
}

// next moves the walk one entry up. The cell holds more entries than the
// walk has passed.
func (w *floorWalk) next() {
	es := w.h.entries
	if w.cur.Value == 0 {
		// Down the ids: a stored id below the bound is on the roster too,
		// and holds a non-zero entry; a roster id that is not stored is a
		// zero, and so is a stored zero, which is at or above the bound.
		for w.at > 0 || w.ri > 0 {
			if w.at == 0 || w.ri > 0 && w.roster[w.ri-1] > es[w.at-1].DocID {
				w.ri--
				w.cur = Entry{DocID: w.roster[w.ri]}
				return
			}
			w.at--
			e := es[w.at]
			if w.ri > 0 && w.roster[w.ri-1] == e.DocID {
				w.ri--
			}
			if e.Value == 0 {
				w.cur = e
				return
			}
		}
		w.lowestAbove(0)
		return
	}
	k := w.cur.Value
	for i := w.at - 1; i >= 0; i-- {
		if w.h.key(es[i]) == k {
			w.cur, w.at = w.h.ranked(es[i]), i
			return
		}
	}
	w.lowestAbove(k)
}

// lowestAbove moves the walk to the lowest stored entry whose key exceeds
// k.
func (w *floorWalk) lowestAbove(k int32) {
	w.cur = Entry{Value: math.MaxInt32}
	for i, e := range w.h.entries {
		// Ids ascend, so an equal key later is a larger id: it ranks lower.
		if x := w.h.ranked(e); x.Value > k && x.Value <= w.cur.Value {
			w.cur, w.at = x, i
		}
	}
}

// letGo records that cell c, full after a batch, let id go, the smallest
// id it let go: the cell counts what it holds, and an id below the bound
// lowers it.
func (s *RTKSketch) letGo(c int, id int32, cap int) {
	s.setHeld(c, cap)
	if h := &s.cells[c]; id < h.below {
		h.below = id
	}
}

// settleOver settles cell c when the batch takes it to the cap or past
// it: of the n entries it held and the batch's, the cap ranking highest
// stay. The cut — the smallest that stays, the new floor — is found by
// class: negative keys rank below every zero, zeros below every positive
// key, and zeros among themselves by id, the largest lowest. A cut among
// the negative or the positive keys is selected from that class alone
// (selectRank); a cut among the zeros is a count of how many stay, the
// smallest ids. One walk up the ids then decides every entry and writes
// what the cell stores under keep's rule: the first id let go is the
// smallest, the new bound unless the old one is lower, and a zero that
// stays above it is stored.
func (s *RTKSketch) settleOver(c, cap, n int, batch []Entry, ids []int32, sc *settleScratch) {
	h := &s.cells[c]
	negs, poss := h.rankNonZero(sc, batch)
	neg, pos := len(negs), len(poss)
	drop := n + len(ids) - cap
	zeros := n + len(ids) - neg - pos
	st := settlement{h: h, cut: Entry{DocID: noBound}, keepZeros: zeros, out: sc.out[:0]}
	switch {
	case drop < neg:
		st.cut = selectRank(negs, drop)
	case drop < neg+zeros:
		st.keepZeros = zeros - (drop - neg)
	default:
		st.keepZeros = 0
		st.cut = selectRank(poss, drop-neg-zeros)
	}
	// Below the bound the ids are the roster's: the non-zero entries,
	// stored or the batch's, met one at a time, and zeros — implied ones
	// and the batch's — in runs between them, each run decided at once.
	// Once an id has gone and no more zeros stay, the runs left decide
	// nothing, and the roster is not walked further.
	pre := s.roster[:heldPrefix(s.roster, h.below)]
	es, p, si, li := h.entries, 0, 0, 0
	for {
		var e Entry
		switch {
		case li < len(batch) && batch[li].DocID < h.below && (si == len(es) || batch[li].DocID < es[si].DocID):
			e, li = batch[li], li+1
		case si < len(es) && es[si].DocID < h.below:
			e, si = es[si], si+1
		}
		if e.Value == 0 { // none left below the bound
			break
		}
		if !st.zerosDecided() {
			if q := p; pre[q] != e.DocID { // a run of zeros first
				for pre[q] != e.DocID {
					q++
				}
				st.zeroRun(pre[p:q])
				p = q
			}
			p++
		}
		st.visit(e)
	}
	if !st.zerosDecided() {
		st.zeroRun(pre[p:])
	}
	// At and above the bound: the stored entries, and every id of the batch.
	for bi := heldPrefix(ids, h.below); si < len(es) || bi < len(ids); {
		if bi == len(ids) || si < len(es) && es[si].DocID < ids[bi] {
			st.visit(es[si])
			si++
			continue
		}
		e := Entry{DocID: ids[bi]}
		if bi++; li < len(batch) && batch[li].DocID == e.DocID {
			e, li = batch[li], li+1
		}
		st.visit(e)
	}
	h.entries, sc.out = append(h.entries[:0], st.out...), st.out
	switch {
	case st.lost:
		s.letGo(c, st.first, cap)
	case s.held != nil && s.held[c] >= 0:
		s.held[c] = int32(cap)
	}
	if st.cut.Value == 0 { // among the zeros
		st.cut.DocID = st.lastZero
	}
	h.floorKey, h.floorDoc = st.cut.Value, st.cut.DocID
}

// rankNonZero returns, ranked, the stored and the batch's entries whose
// key is negative, and those whose key is positive.
func (h *cellHeap) rankNonZero(sc *settleScratch, batch []Entry) (negs, poss []Entry) {
	negs, poss = sc.negs[:0], sc.poss[:0]
	for _, es := range [2][]Entry{h.entries, batch} {
		for _, e := range es {
			switch x := h.ranked(e); {
			case x.Value > 0:
				poss = append(poss, x)
			case x.Value < 0:
				negs = append(negs, x)
			}
		}
	}
	sc.negs, sc.poss = negs, poss
	return negs, poss
}

// settlement is settleOver's walk up a cell's ids: what stays, and what
// the cell stores of it.
type settlement struct {
	h         *cellHeap
	cut       Entry // ranked: a non-zero entry stays iff it does not order below
	keepZeros int   // how many zeros stay: the smallest ids
	zeros     int   // zeros met so far
	lastZero  int32 // the largest id of a zero that stays
	lost      bool  // some id has been let go
	first     int32 // the first id let go, which is the smallest
	out       []Entry
}

// visit decides e, the next id up.
func (st *settlement) visit(e Entry) {
	switch {
	case e.Value == 0:
		st.zeroRun([]int32{e.DocID})
	case rankLess(st.h.ranked(e), st.cut):
		st.lose(e.DocID)
	default:
		st.out = append(st.out, e)
	}
}

// lose notes that id goes.
func (st *settlement) lose(id int32) {
	if !st.lost {
		st.lost, st.first = true, id
	}
}

// zeroRun decides a run of zeros, ids ascending and all on one side of
// the bound: while fewer than keepZeros zeros have stayed they stay —
// stored if at or above the bound, or once an id below them has gone —
// and the rest go.
func (st *settlement) zeroRun(run []int32) {
	stay := min(len(run), max(0, st.keepZeros-st.zeros))
	if stay > 0 {
		st.lastZero = run[stay-1]
		if st.lost || run[0] >= st.h.below {
			for _, id := range run[:stay] {
				st.out = append(st.out, Entry{DocID: id})
			}
		}
	}
	if stay < len(run) {
		st.lose(run[stay])
	}
	st.zeros += len(run)
}

// zerosDecided reports whether every zero still to come goes without
// changing anything: an id has gone already, so none is stored, and no
// more zeros stay.
func (st *settlement) zerosDecided() bool { return st.lost && st.zeros >= st.keepZeros }

// rosterPos is heldPrefix(roster, id), found without a search when the
// roster runs consecutively from its first id up to id, as a corpus
// numbered from its first document does until one is removed.
func rosterPos(roster []int32, id int32) int {
	if n := int64(len(roster)); n > 0 {
		if at := int64(id) - int64(roster[0]); 0 <= at && at <= n && (at == 0 || roster[at-1] < id) && (at == n || roster[at] >= id) {
			return int(at)
		}
	}
	return heldPrefix(roster, id)
}

// heldPrefix returns how many ids of ascending roster are below bound.
func heldPrefix(roster []int32, bound int32) int {
	i, _ := slices.BinarySearch(roster, bound)
	return i
}

// appendView appends to dst the entries cell h holds under roster, in
// DocID order: its stored entries merged with a zero for every live id
// below its bound that it does not store. Every stored id below the bound
// is on the roster, so the stored entries past the roster prefix are the
// ones at or above the bound.
func appendView(dst []Entry, h *cellHeap, roster []int32) []Entry {
	es := h.entries
	j := 0
	for _, r := range roster[:heldPrefix(roster, h.below)] {
		if j < len(es) && es[j].DocID == r {
			dst = append(dst, es[j])
			j++
		} else {
			dst = append(dst, Entry{DocID: r})
		}
	}
	return append(dst, es[j:]...)
}

// Delete removes document docID, which must be summarized, from every
// cell (Algorithm 4's deletion: enumerate all cells and drop the
// document) and returns the number of cells that held it. table is the
// document's compact table, read a row at a time, or nil if the caller no
// longer has it. With it, while every cell holds every live id, only the
// cells the table marks non-zero store the document and only they are
// visited; once some cell has let a document go — or for id
// math.MaxInt32, whose zeros are stored — every cell is, but a cell whose
// roster implies the document's zero is not searched, and a full cell
// whose cached floor orders above the document's own entry is skipped
// without touching its slab: an entry a full cell holds orders at or above
// its floor.
func (s *RTKSketch) Delete(docID int, table *sketch.Compact) int {
	id := int32(docID) // summarized, so checkDoc saw it fit
	live, cap, w := len(s.roster), s.params.HeapCap(), s.params.W
	marked := table != nil && s.held == nil && id != noBound
	held := 0
	for i := 0; i < s.params.Z; i++ {
		var row []sketch.RowCell
		if table != nil {
			row = table.AppendRow(s.row[:0], i)
			s.row = row
		}
		if marked {
			for _, rc := range row {
				s.cells[i*w+rc.Col].remove(id)
			}
			held += w
			continue
		}
		for j, k := 0, 0; j < w; j++ {
			c, e := i*w+j, Entry{DocID: id}
			if k < len(row) && row[k].Col == j {
				e.Value, k = int32(row[k].Value), k+1
			}
			if s.cells[c].drop(e, table != nil, s.load(c, live) == cap) {
				s.count(c, -1)
				held++
			}
		}
	}
	s.unenroll(id)
	return held
}

// drop takes e's document out of the cell and reports whether the cell
// held it. known says whether e's value is the document's, full whether
// the cell is at capacity.
func (h *cellHeap) drop(e Entry, known, full bool) bool {
	switch {
	case known && e.Value == 0 && e.DocID < h.below:
		return true // an implied zero: the roster lets it go
	case known && full && !h.beats(e) && e.DocID != h.floorDoc:
		return false // below the floor, which every entry held orders at or above
	}
	return h.remove(e.DocID) || e.DocID < h.below
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
		resp.Cells[a] = row
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
// Most candidates of a shard's reply are zeros, so under abs the scan
// stops a few entries after it has met k of them.
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
// encodings and snapshots) independent of ingestion history, and a cell
// whose roster implies zeros hands out its merged view, those zeros
// included. The slice is the sketch's own storage: it is valid until the
// sketch's next mutation or Cell and must not be modified.
func (s *RTKSketch) Cell(row int, col uint32) []Entry {
	return s.cellView(row*s.params.W + int(col))
}

// cellView is Cell by row-major cell index.
func (s *RTKSketch) cellView(c int) []Entry {
	h := &s.cells[c]
	if s.load(c, len(s.roster)) == len(h.entries) {
		return h.entries // nothing implied
	}
	s.view = appendView(s.view[:0], h, s.roster)
	return s.view
}

// cellLen returns the length of Cell(row, col) without materializing it.
func (s *RTKSketch) cellLen(row int, col uint32) int {
	return s.load(row*s.params.W+int(col), len(s.roster))
}

// answerCell writes Cell(row, col) into a reply's row — ids, and values
// released by rel, cellLen(row, col) of each. The merged view goes
// straight into the row.
func (s *RTKSketch) answerCell(row int, col uint32, ids []int32, vals []float64, rel *rtkRelease) {
	h := &s.cells[row*s.params.W+int(col)]
	es := h.entries
	if len(ids) == len(es) { // nothing implied
		for i, e := range es {
			ids[i], vals[i] = e.DocID, rel.value(e.Value)
		}
		return
	}
	// The roster's ids below the bound go out as zeros, copied with no
	// branch on the content; then the stored entries among them are
	// written over their zeros, and the ones at or above the bound follow.
	below, roster := h.below, s.roster
	n := heldPrefix(roster, below)
	copy(ids, roster[:n])
	zero := rel.value(0)
	for i := range vals[:n] {
		vals[i] = zero
	}
	p, j := 0, 0
	for ; j < len(es) && es[j].DocID < below; j++ {
		e := es[j]
		for roster[p] != e.DocID {
			p++
		}
		vals[p] = rel.value(e.Value)
		p++
	}
	for i, e := range es[j:] {
		ids[n+i], vals[n+i] = e.DocID, rel.value(e.Value)
	}
}

// SizeBytes returns the space metric of Fig. 4: 8 bytes (4 for the doc
// id, 4 for the value) per entry the cells hold, zero entries included.
// It counts what the paper's sketch holds, not what is resident: the
// zeros the roster implies are not stored (see residentBytes).
func (s *RTKSketch) SizeBytes() int64 {
	n := int64(0)
	for c := range s.cells {
		n += int64(8 * s.load(c, len(s.roster)))
	}
	return n
}

// residentBytes returns what the sketch holds in memory: 8 bytes per
// stored entry, 4 per roster id, and 4 per cell count and 4 per floor
// position once they are kept.
func (s *RTKSketch) residentBytes() int64 {
	n := int64(4 * (len(s.roster) + len(s.held) + len(s.floorAt)))
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
		most = max(most, s.load(c, len(s.roster)))
	}
	return most
}
