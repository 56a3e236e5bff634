package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

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
// Entry sits behind: at ingest, at Update and when a snapshot is read.
func fitsDocID(id int64) bool { return math.MinInt32 <= id && id <= math.MaxInt32 }
func fitsValue(v int64) bool  { return -math.MaxInt32 <= v && v <= math.MaxInt32 }

// cellHeap is one capped RTK-Sketch cell: the at most cap entries with
// the largest ranking key seen so far. For Count Sketch the key is
// |Value|: a document's cell value is its (sign-weighted) contribution
// plus collision noise, and the querier recovers the sign later, so
// magnitude is what predicts relevance. For Count-Min the key is Value
// itself (always non-negative).
//
// Eviction follows a strict total order — key ascending, ties broken by
// DocID descending — so the set of entries surviving a sequence of
// capped pushes depends only on the pushed set, never on push order, on
// how the pushes were partitioned across accumulators, or on how the
// slice happened to be laid out when a push arrived. That
// content-addressed determinism is what lets the bulk loader fold
// per-worker stripes independently and merge them afterwards while
// staying bit-identical to a sequential AddDocument loop, and what lets
// a cell live in either of two layouts:
//
//   - canonical: entries ascending by DocID — the order every observable
//     surface (AnswerRTK, snapshots, Cell) emits. Readers bring a cell
//     here in place (canonicalize), at most once per mutation, so
//     back-to-back queries sort nothing and keep no second copy. Two
//     writers may also claim it, because both know the order without
//     looking: an append of an id above every live one (push's above
//     bit) onto an empty or canonical cell, and a removal whose scan saw
//     everything it left behind ascend (remove).
//   - not canonical: a plain append buffer while below capacity, a
//     min-heap under less once full. Only an accepted push on a full
//     cell needs the heap, so only that push pays to (re)build it.
//
// While a cell is full, floorKey/floorDoc cache its eviction minimum in
// both layouts: the overwhelmingly common outcome on a full cell —
// rejection — costs one comparison against fields already in cache and
// never asks which layout the slice is in.
//
// The sift code is hand-rolled rather than container/heap: the interface
// boxing of heap.Push/heap.Pop dominated the bulk-ingest allocation
// profile (two boxed Entry values per cell per document, ~13M allocs per
// 1200-document batch).
type cellHeap struct {
	entries   []Entry
	abs       bool  // order by |Value| (Count Sketch) instead of Value
	canonical bool  // entries are known to ascend by DocID
	floorDoc  int32 // DocID of the eviction minimum, valid while full
	floorKey  int32 // key of the eviction minimum, valid while full
}

func (h *cellHeap) key(e Entry) int32 {
	if h.abs {
		if e.Value < 0 {
			return -e.Value
		}
	}
	return e.Value
}

// less is the strict total eviction order: smaller key first, ties by
// larger DocID first — so when keys tie at the cap boundary the larger
// DocID is evicted and the surviving set stays order-independent.
func (h *cellHeap) less(a, b Entry) bool {
	return rankLess(Entry{DocID: a.DocID, Value: h.key(a)}, Entry{DocID: b.DocID, Value: h.key(b)})
}

// rankLess is less over entries whose Value already is the ranking key.
func rankLess(a, b Entry) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.DocID > b.DocID
}

// push inserts e, keeping at most cap entries: once full, e replaces the
// minimum iff it beats it, which is exactly "push then evict the
// minimum" without ever growing past cap.
//
// Below capacity a push is a plain append — the heap is only needed to
// locate the eviction minimum, so it is built (one heapify, which also
// caches the floor) the moment the cell fills, and under-capacity
// corpora ingest at append speed with zero sift work. above is the
// caller's word that e.DocID exceeds every id in the cell (see
// RTKSketch.updateRows): such an append onto an empty or canonical cell
// leaves it canonical without looking at the previous entry — until the
// append that fills the cell, whose heapify undoes the order. On a full
// cell rejection reads nothing but the cached floor, and only an
// accepted push on a canonical cell pays to rebuild the heap a reader
// sorted away.
func (h *cellHeap) push(e Entry, cap int, above bool) {
	if n := len(h.entries); n < cap {
		h.add(e, above)
		if n+1 == cap {
			h.canonical = false
			h.heapify()
		}
		return
	}
	if cap <= 0 {
		return
	}
	ke := h.key(e)
	if ke < h.floorKey {
		return // below the floor: rejected without touching the slab
	}
	if ke == h.floorKey && e.DocID >= h.floorDoc {
		return // ties on the floor keep the smaller DocID
	}
	if h.canonical {
		h.canonical = false
		h.heapify()
	}
	h.entries[0] = e
	h.siftDown(0)
	h.setFloor(h.entries[0])
}

// add appends e with no capacity to respect: push below capacity, and
// every write to a sparse sketch's non-zero list. An append that above
// vouches for keeps an empty or canonical cell canonical.
func (h *cellHeap) add(e Entry, above bool) {
	h.canonical = above && (h.canonical || len(h.entries) == 0)
	h.entries = append(h.entries, e)
}

// reserve makes room for the n pushes a bulk batch is about to make with
// one allocation instead of append's doublings. It at least doubles, so a
// stream of small batches still grows in amortized constant time, but
// never past heapCap, which is all a cell can hold.
func (h *cellHeap) reserve(n, heapCap int) {
	if want := min(len(h.entries)+n, heapCap); want > cap(h.entries) {
		want = min(max(want, 2*cap(h.entries)), heapCap)
		h.entries = append(make([]Entry, 0, want), h.entries...)
	}
}

func (h *cellHeap) setFloor(e Entry) {
	h.floorKey, h.floorDoc = h.key(e), e.DocID
}

// scanFloor caches the floor of a full cell without re-ordering it: what
// a canonical cell loaded at capacity needs before its first push.
func (h *cellHeap) scanFloor() {
	min := h.entries[0]
	for _, e := range h.entries[1:] {
		if h.less(e, min) {
			min = e
		}
	}
	h.setFloor(min)
}

func (h *cellHeap) siftDown(i int) {
	n := len(h.entries)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(h.entries[r], h.entries[l]) {
			m = r
		}
		if !h.less(h.entries[m], h.entries[i]) {
			return
		}
		h.entries[i], h.entries[m] = h.entries[m], h.entries[i]
		i = m
	}
}

// heapify builds the heap (and the cached floor) over an arbitrarily
// ordered, non-empty entry slice.
func (h *cellHeap) heapify() {
	for i := len(h.entries)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	h.setFloor(h.entries[0])
}

// belowFloor reports whether e orders below the cached floor. Every entry
// a full cell holds orders at or above its floor, so a full cell cannot
// hold an e that does: it was rejected on arrival or evicted since.
func (h *cellHeap) belowFloor(e Entry) bool {
	ke := h.key(e)
	return ke < h.floorKey || ke == h.floorKey && e.DocID > h.floorDoc
}

// remove drops every entry of docID and returns how many there were
// (more than one only in a cell loaded from a corrupt snapshot). Closing
// the gap preserves relative order, so a canonical cell stays canonical;
// a heap loses an entry and with it its capacity, which makes it a valid
// append buffer — neither needs re-ordering here.
//
// A canonical cell is searched, newest ids first, and the gap closed with
// one copy. Any other cell is scanned, and the scan learns on the way
// whether what it leaves behind ascends, so the next removal searches:
// an append buffer usually does, once the entry that arrived out of order
// is the one removed. The learning is arithmetic, not a comparison per
// entry, which would mispredict on every other entry of a heap.
func (h *cellHeap) remove(docID int32) int {
	es := h.entries
	if h.canonical {
		n := searchFromTail(es, docID)
		end := n
		for end < len(es) && es[end].DocID == docID {
			end++
		}
		if end > n {
			h.entries = es[:n+copy(es[n:], es[end:])]
		}
		return end - n
	}
	// ascends keeps its sign bit iff every surviving entry's id is above
	// its predecessor's.
	ascends, prev := int64(-1), int64(math.MinInt32)-1
	n := 0
	for n < len(es) && es[n].DocID != docID {
		ascends &= prev - int64(es[n].DocID)
		prev = int64(es[n].DocID)
		n++
	}
	if n < len(es) {
		for _, e := range es[n+1:] {
			if e.DocID != docID {
				ascends &= prev - int64(e.DocID)
				prev = int64(e.DocID)
				es[n] = e
				n++
			}
		}
		h.entries = es[:n]
	}
	h.canonical = ascends < 0
	return len(es) - n
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

// canonicalize brings the cell to canonical order in place and returns
// the resident entries; callers must not retain or modify them. The set
// of entries — and so the cached floor — is untouched. A cell whose
// appends happened to arrive in ascending id order (the usual ingest
// order, below capacity) is recognised by one scan and not sorted.
func (h *cellHeap) canonicalize(d *docSorter) []Entry {
	if !h.canonical {
		ascends := func(a, b Entry) int { return cmp.Compare(a.DocID, b.DocID) }
		if !slices.IsSortedFunc(h.entries, ascends) {
			d.sort(h.entries)
		}
		h.canonical = true
	}
	return h.entries
}

// docSorter puts entries into the canonical ascending-DocID order,
// keeping its scratch between calls. It sorts one packed word per entry
// (order-preserving id bits above the entry's position) with the
// specialised integer sort and then gathers — about a third of the cost
// of sorting the entries through a comparison callback, which is
// what the first read of a cell after a mutation pays. Equal ids (only a
// corrupt snapshot has them) keep their relative order.
type docSorter struct {
	keys []uint64
	tmp  []Entry
}

func (d *docSorter) sort(es []Entry) {
	d.keys, d.tmp = d.keys[:0], append(d.tmp[:0], es...)
	for i, e := range es {
		d.keys = append(d.keys, uint64(uint32(e.DocID)^(1<<31))<<32|uint64(i))
	}
	slices.Sort(d.keys)
	for i, k := range d.keys {
		es[i] = d.tmp[uint32(k)]
	}
}

// rtkAccum is a per-worker private accumulator used by the bulk loader:
// the same z x w grid of capped cells as the RTK-Sketch, but backed by a
// single fixed-stride Entry slab (cell c owns slab[c*cap : (c+1)*cap])
// so building one costs two allocations regardless of batch size. Each
// worker folds its document stripe into its own accumulator without
// synchronization; a deterministic merge pass folds the survivors into
// the shared sketch afterwards.
type rtkAccum struct {
	cells int
	cap   int
	abs   bool
	lens  []int32
	// per-cell cached eviction floor, valid once the cell is full
	floorKeys []int32
	floorDocs []int32
	slab      []Entry
}

// accumPool recycles accumulator slabs across batches (and owners): at
// default geometry one slab is z*w*heapCap entries, the dominant scratch
// allocation of a bulk load.
var accumPool sync.Pool

// getAccum returns a pooled accumulator resized for the given grid.
func getAccum(cells, cap int, abs bool) *rtkAccum {
	a, _ := accumPool.Get().(*rtkAccum)
	if a == nil {
		a = &rtkAccum{}
	}
	a.cells, a.cap, a.abs = cells, cap, abs
	need := cells * cap
	if len(a.slab) < need {
		a.slab = make([]Entry, need)
	}
	if len(a.lens) < cells {
		a.lens = make([]int32, cells)
		a.floorKeys = make([]int32, cells)
		a.floorDocs = make([]int32, cells)
	} else {
		for i := 0; i < cells; i++ {
			a.lens[i] = 0
		}
	}
	return a
}

// putAccum returns an accumulator to the pool.
func putAccum(a *rtkAccum) {
	if a != nil {
		accumPool.Put(a)
	}
}

// push folds one entry into cell c under the shared eviction order. The
// three-index slice pins capacity to the cell's slab stride, so the
// in-place append in cellHeap.push can never spill into a neighbour.
func (a *rtkAccum) push(c int, e Entry) {
	off := c * a.cap
	v := cellHeap{
		entries:  a.slab[off : off+int(a.lens[c]) : off+a.cap],
		abs:      a.abs,
		floorKey: a.floorKeys[c],
		floorDoc: a.floorDocs[c],
	}
	v.push(e, a.cap, false)
	a.lens[c] = int32(len(v.entries))
	a.floorKeys[c], a.floorDocs[c] = v.floorKey, v.floorDoc
}

// addTable folds one document's sketch table into every cell. The
// document passed checkDoc, so its id and every cell fit an Entry.
func (a *rtkAccum) addTable(docID int, table *sketch.Table, z, w int) {
	id := int32(docID)
	for i := 0; i < z; i++ {
		for j := 0; j < w; j++ {
			a.push(i*w+j, Entry{DocID: id, Value: int32(table.Cell(i, uint32(j)))})
		}
	}
}

// RTKSketch is the paper's reverse top-K sketch (Section V-B): a z x w
// table whose every cell is a min-heap of at most alpha*K (docID, value)
// pairs. It replaces the n per-document sketches of the NAIVE solution on
// the owner side and reduces per-term query cost from O(zn) to O(z*alpha*K).
//
// A sketch lives in one of two forms. It is born sparse: until a push
// would evict, every cell holds every live document — Algorithm 4 gives
// each cell each document until the cell has alpha*K of them — so a cell
// is the roster plus its values, and it stores only the entries whose
// value is not zero, beside one ascending roster of the live ids. Every
// observable surface (Cell, AnswerRTK, snapshots, MaxCellLoad) emits the
// materialized view: the roster, with the cell's value where it stores
// one and zero elsewhere — what an explicit cell would hold, entry for
// entry. The first push or batch that would take the roster past alpha*K
// materializes every cell and the sketch is explicit from then on: once
// an eviction has happened and documents leave again, a cell no longer
// holds the whole roster, and only the explicit form says which entries
// it lost.
//
// RTKSketch is not safe for concurrent mutation.
type RTKSketch struct {
	params Params
	fam    *hashutil.Family
	cells  []cellHeap // row-major z x w; a sparse sketch's cells hold their non-zero entries
	docs   int
	// liveMax is at least the largest id summarized (math.MinInt before
	// the first): what lets an ingest vouch for an ascending append
	// without looking into any cell. Delete on an explicit sketch leaves it
	// stale-high — safe, only less often useful — until the keeper of the
	// roster resets it; a sparse sketch keeps the roster and reads it off.
	liveMax int
	sorter  docSorter // Cell's scratch
	sparse  bool
	roster  []int32 // the live ids, ascending, while sparse
	view    []Entry // Cell's materialized view, while sparse
	marks   []int   // the cells a removed document's table marks
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
		cells[i].abs, cells[i].canonical = abs, true
	}
	return &RTKSketch{params: params, fam: fam, cells: cells, liveMax: math.MinInt, sparse: true}, nil
}

// Params returns the sketch's parameters.
func (s *RTKSketch) Params() Params { return s.params }

// NumDocs returns the number of documents currently summarized.
func (s *RTKSketch) NumDocs() int { return s.docs }

// Update inserts document docID, summarized by its standard sketch table,
// into every cell (Algorithm 4). table must be built over the same hash
// family. Cells keep only the alpha*K entries with the largest ranking
// key; the minimum is evicted on overflow. An id or a cell that an Entry
// cannot hold is ErrBadParams, and nothing is inserted.
func (s *RTKSketch) Update(docID int, table *sketch.Table) error {
	if table == nil || table.Z() != s.params.Z || table.W() != s.params.W {
		return fmt.Errorf("%w: document table geometry mismatch", ErrBadParams)
	}
	if !fitsDocID(int64(docID)) {
		return fmt.Errorf("%w: document id %d does not fit int32", ErrBadParams, docID)
	}
	for i := 0; i < s.params.Z; i++ {
		for j := 0; j < s.params.W; j++ {
			if !fitsValue(table.Cell(i, uint32(j))) {
				return fmt.Errorf("%w: document %d has a cell beyond int32", ErrBadParams, docID)
			}
		}
	}
	s.updateRows(docID, table)
	s.docs++
	return nil
}

// admit records docID as live and reports whether it exceeds every id
// that already was.
func (s *RTKSketch) admit(docID int) bool {
	above := docID > s.liveMax
	if above {
		s.liveMax = docID
	}
	return above
}

// resetLiveMax recomputes liveMax from the authoritative roster of live
// ids; worth doing when the largest one has just been deleted.
func (s *RTKSketch) resetLiveMax(ids []int) {
	s.liveMax = math.MinInt
	for _, id := range ids {
		s.admit(id)
	}
}

// updateRows pushes one document into every cell. Because eviction is a
// strict total order, the surviving set per cell is a pure function of
// the pushed set — any partition of the pushes over workers or
// accumulators converges to the same state. Whether the id exceeds every
// live one is decided here, once per document, and handed to all z*w
// pushes as one bit: that is what lets a cell stay canonical under
// ascending ingest without a load of its previous entry per push. Callers
// have range-checked the id and the table (Update, checkDoc).
//
// A sparse sketch takes the document onto its roster and appends only the
// table's non-zero cells, under the same bit; the push that would take the
// roster past alpha*K first makes the sketch explicit (expect).
func (s *RTKSketch) updateRows(docID int, table *sketch.Table) {
	s.expect(1)
	above := s.admit(docID)
	cap := s.params.HeapCap()
	w := s.params.W
	id := int32(docID)
	if s.sparse {
		s.enroll(id, above)
		for i := 0; i < s.params.Z; i++ {
			for j := 0; j < w; j++ {
				if v := table.Cell(i, uint32(j)); v != 0 {
					s.cells[i*w+j].add(Entry{DocID: id, Value: int32(v)}, above)
				}
			}
		}
		return
	}
	for i := 0; i < s.params.Z; i++ {
		for j := 0; j < w; j++ {
			s.cells[i*w+j].push(Entry{DocID: id, Value: int32(table.Cell(i, uint32(j)))}, cap, above)
		}
	}
}

// expect readies the sketch for n more documents: a sparse sketch they
// would take past alpha*K is made explicit first, every cell materialized
// with room for alpha*K entries. An empty sketch has nothing to
// materialize, so a bulk load past alpha*K starts out explicit at no cost.
func (s *RTKSketch) expect(n int) {
	if s.sparse && len(s.roster)+n > s.params.HeapCap() {
		s.makeExplicit(len(s.cells), s.params.HeapCap())
	}
}

// makeExplicit turns a sparse sketch explicit: cells [0, upto) trade
// their non-zero list for the cell's view, in canonical order, with room
// for room entries, and a full one gets its floor. Every caller but a
// snapshot load passes all the cells; ReadOwner passes those it has read.
func (s *RTKSketch) makeExplicit(upto, room int) {
	if len(s.roster) > 0 {
		for c := range s.cells[:upto] {
			h := &s.cells[c]
			es := make([]Entry, len(s.roster), max(room, len(s.roster)))
			s.spread(h.canonicalize(&s.sorter), es)
			h.entries, h.canonical = es, true
			if len(es) == s.params.HeapCap() {
				h.scanFloor()
			}
		}
	}
	s.sparse, s.roster, s.view = false, nil, nil
}

// spread writes the view of a sparse cell whose canonical non-zero
// entries are nz into dst, one entry per roster id: the cell's value
// where it stores one, zero elsewhere.
func (s *RTKSketch) spread(nz, dst []Entry) {
	j := 0
	for i, id := range s.roster {
		v := int32(0)
		if j < len(nz) && nz[j].DocID == id {
			v = nz[j].Value
			j++
		}
		dst[i] = Entry{DocID: id, Value: v}
	}
}

// enroll puts id on a sparse sketch's roster; above is admit's word that
// it goes at the end.
func (s *RTKSketch) enroll(id int32, above bool) {
	i := len(s.roster)
	if !above {
		i, _ = slices.BinarySearch(s.roster, id)
	}
	s.roster = slices.Insert(s.roster, i, id)
}

// unenroll ends a removal from a sparse sketch whose lists no longer hold
// id: it takes id off the roster, and so out of every cell's view, sets
// liveMax to the largest id left, which the roster knows, and returns
// how many cells' views held it — every cell, or none.
func (s *RTKSketch) unenroll(id int32) int {
	s.docs--
	held := 0
	if i, on := slices.BinarySearch(s.roster, id); on {
		s.roster = slices.Delete(s.roster, i, i+1)
		held = len(s.cells)
	}
	s.liveMax = math.MinInt
	if n := len(s.roster); n > 0 {
		s.liveMax = int(s.roster[n-1])
	}
	return held
}

// mergeAccumRows folds rows [lo, hi) of every per-worker accumulator
// into the sketch — the bulk loader's single deterministic merge pass.
// Correctness of the stripe/merge split: an entry in the global top-cap
// of a cell is necessarily in the top-cap of its own stripe (fewer
// competitors), so merging stripe survivors under the same total order
// reproduces exactly the set sequential pushes would keep. Row ranges
// partition the cell array, so concurrent calls over disjoint ranges
// never touch the same heap — which is also why the pushes vouch for no
// order here: liveMax is shared, and addDocs raises it afterwards.
func (s *RTKSketch) mergeAccumRows(accums []*rtkAccum, lo, hi int) {
	cap := s.params.HeapCap()
	w := s.params.W
	for i := lo; i < hi; i++ {
		for j := 0; j < w; j++ {
			c := i*w + j
			h := &s.cells[c]
			n := 0
			for _, acc := range accums {
				n += int(acc.lens[c])
			}
			h.reserve(n, cap)
			for _, acc := range accums {
				off := c * acc.cap
				for _, e := range acc.slab[off : off+int(acc.lens[c])] {
					h.push(e, cap, false)
				}
			}
		}
	}
}

// addDocs counts a bulk-loaded batch as summarized and live.
func (s *RTKSketch) addDocs(docs []DocCounts) {
	s.docs += len(docs)
	for _, d := range docs {
		s.admit(d.DocID)
	}
}

// Delete removes document docID, which must be summarized, from every
// cell (Algorithm 4's deletion: enumerate all cells and drop the
// document) and returns the number of cells that still held it. table is
// the table the document was inserted with, or nil if the caller no
// longer has it. With it, the enumeration is restricted to the cells that
// can contain the document: an entry present in a full cell orders at or
// above the cell's floor, so a full cell whose cached floor orders above
// the document's own entry is skipped without touching its slab. The
// argument needs the floor, so it holds only while the cell is full.
//
// A sparse sketch takes the document off its roster — which removes it
// from every cell's view — and off the non-zero list of every cell, which
// is short: it has no floor to skip by, and the owner, which keeps the
// table compact, removes through the cells it marks instead
// (deleteMarked).
func (s *RTKSketch) Delete(docID int, table *sketch.Table) int {
	id := int32(docID) // summarized, so Update or checkDoc saw it fit
	if s.sparse {
		for c := range s.cells {
			s.cells[c].remove(id)
		}
		return s.unenroll(id)
	}
	if table != nil && (table.Z() != s.params.Z || table.W() != s.params.W) {
		table = nil
	}
	removed := 0
	cap := s.params.HeapCap()
	w := s.params.W
	for i := 0; i < s.params.Z; i++ {
		for j := 0; j < w; j++ {
			h := &s.cells[i*w+j]
			if table != nil && len(h.entries) == cap &&
				h.belowFloor(Entry{DocID: id, Value: int32(table.Cell(i, uint32(j)))}) {
				continue
			}
			removed += h.remove(id)
		}
	}
	s.docs--
	return removed
}

// deleteMarked is Delete on a sparse sketch by a caller that kept the
// document's table compact: the only lists that can hold the document are
// those of the cells the table marks non-zero, read without expanding it.
func (s *RTKSketch) deleteMarked(docID int, table sketch.Compact) int {
	id := int32(docID)
	s.marks = table.AppendNonZero(s.marks[:0])
	for _, c := range s.marks {
		s.cells[c].remove(id)
	}
	return s.unenroll(id)
}

// AbsEvictionKeys reports whether cell eviction ranks entries by
// |Value| (Count Sketch) rather than Value (Count-Min) — the abs flag
// of cellHeap, exposed so partition-merging callers (internal/shard)
// can reproduce the eviction order exactly.
func (p Params) AbsEvictionKeys() bool { return p.SketchKind == sketch.Count }

// MergeRTKResponses merges per-partition answers to one query into the
// answer a single sketch over the union of the partitions' documents
// would give, adding noise to every released value. Parts are raw
// (noise-free, so every value is an exact integer) Owner answers over
// disjoint document sets, read and left as they are; like them, the
// result belongs to the caller and carries its encoded length (rtkSizer,
// fed from the merge loop).
//
// Correctness mirrors mergeAccumRows: eviction is a strict total order
// (key descending, key-ties keep the smaller DocID), so an entry in the
// global top-cap is necessarily in the top-cap of its own partition —
// the top-cap of the combined survivors under the same order is the
// single-sketch cell bit for bit. The parts arrive ascending by DocID, so
// every row is one k-way merge by DocID. A row whose survivors overflow
// the cap first finds its cut, the smallest entry that stays: the entry
// of rank n-heapCap among the n candidates, unique because the order is
// strict — by one pass over the rows that keeps the few smallest
// (cutSmall) when the overflow is small, as it is when shards just under
// the cap meet, and by gathering the candidates and selecting (selectRank)
// otherwise. The merge then drops what orders below the cut,
// so exactly heapCap entries come out, already in canonical order, and
// nothing is ever sorted. abs must be Params.AbsEvictionKeys() of the
// sketches being merged; heapCap is Params.HeapCap().
//
//csfltr:deterministic
func MergeRTKResponses(parts []*RTKResponse, heapCap int, abs bool, noise float64) *RTKResponse {
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
	ranked := sc.ranked
	if longest-heapCap > smallOverflow {
		ranked = slices.Grow(ranked[:0], longest)
	}
	var sz rtkSizer
	for a := 0; a < z; a++ {
		n := 0
		for pi, p := range parts {
			heads[pi] = p.Cells[a]
			n += len(heads[pi].IDs)
		}
		keep := min(n, heapCap)
		cut := Entry{DocID: math.MaxInt32, Value: math.MinInt32} // nothing orders below it
		switch {
		case n <= heapCap:
		case n-heapCap <= smallOverflow:
			cut = order.cutSmall(heads, n-heapCap)
		default:
			ranked = order.gather(heads, ranked[:0])
			cut = selectRank(ranked, n-heapCap)
		}
		for out := 0; out < keep; {
			// The part with the smallest head gives up its run: every id
			// below the smallest head among the others. Shards own ranges
			// of ids, so runs are long.
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
			run := &heads[best]
			i := 0
			for {
				id, v := run.IDs[i], run.Values[i]
				if !rankLess(order.rank(id, v), cut) {
					sz.note(int64(v))
					ids[out], vals[out] = id, v+noise
					out++
				}
				if i++; i == len(run.IDs) || int64(run.IDs[i]) >= limit || out == keep {
					break
				}
			}
			run.IDs, run.Values = run.IDs[i:], run.Values[i:]
		}
		resp.Cells[a] = RTKCell{IDs: ids[:keep:keep], Values: vals[:keep:keep]}
		sz.cell(ids[:keep])
		ids, vals = ids[keep:], vals[keep:]
	}
	sz.finish(resp, noise)
	clear(heads) // the scratch must not outlive the parts' rows
	sc.heads, sc.ranked = heads, ranked
	mergeScratchPool.Put(sc)
	return resp
}

// mergeScratch is the working memory of one MergeRTKResponses, pooled as
// rtkScratch is for recovery: what the merge has yet to take of each
// part's row, and the gathered candidates of a row that overflows the
// cap. The candidates are Entries, which a reply's slabs cannot hold
// without a slower selection, so this does not come from NewRTKResponse.
type mergeScratch struct {
	heads  []RTKCell
	ranked []Entry
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

// smallOverflow is the largest overflow of a merged row that cutSmall
// cuts; beyond it a merge gathers and selects.
const smallOverflow = 16

// cutSmall returns the entry of rank k (0-based, at most smallOverflow)
// under rankLess among the ranked entries of the rows, which hold more
// than k — what selectRank finds in them gathered — in one pass that
// keeps the k+1 smallest seen, in order, on the stack. Most entries cost
// one comparison with the largest of those and are passed over.
func (h *cellHeap) cutSmall(rows []RTKCell, k int) Entry {
	var least [smallOverflow + 1]Entry
	n := 0
	for _, c := range rows {
		for i, id := range c.IDs {
			e := h.rank(id, c.Values[i])
			if n > k {
				if !rankLess(e, least[k]) {
					continue
				}
				n-- // the largest kept leaves to make room
			}
			j := n
			for ; j > 0 && rankLess(e, least[j-1]); j-- {
				least[j] = least[j-1]
			}
			least[j] = e
			n++
		}
	}
	return least[k]
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

// Cell returns the entries of cell (row, col) in canonical
// ascending-DocID order, bringing the cell there in place first if a
// mutation since the last read left it otherwise. This is the owner-side
// lookup of Algorithm 5: the querier asks for the heaps its term hashes
// to. The canonical order makes responses (and therefore wire encodings
// and snapshots) independent of the resident layout, which depends on
// ingestion history, and a sparse sketch hands out the materialized view,
// zero entries included. The slice is the sketch's own storage: it is
// valid until the next Update, Delete or Cell and must not be modified.
func (s *RTKSketch) Cell(row int, col uint32) []Entry {
	return s.cellView(row*s.params.W + int(col))
}

// cellView is Cell by row-major cell index.
func (s *RTKSketch) cellView(c int) []Entry {
	nz := s.cells[c].canonicalize(&s.sorter)
	if !s.sparse {
		return nz
	}
	s.view = slices.Grow(s.view[:0], len(s.roster))[:len(s.roster)]
	s.spread(nz, s.view)
	return s.view
}

// cellLen returns the length of Cell(row, col) without materializing it.
func (s *RTKSketch) cellLen(row int, col uint32) int {
	if s.sparse {
		return len(s.roster)
	}
	return len(s.cells[row*s.params.W+int(col)].entries)
}

// answerCell writes Cell(row, col) into a reply's row — ids, and values
// plus noise, cellLen(row, col) of each — noting every value with sz. A
// sparse cell's view is merged straight into the row.
func (s *RTKSketch) answerCell(row int, col uint32, ids []int32, vals []float64, noise float64, sz *rtkSizer) {
	nz := s.cells[row*s.params.W+int(col)].canonicalize(&s.sorter)
	if !s.sparse {
		for i, e := range nz {
			ids[i] = e.DocID
			vals[i] = float64(e.Value) + noise
			sz.note(int64(e.Value))
		}
		return
	}
	if len(nz) < len(s.roster) {
		sz.note(0)
	}
	j := 0
	for i, id := range s.roster {
		v := int32(0)
		if j < len(nz) && nz[j].DocID == id {
			v = nz[j].Value
			sz.note(int64(v))
			j++
		}
		ids[i], vals[i] = id, float64(v)+noise
	}
}

// SizeBytes returns the space metric of Fig. 4: 8 bytes (4 for the doc
// id, 4 for the value) per entry the cells hold, zero entries included.
// It counts what the paper's sketch holds, not what is resident: a
// sparse sketch keeps only the non-zero entries (see residentBytes).
func (s *RTKSketch) SizeBytes() int64 {
	if s.sparse {
		return int64(8 * len(s.roster) * len(s.cells))
	}
	return s.residentBytes()
}

// residentBytes returns what the sketch holds in memory: 8 bytes per
// stored entry, and 4 per roster id while sparse.
func (s *RTKSketch) residentBytes() int64 {
	n := int64(4 * len(s.roster))
	for c := range s.cells {
		n += int64(8 * len(s.cells[c].entries))
	}
	return n
}

// MaxCellLoad returns the largest cell occupancy; useful for verifying
// the alpha*K cap in tests and capacity planning.
func (s *RTKSketch) MaxCellLoad() int {
	if s.sparse {
		return len(s.roster)
	}
	max := 0
	for c := range s.cells {
		if l := len(s.cells[c].entries); l > max {
			max = l
		}
	}
	return max
}
