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
// Entry sits behind: at ingest (checkDoc) and when a snapshot is read.
func fitsDocID(id int64) bool { return math.MinInt32 <= id && id <= math.MaxInt32 }
func fitsValue(v int64) bool  { return -math.MaxInt32 <= v && v <= math.MaxInt32 }

// cellHeap is one capped RTK-Sketch cell: the at most cap entries with
// the largest ranking key seen so far. For Count Sketch the key is
// |Value|: a document's cell value is its (sign-weighted) contribution
// plus collision noise, and the querier recovers the sign later, so
// magnitude is what predicts relevance. For Count-Min the key is Value
// itself (non-negative unless a document's counts are not).
//
// Eviction follows a strict total order — key ascending, ties broken by
// DocID descending — so the set of entries surviving a sequence of
// capped pushes depends only on the pushed set, never on push order or
// on how the slice happened to be laid out when a push arrived. That
// content-addressed determinism is what lets a sharded party merge its
// shards' cells into the single sketch's (MergeRTKResponses), and what
// lets a cell live in either of two layouts:
//
//   - canonical: entries ascending by DocID — the order every observable
//     surface (AnswerRTK, snapshots, Cell) emits. Readers bring a cell
//     here in place (canonicalize), at most once per mutation, so
//     back-to-back queries sort nothing and keep no second copy. Two
//     writers may also claim it, because both know the order without
//     looking: an append of an id above every live one (the above bit
//     of RTKSketch.push) onto an empty or canonical cell, and a removal
//     whose scan saw everything it left behind ascend (remove).
//   - not canonical: a plain append buffer while below capacity, a
//     min-heap under less once full. Only an accepted push on a full
//     cell needs the heap, so only that push pays to (re)build it.
//
// While a cell is full, floorKey/floorDoc cache its eviction minimum in
// both layouts: the overwhelmingly common outcome on a full cell —
// rejection — costs one comparison against fields already in cache and
// never asks which layout the slice is in.
//
// In an RTKSketch a cell also has a held-prefix bound: it holds every
// live id below it, and stores only its non-zero entries and the zeros at
// or above the bound — the zeros below it are implied by the sketch's
// roster of live ids (see RTKSketch). A cell on its own, as cellHeap's
// own tests drive it, stores everything it holds.
//
// The sift code is hand-rolled rather than container/heap: the interface
// boxing of heap.Push/heap.Pop dominated the ingest allocation
// profile (two boxed Entry values per cell per document, ~13M allocs per
// 1200-document batch).
type cellHeap struct {
	entries   []Entry
	abs       bool  // order by |Value| (Count Sketch) instead of Value
	canonical bool  // entries are known to ascend by DocID
	floorDoc  int32 // DocID of the eviction minimum, valid while full
	floorKey  int32 // key of the eviction minimum, valid while full
	below     int32 // the held-prefix bound: every live id below it is held
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

// add appends e with no capacity to respect: every entry an RTKSketch
// cell comes to store. An append that above vouches for keeps an empty
// or canonical cell canonical.
func (h *cellHeap) add(e Entry, above bool) {
	h.canonical = above && (h.canonical || len(h.entries) == 0)
	h.entries = append(h.entries, e)
}

func (h *cellHeap) setFloor(e Entry) {
	h.floorKey, h.floorDoc = h.key(e), e.DocID
}

// beats reports whether e orders above the cached floor of a full cell,
// which is whether a push of e is accepted: ties on the key keep the
// smaller DocID.
func (h *cellHeap) beats(e Entry) bool {
	ke := h.key(e)
	return ke > h.floorKey || ke == h.floorKey && e.DocID < h.floorDoc
}

// storable reports whether an RTKSketch cell stores e once it holds it:
// a zero below the bound is implied by the roster instead.
func (h *cellHeap) storable(e Entry) bool {
	return e.Value != 0 || e.DocID >= h.below
}

// keep makes the cell hold es, ascending, under its bound: it stores what
// the roster does not imply, in exactly the memory that takes.
func (h *cellHeap) keep(es []Entry) {
	n := 0
	for _, e := range es {
		if h.storable(e) {
			n++
		}
	}
	h.entries, h.canonical = make([]Entry, 0, n), true
	for _, e := range es {
		if h.storable(e) {
			h.entries = append(h.entries, e)
		}
	}
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

// RTKSketch is the paper's reverse top-K sketch (Section V-B): a z x w
// table whose every cell is a min-heap of at most alpha*K (docID, value)
// pairs. It replaces the n per-document sketches of the NAIVE solution on
// the owner side and reduces per-term query cost from O(zn) to O(z*alpha*K).
//
// Most of what the cells hold is zeros — a document leaves a non-zero
// value in a few of a row's w cells — and a zero carries nothing the
// roster of live ids does not. So the sketch keeps that roster, ascending,
// and every cell a held-prefix bound: the cell holds every live id below
// its bound, and stores only its non-zero entries and the zeros at or
// above the bound. A cell that has never let a document go holds every
// live id (noBound) and stores its non-zero entries alone; the rejection
// or eviction of an id below the bound lowers the bound to it (lower).
// Every observable surface (Cell, AnswerRTK, snapshots, MaxCellLoad)
// emits the merged view — the stored entries plus a zero for every live
// id below the bound that the cell does not store — which is, entry for
// entry, Algorithm 4's cell.
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
	held   []int32
	sorter docSorter // scratch of Cell and of the pushes that need a cell in order
	view   []Entry   // Cell's merged view
	marks  []int     // the cells a removed document's table marks
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
		cells[i].abs, cells[i].canonical, cells[i].below = abs, true, noBound
	}
	return &RTKSketch{params: params, fam: fam, cells: cells}, nil
}

// Params returns the sketch's parameters.
func (s *RTKSketch) Params() Params { return s.params }

// NumDocs returns the number of documents currently summarized.
func (s *RTKSketch) NumDocs() int { return s.docs }

// insert is Algorithm 4's insertion: it enrolls document docID,
// summarized by its standard sketch table over the sketch's hash family,
// and offers it to every cell, each of which keeps the alpha*K entries with
// the largest ranking key. Whether the id exceeds every live one is
// decided here, once per document, and handed to all z*w pushes as one
// bit: that is what lets a cell stay canonical under ascending ingest
// without a load of its previous entry per push. While every cell holds
// every live id and this document fills none, its zeros are implied
// everywhere and only its non-zero cells are visited. The caller has
// checked the document (checkDoc), so its id and every cell fit an Entry.
func (s *RTKSketch) insert(docID int, table *sketch.Table) {
	id := int32(docID)
	above := s.enroll(id)
	live, cap, w := len(s.roster)-1, s.params.HeapCap(), s.params.W
	quiet := s.held == nil && live+1 < cap && id < noBound
	for i := 0; i < s.params.Z; i++ {
		for j := 0; j < w; j++ {
			e := Entry{DocID: id, Value: int32(table.Cell(i, uint32(j)))}
			switch {
			case !quiet:
				s.push(i*w+j, e, cap, above, live)
			case e.Value != 0:
				s.cells[i*w+j].add(e, above) // what push does here
			}
		}
	}
}

// enroll puts id on the roster and reports whether it went at the end,
// above every live id, which is what lets an append keep a cell canonical.
func (s *RTKSketch) enroll(id int32) bool {
	s.docs++
	i := len(s.roster)
	above := i == 0 || id > s.roster[i-1]
	if !above {
		i, _ = slices.BinarySearch(s.roster, id)
	}
	s.roster = slices.Insert(s.roster, i, id)
	return above
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

// setHeld starts a count for cell c, which holds n entries and has let a
// document go.
func (s *RTKSketch) setHeld(c, n int) {
	s.counting()
	s.held[c] = int32(n)
}

// counting makes room for the cells' counts, none kept yet.
func (s *RTKSketch) counting() {
	if s.held == nil {
		s.held = make([]int32, len(s.cells))
		for c := range s.held {
			s.held[c] = -1
		}
	}
}

// push offers e, a document already on the roster, to cell c — Algorithm
// 4's step: below capacity the cell takes it, a full cell takes it iff it
// beats the floor and evicts the floor to make room. live is how many
// documents the sketch summarized before.
func (s *RTKSketch) push(c int, e Entry, cap int, above bool, live int) {
	h := &s.cells[c]
	n := s.load(c, live)
	if n < cap {
		if h.storable(e) {
			h.add(e, above)
		}
		s.count(c, 1)
		if n+1 == cap {
			h.refloor(s.roster, &s.sorter)
		}
		return
	}
	if cap <= 0 {
		return
	}
	if !h.beats(e) {
		if e.DocID <= h.below {
			s.lower(c, e, cap)
		}
		return
	}
	s.evict(c, e, cap, above)
}

// lower takes d, which is leaving full cell c — rejected or evicted — and
// is not above its bound, out of what the roster implies there: the cell
// starts counting what it holds, if it had not, and a d below the bound
// drops the bound to d. No other implied zero is lost when d's key is not
// negative: an implied zero above d orders below d, so d leaving means it
// was not held. A negative key (Count-Min over negative counts) orders
// below every zero, so the implied zeros between d and the bound are
// stored first, which leaves the cell canonical; lower reports whether it
// came to that.
func (s *RTKSketch) lower(c int, d Entry, cap int) bool {
	if s.held == nil || s.held[c] < 0 {
		s.setHeld(c, cap)
	}
	h := &s.cells[c]
	if d.DocID == h.below {
		// Stored, so nothing implied goes with it: math.MaxInt32 leaving a
		// cell under no bound.
		return false
	}
	negative := h.key(d) < 0
	if negative {
		s.materialize(h, d.DocID)
	}
	h.below = d.DocID
	return negative
}

// materialize stores a zero for every live id above id and below h's
// bound that h does not store, leaving h canonical.
func (s *RTKSketch) materialize(h *cellHeap, id int32) {
	es := h.canonicalize(&s.sorter)
	n := len(es)
	lo, on := slices.BinarySearch(s.roster, id)
	if on {
		lo++
	}
	j := 0
	for _, r := range s.roster[lo:heldPrefix(s.roster, h.below)] {
		for j < n && es[j].DocID < r {
			j++
		}
		if j == n || es[j].DocID != r {
			es = append(es, Entry{DocID: r})
		}
	}
	if len(es) > n {
		s.sorter.sort(es)
		h.entries = es
	}
}

// evict makes room in full cell c for e, which beats its floor: the floor
// leaves — the largest implied zero by a lowered bound, a stored entry off
// the heap — e comes in, stored unless the roster implies it, and the
// floor is found again.
func (s *RTKSketch) evict(c int, e Entry, cap int, above bool) {
	h := &s.cells[c]
	if h.floorKey == 0 && h.floorDoc < h.below {
		// The floor is the largest implied zero. Nothing stored orders
		// below it, so every stored key is positive, the cell needs no heap
		// and the next floor is the next implied zero — or, when there is
		// none, the stored minimum. A zero that beats the floor has a
		// smaller id: it stays under the lowered bound, implied.
		s.lower(c, Entry{DocID: h.floorDoc}, cap)
		if e.Value != 0 {
			h.add(e, above)
		}
		if z, ok := h.largestImplied(s.roster, &s.sorter); ok {
			h.floorKey, h.floorDoc = 0, z
		} else {
			h.canonical = false
			h.heapify()
		}
		return
	}
	if h.canonical {
		h.canonical = false
		h.heapify()
	}
	f := h.entries[0]
	if f.DocID <= h.below && s.lower(c, f, cap) {
		// The cell was sorted to store zeros: no heap to replace f in. e
		// was already on the roster, so one of them may be its own.
		h.remove(f.DocID)
		h.remove(e.DocID)
		if h.storable(e) {
			h.add(e, false)
		}
		h.refloor(s.roster, &s.sorter)
		return
	}
	if h.storable(e) {
		h.entries[0] = e
	} else {
		last := len(h.entries) - 1
		h.entries[0] = h.entries[last]
		h.entries = h.entries[:last]
	}
	if len(h.entries) > 0 {
		h.siftDown(0)
		// The stored minimum is the floor unless an implied zero orders
		// below it: a minimum whose key is not positive orders below every
		// implied zero, and a positive floor leaving means no zero was held.
		if r := h.entries[0]; h.key(r) <= 0 || h.key(f) > 0 {
			h.setFloor(r)
			return
		}
	}
	h.refloor(s.roster, &s.sorter)
}

// refloor finds the floor of a full cell from scratch, under roster: the
// stored minimum or the largest implied zero, whichever orders lower. It
// leaves the cell canonical; evict builds the heap when a stored floor is
// the one to go.
func (h *cellHeap) refloor(roster []int32, sorter *docSorter) {
	z, implied := h.largestImplied(roster, sorter)
	if es := h.entries; len(es) > 0 {
		m := es[0]
		for _, e := range es[1:] {
			if h.less(e, m) {
				m = e
			}
		}
		if !implied || h.less(m, Entry{DocID: z}) {
			h.setFloor(m)
			return
		}
	}
	h.floorKey, h.floorDoc = 0, z
}

// largestImplied returns the largest id of roster below the bound that the
// cell does not store — of the zeros the roster implies there, the one
// that orders lowest — leaving the cell canonical. It steps down the
// roster and gallops down the stored entries beside it, so the stored tail
// above the bound and the stored ids it steps over cost a search each, not
// a scan.
func (h *cellHeap) largestImplied(roster []int32, sorter *docSorter) (int32, bool) {
	es := h.canonicalize(sorter)
	j := len(es)
	for i := heldPrefix(roster, h.below); i > 0; i-- {
		r := roster[i-1]
		k := searchFromTail(es[:j], r)
		if k == j || es[k].DocID != r {
			return r, true
		}
		j = k
	}
	return 0, false
}

// heldPrefix returns how many ids of ascending roster are below bound.
func heldPrefix(roster []int32, bound int32) int {
	i, _ := slices.BinarySearch(roster, bound)
	return i
}

// appendView appends to dst the entries cell h holds under roster, in
// canonical order: its stored entries merged with a zero for every live id
// below its bound that it does not store. Every stored id below the bound
// is on the roster, so the stored entries past the roster prefix are the
// ones at or above the bound.
func appendView(dst []Entry, h *cellHeap, roster []int32, sorter *docSorter) []Entry {
	es := h.canonicalize(sorter)
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
// table the document was inserted with, or nil if the caller no longer
// has it. With it, a cell whose roster implies the document's zero there
// is not searched at all, and a full cell whose cached floor orders above
// the document's own entry is skipped without touching its slab: an entry
// a full cell holds orders at or above its floor. The argument needs the
// floor, so it holds only while the cell is full.
func (s *RTKSketch) Delete(docID int, table *sketch.Table) int {
	id := int32(docID) // summarized, so checkDoc saw it fit
	if table != nil && (table.Z() != s.params.Z || table.W() != s.params.W) {
		table = nil
	}
	live, cap, w := len(s.roster), s.params.HeapCap(), s.params.W
	held := 0
	for i := 0; i < s.params.Z; i++ {
		for j := 0; j < w; j++ {
			c := i*w + j
			e := Entry{DocID: id}
			if table != nil {
				e.Value = int32(table.Cell(i, uint32(j)))
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
	case known && full && h.belowFloor(e):
		return false
	}
	return h.remove(e.DocID) > 0 || e.DocID < h.below
}

// deleteMarked is Delete by a caller that keeps the document's table
// compact, while every cell holds every live id: then the document's zeros
// are all implied, only the cells its table marks non-zero store it, and
// those are all it visits, reading the marks without expanding the table.
// Once some cell's bound is lowered the cells need the values — as they
// do for id math.MaxInt32, whose zeros are stored — and it reports false,
// having done nothing.
func (s *RTKSketch) deleteMarked(docID int, table sketch.Compact) bool {
	id := int32(docID)
	if s.held != nil || id == noBound {
		return false
	}
	s.marks = table.AppendNonZero(s.marks[:0])
	for _, c := range s.marks {
		s.cells[c].remove(id)
	}
	s.unenroll(id)
	return true
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
// Correctness: eviction is a strict total order (key descending,
// key-ties keep the smaller DocID), so an entry in the global top-cap is
// necessarily in the top-cap of its own partition —
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
// ingestion history, and a cell whose roster implies zeros hands out its
// merged view, those zeros included. The slice is the sketch's own
// storage: it is valid until the sketch's next mutation or Cell and
// must not be modified.
func (s *RTKSketch) Cell(row int, col uint32) []Entry {
	return s.cellView(row*s.params.W + int(col))
}

// cellView is Cell by row-major cell index.
func (s *RTKSketch) cellView(c int) []Entry {
	h := &s.cells[c]
	es := h.canonicalize(&s.sorter)
	if s.load(c, len(s.roster)) == len(es) {
		return es // nothing implied
	}
	s.view = appendView(s.view[:0], h, s.roster, &s.sorter)
	return s.view
}

// cellLen returns the length of Cell(row, col) without materializing it.
func (s *RTKSketch) cellLen(row int, col uint32) int {
	return s.load(row*s.params.W+int(col), len(s.roster))
}

// answerCell writes Cell(row, col) into a reply's row — ids, and values
// plus noise, cellLen(row, col) of each — noting every value with sz. The
// merged view goes straight into the row.
func (s *RTKSketch) answerCell(row int, col uint32, ids []int32, vals []float64, noise float64, sz *rtkSizer) {
	h := &s.cells[row*s.params.W+int(col)]
	es := h.canonicalize(&s.sorter)
	if len(ids) == len(es) { // nothing implied
		for i, e := range es {
			ids[i] = e.DocID
			vals[i] = float64(e.Value) + noise
			sz.note(int64(e.Value))
		}
		return
	}
	// The roster's ids below the bound go out as zeros, copied with no
	// branch on the content; then the stored entries among them are
	// written over their zeros, and the ones at or above the bound follow.
	sz.note(0)
	below, roster := h.below, s.roster
	n := heldPrefix(roster, below)
	copy(ids, roster[:n])
	for i := range vals[:n] {
		vals[i] = noise
	}
	p, j := 0, 0
	for ; j < len(es) && es[j].DocID < below; j++ {
		e := es[j]
		for roster[p] != e.DocID {
			p++
		}
		vals[p] = float64(e.Value) + noise
		sz.note(int64(e.Value))
		p++
	}
	for i, e := range es[j:] {
		ids[n+i], vals[n+i] = e.DocID, float64(e.Value)+noise
		sz.note(int64(e.Value))
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
// stored entry, 4 per roster id and 4 per cell count.
func (s *RTKSketch) residentBytes() int64 {
	n := int64(4 * (len(s.roster) + len(s.held)))
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
