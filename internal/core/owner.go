package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"csfltr/internal/dp"
	"csfltr/internal/hashutil"
	"csfltr/internal/sketch"
)

// RTKCell is one row's heap content in an RTK query response: parallel
// slices of document ids and their (perturbed) cell values.
type RTKCell struct {
	IDs    []int32
	Values []float64
}

// RTKResponse is the owner's answer to a reverse top-K query: the heap
// content of the cell the (obfuscated) term hashes to in every row.
//
// A reply has one holder. Whoever obtains one — from OwnerAPI.AnswerRTK
// or AnswerRTKBatch, MergeRTKResponses or a decoder — owns it: an
// implementation of OwnerAPI must not hand out a reply it keeps, and
// nothing may modify a reply once it is produced (producers and decoders
// record its encoded length in it, see PayloadLen). A holder that shares
// a reply keeps it for good — nothing here does: the federation's answer
// cache retains only what was recovered from one — and a holder that has
// not shared it may, when done, Release it so that its memory serves the
// next reply. Releasing is optional: a reply that is dropped is
// collected like anything else. A copy of the struct is a second holder
// of the same rows; whoever makes one drops the original.
type RTKResponse struct {
	Cells []RTKCell

	payloadLen int // length of the version 2 payload; 0 when not recorded
}

// rtkReplies recycles the memory of released replies. What it holds is
// the next reply: an *RTKResponse no one else has seen, whose Cells is
// a whole cell array, zero but for its last element, where the id slab
// and the value slab are parked at length 0.
//
// A reply in use keeps that layout, the parked slabs beyond len(Cells)
// where nothing that reads a reply — a comparison, an encoder —
// looks: two replies with equal cells are equal field for field whether
// or not the pool made them, and Release needs no bookkeeping beside the
// reply to find what to return.
var rtkReplies sync.Pool

// NewRTKResponse returns a response of z empty cells plus one id slab
// and one value slab of n entries for the producer to carve the rows
// from, so an answer costs a fixed number of allocations rather than two
// per row — and, when a released reply is at hand, none but the reply
// header Release already made. Every producer of a reply comes through
// here. The slabs are not zeroed: a producer writes every entry of the
// [:n] it hands to a cell, and hands it over with its capacity cut to n
// (ids[:n:n]), so nothing left behind by an earlier reply can be reached
// through this one.
func NewRTKResponse(z, n int) (*RTKResponse, []int32, []float64) {
	r, _ := rtkReplies.Get().(*RTKResponse)
	if r == nil {
		r = new(RTKResponse)
	}
	cells, slabs := r.Cells, RTKCell{}
	if len(cells) > 0 {
		slabs = cells[len(cells)-1]
	}
	if len(cells) <= z {
		cells = make([]RTKCell, z+1)
	}
	if slabs.IDs == nil || cap(slabs.IDs) < n {
		slabs = RTKCell{IDs: make([]int32, 0, n), Values: make([]float64, 0, n)}
	}
	cells[len(cells)-1] = slabs
	r.Cells = cells[:z]
	return r, slabs.IDs[:n], slabs.Values[:n]
}

// Release ends the reply's life: its cell array and slabs go back to
// serve a later reply, and the reply itself is left with zero cells, so
// a holder that should not exist fails checkRTKResponse or encodes
// nothing rather than reading someone else's answer. Only the reply's
// sole holder may call it, after its last read of the cells. It is a
// no-op on a reply NewRTKResponse did not make (a literal, a test
// double's) and on one already released; memory beyond
// what the decoders accept (rtkMaxEntries) is dropped, not kept.
func (r *RTKResponse) Release() {
	if r == nil {
		return
	}
	whole := r.Cells[:cap(r.Cells)]
	if len(whole) == len(r.Cells) {
		return
	}
	slabs := whole[len(whole)-1]
	if slabs.IDs == nil || slabs.Values == nil || len(slabs.IDs)+len(slabs.Values) != 0 {
		return // spare capacity, not parked slabs
	}
	clear(r.Cells) // the pool pins no reply's rows
	r.Cells, r.payloadLen = nil, 0
	if cap(slabs.IDs) <= rtkMaxEntries && len(whole) <= rtkMaxEntries {
		rtkReplies.Put(&RTKResponse{Cells: whole})
	}
}

// WireSize returns the encoded size in bytes (12 bytes per entry), used
// for communication accounting.
func (r *RTKResponse) WireSize() int64 {
	var n int64
	for _, c := range r.Cells {
		n += int64(12 * len(c.IDs))
	}
	return n
}

// OwnerAPI is the document-owner endpoint of the reverse top-K protocols.
// Owner implements it in-process; package federation implements it over a
// transport through the coordinating server.
type OwnerAPI interface {
	// DocIDs lists the owner's document ids (non-private metadata).
	DocIDs() []int
	// DocMeta returns the non-private length metadata of a document
	// (body length and unique term count; Definition 2 treats length as
	// shareable).
	DocMeta(docID int) (length, unique int, err error)
	// AnswerTF answers a cross-party TF query against one document
	// (Algorithm 2). The caller holds the reply (see TFResponse).
	AnswerTF(docID int, q *TFQuery) (*TFResponse, error)
	// AnswerRTK returns the RTK-Sketch cells addressed by the query
	// (owner side of Algorithm 5): AnswerRTKBatch for one query.
	AnswerRTK(q *TFQuery) (*RTKResponse, error)
	// AnswerRTKBatch answers up to MaxRTKBatch reverse top-K queries in
	// one exchange: one reply per query, in query order, each perturbed
	// with its own noise draw, taken in that order. It is all or
	// nothing: every query is checked before the first draw, so a batch
	// with a malformed query (ErrBadQuery, as is an empty batch or one
	// above the cap) draws no noise and produces no reply. The caller
	// holds each reply on its own (see RTKResponse).
	AnswerRTKBatch(qs []*TFQuery) ([]*RTKResponse, error)
}

// MaxRTKBatch caps the queries of one AnswerRTKBatch exchange, and with
// them what a host must read and hold to answer one request.
const MaxRTKBatch = 16

// CheckRTKBatch validates the queries of one reverse top-K exchange
// against the sketch geometry (z rows of w columns): between one and
// MaxRTKBatch queries of z columns below w each.
func CheckRTKBatch(qs []*TFQuery, z, w int) error {
	if len(qs) == 0 || len(qs) > MaxRTKBatch {
		return fmt.Errorf("%w: batch of %d queries, want 1 to %d", ErrBadQuery, len(qs), MaxRTKBatch)
	}
	for _, q := range qs {
		if q == nil || len(q.Cols) != z {
			return fmt.Errorf("%w: query has %d columns, want %d", ErrBadQuery, qLen(q), z)
		}
		for _, col := range q.Cols {
			if col >= uint32(w) {
				return fmt.Errorf("%w: column %d out of range", ErrBadQuery, col)
			}
		}
	}
	return nil
}

// AnswerRTKs puts owner's answers to qs, asked in one exchange, into
// out (one slot per query). A single query goes as AnswerRTK — every
// implementation's batch of one — which spares the exchange its reply
// slice. On error out holds nothing.
func AnswerRTKs(owner OwnerAPI, qs []*TFQuery, out []*RTKResponse) error {
	if len(qs) == 1 {
		resp, err := owner.AnswerRTK(qs[0])
		out[0] = resp
		return err
	}
	resps, err := owner.AnswerRTKBatch(qs)
	if err != nil {
		return err
	}
	if len(resps) != len(qs) {
		for _, r := range resps {
			r.Release()
		}
		return fmt.Errorf("%w: %d replies to %d queries", ErrBadQuery, len(resps), len(qs))
	}
	copy(out, resps)
	return nil
}

// docMeta is the retained non-private metadata per document.
type docMeta struct {
	length int
	unique int
}

// Owner is the in-process document-owner endpoint: it maintains one
// standard sketch per document (Section IV, for TF queries and the NAIVE
// baseline), kept as its non-zero cells (sketch.Compact), and one
// RTK-Sketch across all documents (Section V). All query answers are
// perturbed by the configured DP mechanism before they leave the owner.
//
// Owner is safe for concurrent use: ingestion and query answering are
// serialized by an internal mutex (the HTTP host serves requests
// concurrently, the DP mechanism's random source is not itself
// thread-safe, and answering a query may re-order the addressed cells in
// place — see cellHeap).
type Owner struct {
	mu            sync.Mutex
	params        Params
	fam           *hashutil.Family
	mech          dp.Mechanism
	keepDocTables bool
	docTables     map[int]sketch.Compact
	scratch       *sketch.Builder // the one dense table documents are built in and expanded into
	meta          map[int]docMeta
	rtk           *RTKSketch
	ids           []int
	idPos         map[int]int // docID -> index in ids (kept in sync with ids)
	idsSorted     bool
	// generation counts corpus mutations (atomic so readers need not
	// take the owner mutex); see Generation.
	generation atomic.Uint64
}

// OwnerOption customizes Owner construction.
type OwnerOption func(*Owner)

// WithoutDocTables drops per-document sketches after they are folded into
// the RTK-Sketch, reducing memory from DocTableBytes (the documents'
// non-zero cells) plus the RTK footprint to the RTK footprint alone.
// AnswerTF (and therefore the NAIVE baseline) becomes unavailable.
func WithoutDocTables() OwnerOption {
	return func(o *Owner) { o.keepDocTables = false }
}

// NewOwner builds an owner endpoint with the shared parameters and hash
// seed. mech is the DP mechanism applied to every outgoing answer; pass
// dp.Disabled() to reproduce the paper's epsilon=0 configuration.
func NewOwner(params Params, seed uint64, mech dp.Mechanism, opts ...OwnerOption) (*Owner, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if mech == nil {
		return nil, fmt.Errorf("%w: nil DP mechanism", ErrBadParams)
	}
	fam, err := params.Family(seed)
	if err != nil {
		return nil, err
	}
	rtk, err := NewRTKSketch(params, fam)
	if err != nil {
		return nil, err
	}
	scratch, err := sketch.NewBuilder(params.SketchKind, fam)
	if err != nil {
		return nil, err
	}
	o := &Owner{
		params:        params,
		fam:           fam,
		mech:          mech,
		keepDocTables: true,
		docTables:     make(map[int]sketch.Compact),
		scratch:       scratch,
		meta:          make(map[int]docMeta),
		rtk:           rtk,
		idPos:         make(map[int]int),
	}
	for _, opt := range opts {
		opt(o)
	}
	return o, nil
}

// Params returns the shared protocol parameters.
func (o *Owner) Params() Params { return o.params }

// Family returns the shared hash family.
func (o *Owner) Family() *hashutil.Family { return o.fam }

// RTK exposes the owner's RTK-Sketch (e.g. for space accounting).
func (o *Owner) RTK() *RTKSketch { return o.rtk }

// Generation returns the owner's ingest generation: a counter bumped by
// every corpus mutation (AddDocument, one bump per AddDocuments batch,
// RemoveDocument). Query answers cached under one generation are
// invalid for any later one — the federated answer cache folds this
// value into its keys so ingestion naturally invalidates stale entries.
func (o *Owner) Generation() uint64 { return o.generation.Load() }

// AddDocument ingests a document given its term counts (Step 1 of the
// protocol: sketch construction). unique and the total length are
// derived from counts. It is AddDocuments of a batch of one.
func (o *Owner) AddDocument(docID int, counts map[uint64]int64) error {
	return o.AddDocuments([]DocCounts{{DocID: docID, Counts: counts}})
}

// CheckBatch refuses a batch no owner may ingest: one that names a
// document twice, or a document held reports as already ingested, or
// that holds a document an RTK-Sketch entry cannot hold (checkDoc). It
// is the one check of a batch — an owner's own, and a sharded group's
// before any of its shards is written.
func CheckBatch(docs []DocCounts, held func(docID int) bool) error {
	inBatch := make(map[int]struct{}, len(docs))
	for _, d := range docs {
		if _, dup := inBatch[d.DocID]; dup || held(d.DocID) {
			return fmt.Errorf("core: duplicate document id %d", d.DocID)
		}
		if err := checkDoc(d.DocID, d.Counts); err != nil {
			return err
		}
		inBatch[d.DocID] = struct{}{}
	}
	return nil
}

// checkDoc refuses a document an RTK-Sketch entry cannot hold: an id
// outside int32, or counts whose magnitudes sum past math.MaxInt32 —
// every sketch cell is a signed sum of some of the counts, so the sum
// bounds all z*w of them.
func checkDoc(docID int, counts map[uint64]int64) error {
	if !fitsDocID(int64(docID)) {
		return fmt.Errorf("%w: document id %d does not fit int32", ErrBadParams, docID)
	}
	mass := uint64(0)
	for _, c := range counts {
		mass += uint64(max(c, -c)) // -MinInt64 wraps to itself: 1<<63, still too large
		if mass > math.MaxInt32 {
			return fmt.Errorf("%w: document %d counts more than %d term occurrences", ErrBadParams, docID, math.MaxInt32)
		}
	}
	return nil
}

// trackID appends docID to the id roster and records its position so
// RemoveDocument can swap-delete it without scanning. Callers hold o.mu.
func (o *Owner) trackID(docID int) {
	o.idPos[docID] = len(o.ids)
	o.ids = append(o.ids, docID)
}

// sortIDs sorts the roster ascending and refreshes the position index.
// Callers hold o.mu.
func (o *Owner) sortIDs() {
	if o.idsSorted {
		return
	}
	sort.Ints(o.ids)
	for i, id := range o.ids {
		o.idPos[id] = i
	}
	o.idsSorted = true
}

// DocCounts pairs a document id with its term counts — one unit of a
// bulk-ingestion batch.
type DocCounts struct {
	DocID  int
	Counts map[uint64]int64
}

// AddDocuments ingests a batch of documents under one hold of the
// owner's lock and one generation bump: each is folded into the shared
// RTK-Sketch in slice order (fold), exactly as a loop of AddDocument
// calls folds them. The batch is checked first (CheckBatch), so on error —
// a duplicate id, a document an entry cannot hold — the owner is left
// unchanged, with no partially applied prefix.
func (o *Owner) AddDocuments(docs []DocCounts) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(docs) == 0 {
		return nil
	}
	if err := CheckBatch(docs, o.holds); err != nil {
		return err
	}
	for _, d := range docs {
		o.fold(d)
	}
	o.idsSorted = false
	o.generation.Add(1)
	return nil
}

// holds reports whether the owner holds document docID. Callers hold o.mu.
func (o *Owner) holds(docID int) bool {
	_, ok := o.meta[docID]
	return ok
}

// fold is the per-document step of ingest: the document's table is built
// in the owner's one scratch, inserted into every RTK-Sketch cell and,
// if the owner keeps per-document sketches, kept compact; then its
// metadata is recorded. Callers hold o.mu and have checked the document.
func (o *Owner) fold(d DocCounts) {
	t := o.scratch.Sketch(d.Counts)
	o.rtk.insert(d.DocID, t)
	if o.keepDocTables {
		o.docTables[d.DocID] = o.scratch.Compact(t)
	}
	length := 0
	for _, c := range d.Counts {
		length += int(c)
	}
	o.meta[d.DocID] = docMeta{length: length, unique: len(d.Counts)}
	o.trackID(d.DocID)
}

// RemoveDocument deletes a document from the RTK-Sketch and drops its
// sketch and metadata. An owner that kept the document's table uses it to
// visit only the cells the document can be in: while every cell holds
// every live id, those the compact table marks non-zero; once some cell
// has let a document go, the table is expanded into the scratch and the
// sketch skips every full cell whose floor the document orders below (see
// RTKSketch.Delete).
func (o *Owner) RemoveDocument(docID int) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.meta[docID]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownDoc, docID)
	}
	if c, kept := o.docTables[docID]; !kept {
		o.rtk.Delete(docID, nil)
	} else if !o.rtk.deleteMarked(docID, c) {
		table, _ := o.scratch.Expand(c) // a kept table has the scratch's geometry
		o.rtk.Delete(docID, table)
	}
	delete(o.docTables, docID)
	delete(o.meta, docID)
	// Swap-delete via the position index instead of the old O(n)
	// scan-and-splice of the roster; re-sorting is deferred to the next
	// DocIDs call, like after an insertion.
	i := o.idPos[docID]
	last := len(o.ids) - 1
	if i != last {
		moved := o.ids[last]
		o.ids[i] = moved
		o.idPos[moved] = i
		o.idsSorted = false
	}
	o.ids = o.ids[:last]
	delete(o.idPos, docID)
	o.generation.Add(1)
	return nil
}

// DocIDs returns the owner's document ids in ascending order.
func (o *Owner) DocIDs() []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sortIDs()
	return append([]int(nil), o.ids...)
}

// DocMeta returns the non-private length metadata of a document.
func (o *Owner) DocMeta(docID int) (length, unique int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m, ok := o.meta[docID]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %d", ErrUnknownDoc, docID)
	}
	return m.length, m.unique, nil
}

// AnswerTF implements Algorithm 2: look up the queried column in every
// row of the document's sketch and perturb all z results with a single
// noise draw before responding.
func (o *Owner) AnswerTF(docID int, q *TFQuery) (*TFResponse, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.keepDocTables {
		return nil, ErrNoSketches
	}
	table, ok := o.docTables[docID]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownDoc, docID)
	}
	if q == nil || len(q.Cols) != o.params.Z {
		return nil, fmt.Errorf("%w: query has %d columns, want %d", ErrBadQuery, qLen(q), o.params.Z)
	}
	if err := table.CheckColumns(q.Cols); err != nil {
		return nil, err
	}
	noise := o.mech.Sample() // one draw for all z values, as in Algorithm 2
	resp := NewTFResponse(len(q.Cols))
	table.Lookup(q.Cols, noise, resp.Values)
	return resp, nil
}

// AnswerRTK implements the owner side of Algorithm 5: return the content
// of the addressed cell in every row, in canonical ascending-DocID order,
// counts perturbed with a single noise draw. Cells a mutation left out of
// canonical order are sorted in place on the way, so back-to-back queries
// only copy; a row's zeros that the roster implies are merged in as it is
// copied, so a reply does not depend on what the cell stores. The
// response belongs to the caller (see RTKResponse) and carries its
// encoded length, computed in the copy loop (rtkSizer).
func (o *Owner) AnswerRTK(q *TFQuery) (*RTKResponse, error) {
	var out [1]*RTKResponse
	err := o.answerRTK([]*TFQuery{q}, out[:])
	return out[0], err
}

// AnswerRTKBatch implements OwnerAPI: the queries are answered under
// one hold of the owner's lock, so all k replies describe one state of
// the sketch.
func (o *Owner) AnswerRTKBatch(qs []*TFQuery) ([]*RTKResponse, error) {
	out := make([]*RTKResponse, len(qs))
	if err := o.answerRTK(qs, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (o *Owner) answerRTK(qs []*TFQuery, out []*RTKResponse) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := CheckRTKBatch(qs, o.params.Z, o.params.W); err != nil {
		return err
	}
	for i, q := range qs {
		noise := o.mech.Sample()
		total := 0
		for a, col := range q.Cols {
			total += o.rtk.cellLen(a, col)
		}
		resp, ids, vals := NewRTKResponse(o.params.Z, total)
		var sz rtkSizer
		for a, col := range q.Cols {
			n := o.rtk.cellLen(a, col)
			o.rtk.answerCell(a, col, ids[:n], vals[:n], noise, &sz)
			resp.Cells[a] = RTKCell{IDs: ids[:n:n], Values: vals[:n:n]}
			sz.cell(ids[:n])
			ids, vals = ids[n:], vals[n:]
		}
		sz.finish(resp, noise)
		out[i] = resp
	}
	return nil
}

// NaiveSizeBytes returns the NAIVE baseline's space cost, the quantity of
// the paper's Fig. 4: one dense z x w table of 8-byte counters per
// retained document sketch. What the sketches occupy here is
// DocTableBytes.
func (o *Owner) NaiveSizeBytes() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return int64(len(o.docTables)) * int64(8*o.params.Z*o.params.W)
}

// DocTableBytes returns the resident size of the per-document sketches.
func (o *Owner) DocTableBytes() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var n int64
	for _, c := range o.docTables {
		n += int64(c.SizeBytes())
	}
	return n
}

// RTKSizeBytes returns the RTK-Sketch space of the paper's Fig. 4: 8
// bytes per entry the cells hold, zero entries included, whether or not
// they are resident (see RTKSketch.SizeBytes).
func (o *Owner) RTKSizeBytes() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rtk.SizeBytes()
}

// RTKResidentBytes returns what the RTK-Sketch occupies in memory: 8
// bytes per entry a cell stores and 4 per live id on its roster. The zeros
// the roster implies are in RTKSizeBytes and not here.
func (o *Owner) RTKResidentBytes() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rtk.residentBytes()
}

func qLen(q *TFQuery) int {
	if q == nil {
		return 0
	}
	return len(q.Cols)
}
