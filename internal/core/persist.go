package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"csfltr/internal/dp"
	"csfltr/internal/hashutil"
	"csfltr/internal/sketch"
)

// ErrCorruptState marks unreadable persisted owner state.
var ErrCorruptState = errors.New("core: corrupt persisted state")

// persistMagic and persistVersion guard the owner snapshot format.
// Version 3 stores each RTK-Sketch cell as the non-zero entries it holds;
// versions 1 and 2 stored it with Algorithm 4's zero entries, which the
// reader drops; a zero entry in a version 3 cell is corrupt. Versions 2 and 3 store each retained document table as
// its compact bytes (sketch.Compact.AppendBinary); version 1 stored the
// dense table (sketch.Table.MarshalBinary). Every version is still read.
const (
	persistMagic   = uint32(0x43534F31) // "CSO1"
	persistVersion = uint32(3)
)

// WriteTo persists the owner's full state — parameters, hash seed,
// document metadata, per-document sketches (when retained) and the
// RTK-Sketch — in a self-contained binary snapshot. The paper motivates
// this: sketches are "reusable after construction", so a party builds
// them once and serves queries across sessions. The snapshot contains
// the federation hash seed, so it must be stored with the same care as
// the party's raw documents.
func (o *Owner) WriteTo(w io.Writer) (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	cw := &countingWriter{w: bufio.NewWriterSize(w, 1<<16)}
	put32 := func(v uint32) { _ = binary.Write(cw, binary.LittleEndian, v) }
	put64 := func(v uint64) { _ = binary.Write(cw, binary.LittleEndian, v) }
	putF := func(v float64) { _ = binary.Write(cw, binary.LittleEndian, v) }

	put32(persistMagic)
	put32(persistVersion)
	// Parameters.
	put32(uint32(o.params.SketchKind))
	put32(uint32(o.params.HashKind))
	put64(uint64(o.params.Z))
	put64(uint64(o.params.W))
	put64(uint64(o.params.Z1))
	putF(o.params.Epsilon)
	put64(uint64(o.params.Alpha))
	putF(o.params.Beta)
	put64(uint64(o.params.K))
	put32(uint32(o.params.Estimator))
	put64(o.fam.Seed())
	// Documents.
	ids := append([]int(nil), o.ids...) // under o.mu; DocIDs would deadlock
	sort.Ints(ids)
	var table []byte // one document's table, reused
	put64(uint64(len(ids)))
	keep := uint32(0)
	if o.keepDocTables {
		keep = 1
	}
	put32(keep)
	for _, id := range ids {
		m := o.meta[id]
		put64(uint64(int64(id)))
		put64(uint64(int64(m.length)))
		put64(uint64(int64(m.unique)))
		if o.keepDocTables {
			table = o.docTables[id].AppendBinary(table[:0])
			put64(uint64(len(table)))
			if _, err := cw.Write(table); err != nil {
				return cw.n, err
			}
		}
	}
	// RTK-Sketch cells, each as the entries it holds, ascending by DocID.
	for c := range o.rtk.cells {
		entries := o.rtk.cells[c].entries
		put64(uint64(len(entries)))
		for _, e := range entries {
			put64(uint64(int64(e.DocID)))
			put64(uint64(int64(e.Value)))
		}
	}
	put64(uint64(o.rtk.docs))
	if cw.err != nil {
		return cw.n, cw.err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// decodeDocTable reads one retained document table as a snapshot of the
// given version stores it. Version 1's dense tables are compacted on the
// way in, so a loaded owner is the same whichever version it came from.
func (o *Owner) decodeDocTable(version uint32, data []byte) (sketch.Compact, error) {
	if version >= 2 {
		return sketch.UnmarshalCompact(o.params.Z, o.params.W, data)
	}
	dense, err := sketch.UnmarshalTable(data)
	if err != nil {
		return sketch.Compact{}, err
	}
	if dense.Z() != o.params.Z || dense.W() != o.params.W {
		return sketch.Compact{}, fmt.Errorf("table is %dx%d", dense.Z(), dense.W())
	}
	return o.scratch.Compact(dense), nil
}

// countingWriter tracks bytes and the first error.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// ReadOwner reconstructs an owner from a snapshot written by WriteTo. The
// DP mechanism is not persisted (it holds a random source); the caller
// supplies a fresh one, typically dp.ForEpsilon(params.Epsilon, rng)
// using the parameters recovered from the snapshot (see Owner.Params).
func ReadOwner(r io.Reader, mech dp.Mechanism) (*Owner, error) {
	if mech == nil {
		return nil, fmt.Errorf("%w: nil DP mechanism", ErrBadParams)
	}
	br := bufio.NewReaderSize(r, 1<<16)
	var g32 uint32
	var g64 uint64
	var gF float64
	read := func(v any) bool {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return false
		}
		return true
	}
	if !read(&g32) || g32 != persistMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptState)
	}
	var version uint32
	if !read(&version) || version < 1 || version > persistVersion {
		return nil, fmt.Errorf("%w: unsupported version", ErrCorruptState)
	}
	var p Params
	if !read(&g32) {
		return nil, fmt.Errorf("%w: truncated params", ErrCorruptState)
	}
	p.SketchKind = sketch.Kind(g32)
	if !read(&g32) {
		return nil, fmt.Errorf("%w: truncated params", ErrCorruptState)
	}
	p.HashKind = hashutil.Kind(g32)
	for _, dst := range []*int{&p.Z, &p.W, &p.Z1} {
		if !read(&g64) {
			return nil, fmt.Errorf("%w: truncated params", ErrCorruptState)
		}
		*dst = int(int64(g64))
	}
	if !read(&gF) {
		return nil, fmt.Errorf("%w: truncated params", ErrCorruptState)
	}
	p.Epsilon = gF
	if !read(&g64) {
		return nil, fmt.Errorf("%w: truncated params", ErrCorruptState)
	}
	p.Alpha = int(int64(g64))
	if !read(&gF) {
		return nil, fmt.Errorf("%w: truncated params", ErrCorruptState)
	}
	p.Beta = gF
	if !read(&g64) {
		return nil, fmt.Errorf("%w: truncated params", ErrCorruptState)
	}
	p.K = int(int64(g64))
	if !read(&g32) {
		return nil, fmt.Errorf("%w: truncated params", ErrCorruptState)
	}
	p.Estimator = EstimatorMode(g32)
	var seed uint64
	if !read(&seed) {
		return nil, fmt.Errorf("%w: truncated seed", ErrCorruptState)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptState, err)
	}
	// Plausibility caps: a hostile or corrupt snapshot must not drive the
	// allocation of z*w heaps (or the hash coefficient table) to absurd
	// sizes before we even look at the payload. A million cells is 175
	// times the default geometry's 6 000.
	if p.Z > 1<<12 || p.W > 1<<22 || int64(p.Z)*int64(p.W) > 1<<20 ||
		p.Alpha > 1<<20 || p.K > 1<<24 || int64(p.Alpha)*int64(p.K) > 1<<28 {
		return nil, fmt.Errorf("%w: implausible parameters z=%d w=%d alpha=%d k=%d",
			ErrCorruptState, p.Z, p.W, p.Alpha, p.K)
	}

	var nDocs uint64
	if !read(&nDocs) || nDocs > 1<<40 {
		return nil, fmt.Errorf("%w: implausible document count", ErrCorruptState)
	}
	var keep uint32
	if !read(&keep) {
		return nil, fmt.Errorf("%w: truncated header", ErrCorruptState)
	}
	var opts []OwnerOption
	if keep == 0 {
		opts = append(opts, WithoutDocTables())
	}
	o, err := NewOwner(p, seed, mech, opts...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptState, err)
	}
	var table []byte // one document's serialized table, reused
	for i := uint64(0); i < nDocs; i++ {
		var id, length, unique uint64
		if !read(&id) || !read(&length) || !read(&unique) {
			return nil, fmt.Errorf("%w: truncated document %d", ErrCorruptState, i)
		}
		if !fitsDocID(int64(id)) {
			return nil, fmt.Errorf("%w: document id %d does not fit int32", ErrCorruptState, int64(id))
		}
		docID := int(int64(id))
		if o.holds(docID) {
			return nil, fmt.Errorf("%w: document %d listed twice", ErrCorruptState, docID)
		}
		o.meta[docID] = docMeta{length: int(int64(length)), unique: int(int64(unique))}
		o.trackID(docID)
		if keep == 1 {
			// The longest table of this geometry is a compact one with
			// every cell non-zero in 8-byte words (a counter per cell, two
			// words per 64 columns); version 1's dense table is shorter.
			var tblLen uint64
			if !read(&tblLen) || tblLen > uint64(64+8*p.Z*(p.W+p.W/16+4)) {
				return nil, fmt.Errorf("%w: bad table length for doc %d", ErrCorruptState, docID)
			}
			table = append(table[:0], make([]byte, tblLen)...)
			if _, err := io.ReadFull(br, table); err != nil {
				return nil, fmt.Errorf("%w: truncated table for doc %d", ErrCorruptState, docID)
			}
			tbl, err := o.decodeDocTable(version, table)
			if err != nil {
				return nil, fmt.Errorf("%w: document %d: %v", ErrCorruptState, docID, err)
			}
			o.docTables[docID] = tbl
		}
	}
	o.sortIDs()
	s := o.rtk
	if len(o.ids) > 0 {
		s.top = int64(o.ids[len(o.ids)-1])
	}
	var buf []Entry // one cell as the snapshot stores it, reused
	for c := range s.cells {
		var n uint64
		// A cell holds live ids only, so it is never longer than the
		// document list, whose every id the snapshot had to spell out.
		if !read(&n) || n > uint64(min(p.HeapCap(), len(o.ids))) {
			return nil, fmt.Errorf("%w: bad cell size", ErrCorruptState)
		}
		buf = slices.Grow(buf[:0], int(n))[:n]
		for j := range buf {
			var id, val uint64
			if !read(&id) || !read(&val) {
				return nil, fmt.Errorf("%w: truncated cell entry", ErrCorruptState)
			}
			if !fitsDocID(int64(id)) || !fitsValue(int64(val)) {
				return nil, fmt.Errorf("%w: cell entry (%d, %d) does not fit int32", ErrCorruptState, int64(id), int64(val))
			}
			buf[j] = Entry{DocID: int32(int64(id)), Value: int32(int64(val))}
			if !o.holds(int(buf[j].DocID)) || j > 0 && buf[j].DocID <= buf[j-1].DocID {
				return nil, fmt.Errorf("%w: cell %d holds an entry out of order or of no document", ErrCorruptState, c)
			}
			if buf[j].Value == 0 && version >= 3 {
				return nil, fmt.Errorf("%w: cell %d holds a zero entry", ErrCorruptState, c)
			}
		}
		// A version 1 or 2 cell tops up with zeros what fewer than the cap
		// documents reach; they are not kept.
		buf = slices.DeleteFunc(buf, func(e Entry) bool { return e.Value == 0 })
		if len(buf) == 0 {
			continue
		}
		h := &s.cells[c]
		h.entries = slices.Clone(buf)
		if len(buf) == p.HeapCap() {
			// Later batches must keep letting the true minimum go.
			floor := h.ranked(buf[0])
			for _, e := range buf[1:] {
				if x := h.ranked(e); rankLess(x, floor) {
					floor = x
				}
			}
			h.floorKey, h.floorDoc = floor.Value, floor.DocID
		}
	}
	var docs uint64
	if !read(&docs) {
		return nil, fmt.Errorf("%w: truncated footer", ErrCorruptState)
	}
	o.rtk.docs = int(int64(docs))
	return o, nil
}
