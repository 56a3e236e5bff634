package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"csfltr/internal/hashutil"
)

// Compact is the retained, immutable form of one document's Table: only
// the non-zero cells. A document of a hundred-odd terms touches a minority
// of its z x w counters and leaves a count of a few units in each, so an
// owner that keeps one sketch per document (Section IV's TF protocol)
// keeps them like this and goes through a dense Table only to build or
// delete one (see Builder).
//
// A table is one slab of 64-bit words laid out marks | rank | vals. marks
// is the row-major bitstream of the z·w cells: bit p&63 of word p>>6 is
// set iff cell p = row*w + col is non-zero (bits at or beyond z·w stay
// clear). rank holds one uint32 per marks word, two to a slab word, the
// even word's in the low half: the number of set bits before that word.
// vals holds the non-zero counters in row-major order, packed low to high
// at 1, 2, 4 or 8 bytes each — the narrowest width that holds every
// counter of the table — and then one word more than they fill. The cell
// at p is therefore found (Lookup) without a search: its mark says
// whether it is stored, and its word's rank plus the marks below its bit
// say where.
//
// A table at the benchmark geometry (z = 30, w = 200) takes 752 bytes of
// marks, 376 of rank and, for a document's counts, a byte per non-zero
// counter.
//
// The zero Compact holds no table. Compact values are safe for
// concurrent reads.
type Compact struct {
	z, w int
	slab []uint64
	// width is log2 of the bytes each stored counter takes.
	width uint
}

// markWords returns the number of marks words, and so of ranks, of a
// table of cells cells.
func markWords(cells int) int { return (cells + 63) >> 6 }

// valsAt returns where the counters begin in the slab of a table of m
// marks words: after the marks and the ranks, two ranks to a word.
func valsAt(m int) int { return m + (m+1)>>1 }

// counter returns counter i of vals, packed at 1<<width bytes each: its
// word shifted down to it, then up and back to extend its sign.
func counter(vals []uint64, width uint, i int) int64 {
	keep := (64 - 8<<width) & 63
	return int64(vals[i<<width>>3]>>(uint(i)<<width&7<<3)<<keep) >> keep
}

// putCounter stores v as counter i of vals, which must still be zero
// there.
func putCounter(vals []uint64, width uint, i int, v int64) {
	vals[i<<width>>3] |= uint64(v) & (^uint64(0) >> ((64 - 8<<width) & 63)) << (uint(i) << width & 7 << 3)
}

// newCompact lays out the slab of a z x w table whose non-zero cells are
// set in marks and whose counters, folded to their magnitude (v ^ v>>63)
// and ORed, make mag. The counters are then put in row-major order.
func newCompact(z, w int, marks []uint64, mag uint64) Compact {
	c := Compact{z: z, w: w}
	for 8<<c.width <= bits.Len64(mag) { // one bit more for the sign
		c.width++
	}
	n := 0
	for _, set := range marks {
		n += bits.OnesCount64(set)
	}
	m := len(marks)
	// A word past the last counter's leaves the reads of Lookup in bounds.
	c.slab = make([]uint64, valsAt(m)+n<<c.width>>3+1)
	copy(c.slab, marks)
	before := 0
	for word, set := range marks {
		c.slab[m+word>>1] |= uint64(before) << (uint(word) & 1 << 5)
		before += bits.OnesCount64(set)
	}
	return c
}

// stored returns the number of non-zero cells: the last marks word's rank
// plus its own marks.
func (c Compact) stored() int {
	m := markWords(c.z * c.w)
	if m == 0 {
		return 0
	}
	return c.rank(m-1) + bits.OnesCount64(c.slab[m-1])
}

// rank returns the number of non-zero cells before marks word word.
func (c Compact) rank(word int) int {
	return int(uint32(c.slab[markWords(c.z*c.w)+word>>1] >> (uint(word) & 1 << 5)))
}

// SizeBytes returns the in-memory size of the slab.
func (c Compact) SizeBytes() int { return 8 * len(c.slab) }

// CheckColumns reports the error Table.LookupColumns would for cols: one
// column index per row, each below W.
func (c Compact) CheckColumns(cols []uint32) error { return checkColumns(cols, c.z, c.w) }

func checkColumns(cols []uint32, z, w int) error {
	if len(cols) != z {
		return fmt.Errorf("%w: got %d column indexes for %d rows", ErrIncompatible, len(cols), z)
	}
	for _, col := range cols {
		if col >= uint32(w) {
			return fmt.Errorf("%w: column %d out of range [0,%d)", ErrIncompatible, col, w)
		}
	}
	return nil
}

// Lookup is the owner-side operation of Algorithm 2 — the counter
// C[a][cols[a]] of every row a: out[a] is the counter as a float64. cols
// must have passed CheckColumns and out have a value per row.
//
// Whether a hashed column is stored is close to a coin toss, so the
// answer is selected by arithmetic on the mark, not by a branch on it;
// nothing loops, and the marks word, its rank and the one counter read
// are at addresses that depend on no other cell, so a query's rows are
// fetched side by side, like a dense table's cells. Every width is read
// by the same shifts.
func (c Compact) Lookup(cols []uint32, out []float64) {
	m := markWords(c.z * c.w)
	marks, rank, vals := c.slab[:m], c.slab[m:valsAt(m)], c.slab[valsAt(m):]
	width := c.width & 3
	keep := (64 - 8<<width) & 63
	row := 0
	for a, col := range cols {
		p := row + int(col)
		word, bit := p>>6, uint(p)&63
		mark := marks[word]
		i := uint(uint32(rank[word>>1]>>(uint(word)&1<<5))) + uint(bits.OnesCount64(mark&(1<<bit-1)))
		v := vals[i<<width>>3] >> (i << width & 7 << 3)
		out[a] = float64(int64(v<<keep) >> keep & -int64(mark>>bit&1))
		row += c.w
	}
}

// RowCell is one non-zero cell of a table row: its column and counter.
type RowCell struct {
	Col   int
	Value int64
}

// AppendRow appends to dst the non-zero cells of row a, ascending by
// column, read from the marks and counters without expanding the table:
// the row's first counter is found by rank, and the rest follow it.
func (c Compact) AppendRow(dst []RowCell, a int) []RowCell {
	m := markWords(c.z * c.w)
	marks, vals := c.slab[:m], c.slab[valsAt(m):]
	lo, hi := a*c.w, (a+1)*c.w
	i := c.rank(lo>>6) + bits.OnesCount64(marks[lo>>6]&(1<<(lo&63)-1))
	for p := lo; p < hi; {
		end := min(hi, (p>>6+1)<<6)
		set := marks[p>>6] >> (p & 63) & (1<<(end-p) - 1)
		for ; set != 0; set &= set - 1 {
			dst = append(dst, RowCell{Col: p - lo + bits.TrailingZeros64(set), Value: counter(vals, c.width, i)})
			i++
		}
		p = end
	}
	return dst
}

// Builder is the dense scratch through which an owner's documents pass:
// it sketches one document at a time into a reused Table and compacts it
// — so ingesting a document allocates its Compact slab and nothing else. A Builder is not
// safe for concurrent use.
type Builder struct {
	dense *Table
	marks []uint64 // staging for Compact
}

// Memo remembers, for one batch of documents, the cells each term met so
// far lands in, so that a term the batch's documents share is hashed once:
// its z cells depend only on the term and the hash family. The cells
// derive from the keyed family, so a memo serves one batch and is Reset
// before anything else may see it. The zero Memo is empty and ready.
type Memo struct {
	at    map[uint64]int32 // term -> where its z cells start in cells
	cells []int32          // per term, per row: the row-major cell, complemented (^) where the sign is -1
}

// Reset empties the memo and zeroes what it remembered, keeping its
// memory for the next batch. Nothing is written past len(cells), so
// that is all there is to zero.
func (m *Memo) Reset() {
	clear(m.at)
	clear(m.cells)
	m.cells = m.cells[:0]
}

// Len returns the number of terms the memo remembers.
func (m *Memo) Len() int { return len(m.at) }

// cellsOf returns the z cells of t that term lands in, each complemented
// where a Count Sketch adds the term negated, hashing the term only the
// first time the memo meets it.
func (m *Memo) cellsOf(t *Table, term uint64) []int32 {
	z := t.fam.Z()
	if at, ok := m.at[term]; ok {
		return m.cells[at : int(at)+z]
	}
	if m.at == nil {
		m.at = make(map[uint64]int32)
	}
	at, w := len(m.cells), t.fam.W()
	for a := 0; a < z; a++ {
		if t.kind != Count { // unsigned: no sign hash
			m.cells = append(m.cells, int32(a*w+int(t.fam.Index(a, term))))
			continue
		}
		col, sign := t.fam.IndexSign(a, term)
		p := int32(a*w + int(col))
		if sign < 0 {
			p = ^p
		}
		m.cells = append(m.cells, p)
	}
	m.at[term] = int32(at)
	return m.cells[at:]
}

// NewBuilder creates a builder of kind tables over fam's geometry.
func NewBuilder(kind Kind, fam *hashutil.Family) (*Builder, error) {
	t, err := New(kind, fam)
	if err != nil {
		return nil, err
	}
	return &Builder{dense: t}, nil
}

// Sketch returns the table of one document's term counts. The table is
// the builder's scratch: valid until the next Sketch. With a memo, which
// one batch's documents share, each term's cells come from it — the
// table is the same, cell for cell, as AddCounts makes; without one (a
// batch of one document has no term twice) each term is hashed.
func (b *Builder) Sketch(counts map[uint64]int64, memo *Memo) *Table {
	t := b.dense
	t.Reset()
	if memo == nil || len(t.cells) > math.MaxInt32 { // int32 cells
		t.AddCounts(counts)
		return t
	}
	for term, c := range counts {
		for _, p := range memo.cellsOf(t, term) {
			neg := p >> 31 // -1 where complemented
			t.cells[p^neg] += c ^ int64(neg) - int64(neg)
		}
	}
	return t
}

// Compact returns the compact form of t (any table, not only the
// builder's own). The marks and the counters' width come from one pass
// over the cells without a branch on their content — a document's
// non-zero cells are scattered, so a test per cell would mispredict on
// every other one; the counters are then copied from the cells the marks
// name.
//
//csfltr:deterministic
func (b *Builder) Compact(t *Table) Compact {
	m := markWords(len(t.cells))
	if len(b.marks) < m {
		b.marks = make([]uint64, m)
	}
	marks := b.marks[:m]
	var mag uint64
	for word := range marks {
		set := uint64(0)
		for bit, v := range t.cells[word<<6 : min((word+1)<<6, len(t.cells))] {
			set |= (uint64(v) | uint64(-v)) >> 63 << (uint(bit) & 63)
			mag |= uint64(v ^ v>>63)
		}
		marks[word] = set
	}
	c := newCompact(t.Z(), t.W(), marks, mag)
	// The counters are gathered a word at a time: putCounter's
	// read-modify-write per counter made a body's compaction a third
	// slower.
	vals, at := c.slab[valsAt(m):], 0
	size := uint(8) << c.width
	mask := ^uint64(0) >> ((64 - size) & 63)
	acc, off := uint64(0), uint(0)
	for word, set := range marks {
		for ; set != 0; set &= set - 1 {
			acc |= uint64(t.cells[word<<6+bits.TrailingZeros64(set)]) & mask << off
			if off = (off + size) & 63; off == 0 {
				vals[at], at, acc = acc, at+1, 0
			}
		}
	}
	vals[at] = acc
	return c
}

// Version 2 of the owner snapshot stores a table as words of one size,
// laid out rank | marks | vals. Every row is cut into groups of as many
// columns as a word has bits; marks holds one word per group, bit b set
// iff the group's column b is non-zero (bits at or beyond w stay clear);
// rank holds, for the same group, the number of non-zero cells before it
// in row-major order; vals holds the non-zero counters in that order. The
// words are int16 (groups of 16 columns) when every counter fits and
// there are at most 32767 non-zero cells to rank, int64 (groups of 64)
// otherwise.

// compactWord is the element type of a version-2 slab.
type compactWord interface{ int16 | int64 }

// A version-2 word of 1<<shift bits marks a group of as many columns.
const (
	narrowShift = 4
	wideShift   = 6
)

// groups returns the number of column groups, and so of marks (and of
// rank) words, per row.
func groups(w int, shift uint) int { return (w + 1<<shift - 1) >> shift }

// markBits returns the marks of word m as an unsigned bit set.
func markBits[T compactWord](m T, shift uint) uint64 { return uint64(m) & (1<<(1<<shift) - 1) }

// Encoding tags of a serialized Compact: the word size of its slab.
const (
	compactNarrow = byte(2)
	compactWide   = byte(8)
)

// narrow reports whether the version-2 words of a table of n non-zero
// cells are int16.
func (c Compact) narrow(n int) bool { return c.width <= 1 && n <= math.MaxInt16 }

// AppendBinary appends the serialized table to dst: the encoding tag,
// then the version-2 slab's words little-endian. Geometry is not included
// — a compact table is stored inside something that already states it
// (the owner snapshot).
func (c Compact) AppendBinary(dst []byte) []byte {
	n := c.stored()
	shift, tag := uint(wideShift), compactWide
	if c.narrow(n) {
		shift, tag = narrowShift, compactNarrow
	}
	dst = append(dst, tag)
	put := func(v uint64) {
		if tag == compactNarrow {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	}
	m := markWords(c.z * c.w)
	marks, perRow := c.slab[:m], groups(c.w, shift)
	for a := 0; a < c.z; a++ {
		for g := 0; g < perRow; g++ {
			p := a*c.w + g<<shift
			put(uint64(c.rank(p>>6) + bits.OnesCount64(marks[p>>6]&(1<<(p&63)-1))))
		}
	}
	for a := 0; a < c.z; a++ {
		for g := 0; g < perRow; g++ {
			put(bitsAt(marks, a*c.w+g<<shift, min(1<<shift, c.w-g<<shift)))
		}
	}
	vals := c.slab[valsAt(m):]
	for i := 0; i < n; i++ {
		put(uint64(counter(vals, c.width, i)))
	}
	return dst
}

// bitsAt returns the k <= 64 bits of the bitstream marks from bit p on.
func bitsAt(marks []uint64, p, k int) uint64 {
	word, off := p>>6, uint(p)&63
	set := marks[word] >> off
	if off != 0 && word+1 < len(marks) {
		set |= marks[word+1] << (64 - off)
	}
	return set & (1<<uint(k) - 1)
}

// UnmarshalCompact reconstructs a z x w table serialized by AppendBinary,
// rejecting with ErrCorrupt anything AppendBinary could not have written:
// a slab shorter than the geometry's rank and marks, a rank that is not
// the count of the marks before it, a mark at or beyond column w,
// counters that are not one per mark, a stored zero, int64 words for a
// table int16 words hold.
func UnmarshalCompact(z, w int, data []byte) (Compact, error) {
	if z <= 0 || w <= 1 || len(data) == 0 {
		return Compact{}, fmt.Errorf("%w: empty compact table", ErrCorrupt)
	}
	tag, body := data[0], data[1:]
	shift := uint(narrowShift)
	switch tag {
	case compactNarrow:
	case compactWide:
		shift = wideShift
	default:
		return Compact{}, fmt.Errorf("%w: unknown compact encoding %d", ErrCorrupt, tag)
	}
	words := len(body) / int(tag)
	if len(body)%int(tag) != 0 || words < 2*z*groups(w, shift) {
		return Compact{}, fmt.Errorf("%w: compact table of %d bytes for a %dx%d sketch", ErrCorrupt, len(body), z, w)
	}
	var c Compact
	if tag == compactNarrow {
		s := make([]int16, words)
		for i := range s {
			s[i] = int16(binary.LittleEndian.Uint16(body[2*i:]))
		}
		if err := checkSlab(s, z, w, shift); err != nil {
			return Compact{}, err
		}
		c = fromVersion2(s, z, w, shift)
	} else {
		s := make([]int64, words)
		for i := range s {
			s[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
		}
		if err := checkSlab(s, z, w, shift); err != nil {
			return Compact{}, err
		}
		c = fromVersion2(s, z, w, shift)
		if c.narrow(c.stored()) {
			return Compact{}, fmt.Errorf("%w: a table int16 words hold is stored in int64 words", ErrCorrupt)
		}
	}
	return c, nil
}

// fromVersion2 converts a version-2 slab that passed checkSlab.
func fromVersion2[T compactWord](s []T, z, w int, shift uint) Compact {
	perRow := groups(w, shift)
	total := z * perRow
	marks := make([]uint64, markWords(z*w))
	for at, m := range s[total : 2*total] {
		base := at/perRow*w + at%perRow<<shift
		for set := markBits(m, shift); set != 0; set &= set - 1 {
			p := base + bits.TrailingZeros64(set)
			marks[p>>6] |= 1 << (p & 63)
		}
	}
	vals := s[2*total:]
	var mag uint64
	for _, v := range vals {
		mag |= uint64(int64(v) ^ int64(v)>>63)
	}
	c := newCompact(z, w, marks, mag)
	packed := c.slab[valsAt(len(marks)):]
	for i, v := range vals {
		putCounter(packed, c.width, i, int64(v))
	}
	return c
}

func checkSlab[T compactWord](s []T, z, w int, shift uint) error {
	perRow := groups(w, shift)
	total := z * perRow
	vals := s[2*total:]
	before := 0
	for at := 0; at < total; at++ {
		if int64(s[at]) != int64(before) {
			return fmt.Errorf("%w: group %d ranks %d cells before it, the marks say %d", ErrCorrupt, at, s[at], before)
		}
		m := markBits(s[total+at], shift)
		if g := at % perRow; g == perRow-1 && m>>(w-g<<shift) != 0 {
			return fmt.Errorf("%w: row %d marks a column beyond %d", ErrCorrupt, at/perRow, w)
		}
		before += bits.OnesCount64(m)
	}
	if before != len(vals) {
		return fmt.Errorf("%w: %d cells marked, %d counters stored", ErrCorrupt, before, len(vals))
	}
	for _, v := range vals {
		if v == 0 {
			return fmt.Errorf("%w: a stored counter is zero", ErrCorrupt)
		}
	}
	return nil
}
