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
// keeps them like this and goes through a dense Table only to build, fold
// or delete one (see Builder).
//
// A table is one slab of words laid out rank | marks | vals. Every row is
// cut into groups of as many columns as a word has bits; marks holds one
// word per group, bit b set iff the group's column b is non-zero (bits at
// or beyond w stay clear); rank holds, for the same group, the number of
// non-zero cells before it in row-major order; vals holds the non-zero
// counters in that order. The cell at (row, col) is therefore found
// (Lookup) without a search: its group's mark says whether it is stored, and rank
// plus the marks below col's bit say where.
//
// The words are int16 — 2 bytes per non-zero cell plus 4 per 16 columns —
// when every counter fits and there are at most 32767 non-zero cells to
// rank; any other table takes int64 words (and groups of 64 columns) in
// the same layout. Which one is decided from the table alone, and either
// answers exactly what the dense table would.
//
// The zero Compact holds no table. Compact values are safe for
// concurrent reads.
type Compact struct {
	z, w   int
	narrow []int16
	wide   []int64
}

// compactWord is the element type of a Compact slab.
type compactWord interface{ int16 | int64 }

// A word of 1<<shift bits marks a group of as many columns.
const (
	narrowShift = 4
	wideShift   = 6
)

// groups returns the number of column groups, and so of marks (and of
// rank) words, per row.
func groups(w int, shift uint) int { return (w + 1<<shift - 1) >> shift }

// markBits returns the marks of word m as an unsigned bit set.
func markBits[T compactWord](m T, shift uint) uint64 { return uint64(m) & (1<<(1<<shift) - 1) }

// SizeBytes returns the in-memory size of the slab.
func (c Compact) SizeBytes() int { return 2*len(c.narrow) + 8*len(c.wide) }

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
// C[a][cols[a]] of every row a — delivered as the protocol releases it:
// out[a] is the counter as a float64 plus add, the owner's noise draw.
// cols must have passed CheckColumns and out have a value per row.
func (c Compact) Lookup(cols []uint32, add float64, out []float64) {
	if c.narrow != nil {
		slabLookup(c.narrow, c.w, narrowShift, cols, add, out)
	} else {
		slabLookup(c.wide, c.w, wideShift, cols, add, out)
	}
}

func slabLookup[T compactWord](s []T, w int, shift uint, cols []uint32, add float64, out []float64) {
	perRow := groups(w, shift)
	total := len(cols) * perRow
	rank, marks, vals := s[:total], s[total:2*total], s[2*total:]
	if len(vals) == 0 {
		for a := range cols {
			out[a] = add
		}
		return
	}
	for a, col := range cols {
		out[a] = float64(groupCell(rank, marks, vals, shift, a*perRow+int(col>>shift), col&(1<<shift-1))) + add
	}
}

// groupCell returns the counter, one of the non-empty vals, at column bit
// of group at. Whether a hashed column is stored is close to a coin toss,
// so the answer is selected by arithmetic on the mark, not by a branch on
// it; nothing loops, and the two words and one counter read are at
// addresses that depend on no other cell, so a query's rows are fetched
// side by side, like a dense table's cells.
func groupCell[T compactWord](rank, marks, vals []T, shift uint, at int, bit uint32) int64 {
	m := markBits(marks[at], shift)
	i := int(rank[at]) + bits.OnesCount64(m&(1<<bit-1))
	// An unmarked cell past the last stored one would index past vals.
	return int64(vals[min(i, len(vals)-1)]) & -int64(m>>bit&1)
}

// AppendNonZero appends to dst the row-major position (row*w + col) of
// every non-zero cell, ascending — the cells the marks name, found without
// expanding the table.
func (c Compact) AppendNonZero(dst []int) []int {
	if c.narrow != nil {
		return appendMarked(c.narrow, c.z, c.w, narrowShift, dst)
	}
	return appendMarked(c.wide, c.z, c.w, wideShift, dst)
}

func appendMarked[T compactWord](s []T, z, w int, shift uint, dst []int) []int {
	perRow := groups(w, shift)
	marks := s[z*perRow : 2*z*perRow]
	for at, m := range marks {
		base := at/perRow*w + at%perRow<<shift
		for set := markBits(m, shift); set != 0; set &= set - 1 {
			dst = append(dst, base+bits.TrailingZeros64(set))
		}
	}
	return dst
}

// Builder is the dense scratch through which an owner's documents pass:
// it sketches one document at a time into a reused Table, hands that
// table to whoever folds it, and compacts it for keeping — so ingesting a
// document allocates its Compact slab and nothing else. A Builder is not
// safe for concurrent use.
type Builder struct {
	dense *Table
	// staging for Compact: the marks of every row in groups of 64 columns,
	// and the non-zero counters in row-major order
	marks []uint64
	vals  []int64
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
// the builder's scratch: valid until the next Sketch or Expand.
func (b *Builder) Sketch(counts map[uint64]int64) *Table {
	b.dense.Reset()
	b.dense.AddCounts(counts)
	return b.dense
}

// Expand returns the table c was compacted from, which must have the
// builder's geometry, in the builder's scratch: valid until the next
// Sketch or Expand.
//
//csfltr:deterministic
func (b *Builder) Expand(c Compact) (*Table, error) {
	t := b.dense
	if c.z != t.Z() || c.w != t.W() {
		return nil, fmt.Errorf("%w: compact table is %dx%d, builder %dx%d", ErrIncompatible, c.z, c.w, t.Z(), t.W())
	}
	t.Reset()
	if c.narrow != nil {
		expandSlab(c.narrow, c.z, c.w, narrowShift, t.cells)
	} else {
		expandSlab(c.wide, c.z, c.w, wideShift, t.cells)
	}
	return t, nil
}

func expandSlab[T compactWord](s []T, z, w int, shift uint, cells []int64) {
	perRow := groups(w, shift)
	marks, vals := s[z*perRow:2*z*perRow], s[2*z*perRow:]
	i := 0
	for a := 0; a < z; a++ {
		row := cells[a*w : (a+1)*w]
		for g, m := range marks[a*perRow : (a+1)*perRow] {
			for set := markBits(m, shift); set != 0; set &= set - 1 {
				row[g<<shift+bits.TrailingZeros64(set)] = int64(vals[i])
				i++
			}
		}
	}
}

// Compact returns the compact form of t (any table, not only the
// builder's own). It is one pass over the cells without a branch on their
// content — a document's non-zero cells are scattered, so a test per cell
// would mispredict on every other one — into staging the builder reuses.
//
//csfltr:deterministic
func (b *Builder) Compact(t *Table) Compact {
	z, w := t.Z(), t.W()
	perRow := groups(w, wideShift)
	if len(b.vals) < len(t.cells) || len(b.marks) < z*perRow {
		b.marks, b.vals = make([]uint64, z*perRow), make([]int64, len(t.cells))
	}
	marks, vals := b.marks[:z*perRow], b.vals
	n := 0
	spill := uint64(0) // keeps bits above the 16th once a counter leaves the int16 range
	for a := 0; a < z; a++ {
		row := t.cells[a*w : (a+1)*w]
		for g := 0; g < perRow; g++ {
			m := uint64(0)
			for bit, v := range row[g<<wideShift : min((g+1)<<wideShift, w)] {
				// Every cell is staged at n; only a non-zero one advances it.
				nonZero := (uint64(v) | uint64(-v)) >> 63
				vals[n] = v
				n += int(nonZero)
				m |= nonZero << bit
				spill |= uint64(v - math.MinInt16)
			}
			marks[a*perRow+g] = m
		}
	}
	c := Compact{z: z, w: w}
	if n <= math.MaxInt16 && spill>>16 == 0 {
		c.narrow = packSlab[int16](marks, vals[:n], z, w, narrowShift)
	} else {
		c.wide = packSlab[int64](marks, vals[:n], z, w, wideShift)
	}
	return c
}

// packSlab lays out the slab of a z x w table from its staged marks (in
// groups of 64 columns) and non-zero counters.
func packSlab[T compactWord](marks []uint64, vals []int64, z, w int, shift uint) []T {
	perRow, staged := groups(w, shift), groups(w, wideShift)
	total := z * perRow
	s := make([]T, 2*total+len(vals))
	before := 0
	for a := 0; a < z; a++ {
		for g := 0; g < perRow; g++ {
			col := g << shift
			m := T(marks[a*staged+col>>wideShift] >> (col & (1<<wideShift - 1)))
			s[a*perRow+g], s[total+a*perRow+g] = T(before), m
			before += bits.OnesCount64(markBits(m, shift))
		}
	}
	for i, v := range vals {
		s[2*total+i] = T(v)
	}
	return s
}

// Encoding tags of a serialized Compact: the word size of its slab.
const (
	compactNarrow = byte(2)
	compactWide   = byte(8)
)

// AppendBinary appends the serialized table to dst: the encoding tag,
// then the slab's words little-endian. Geometry is not included — a
// compact table is stored inside something that already states it (the
// owner snapshot).
func (c Compact) AppendBinary(dst []byte) []byte {
	if c.narrow != nil {
		dst = append(dst, compactNarrow)
		for _, v := range c.narrow {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
		}
		return dst
	}
	dst = append(dst, compactWide)
	for _, v := range c.wide {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// UnmarshalCompact reconstructs a z x w table serialized by AppendBinary,
// rejecting with ErrCorrupt anything Builder.Compact could not have laid
// out: a slab shorter than the geometry's rank and marks, a rank that is
// not the count of the marks before it, a mark at or beyond column w,
// counters that are not one per mark, a stored zero.
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
	c := Compact{z: z, w: w}
	var err error
	if tag == compactNarrow {
		c.narrow = make([]int16, words)
		for i := range c.narrow {
			c.narrow[i] = int16(binary.LittleEndian.Uint16(body[2*i:]))
		}
		err = checkSlab(c.narrow, z, w, shift)
	} else {
		c.wide = make([]int64, words)
		for i := range c.wide {
			c.wide[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
		}
		err = checkSlab(c.wide, z, w, shift)
	}
	if err != nil {
		return Compact{}, err
	}
	return c, nil
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
