// Package sketch implements the linear sketches underlying CS-F-LTR:
// Count Sketch (Charikar, Chen, Farach-Colton) and Count-Min Sketch
// (Cormode, Muthukrishnan). Section IV of the paper builds one sketch per
// document and answers point term-frequency queries from it; Section V's
// RTK-Sketch (package core) reuses these tables as its per-document
// summaries.
//
// A Table is a z x w array of int64 counters driven by a shared
// hashutil.Family. Tables are linear: Merge adds two sketches cell-wise,
// so the sketch of the union of two multisets is the sum of their
// sketches. Estimation is sign-corrected median for Count Sketch and
// minimum for Count-Min.
//
// Note on fidelity to the paper: Eq. (3) of the paper writes the Count
// Sketch estimator as a plain median of C[a][h_a(t)]; the original Count
// Sketch (and the variance analysis the paper cites) requires multiplying
// by the sign hash g_a(t) first, which is what Estimate does here.
package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"csfltr/internal/hashutil"
)

// Kind selects the sketch flavour.
type Kind int

const (
	// Count is the Count Sketch: signed updates, median estimator.
	Count Kind = iota
	// CountMin is the Count-Min sketch: unsigned updates, min estimator.
	CountMin
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Count:
		return "count"
	case CountMin:
		return "count-min"
	default:
		return fmt.Sprintf("sketch.Kind(%d)", int(k))
	}
}

// Errors returned by this package.
var (
	ErrNilFamily    = errors.New("sketch: hash family must not be nil")
	ErrBadKind      = errors.New("sketch: unknown sketch kind")
	ErrIncompatible = errors.New("sketch: incompatible tables")
	ErrCorrupt      = errors.New("sketch: corrupt serialized table")
)

// Table is a z x w sketch of a term multiset. It is not safe for
// concurrent mutation; concurrent reads are fine.
type Table struct {
	kind  Kind
	fam   *hashutil.Family
	cells []int64 // row-major z x w
}

// New creates an empty sketch table of the given kind over fam's (z, w)
// geometry.
func New(kind Kind, fam *hashutil.Family) (*Table, error) {
	if fam == nil {
		return nil, ErrNilFamily
	}
	if kind != Count && kind != CountMin {
		return nil, fmt.Errorf("%w: %d", ErrBadKind, int(kind))
	}
	return &Table{
		kind:  kind,
		fam:   fam,
		cells: make([]int64, fam.Z()*fam.W()),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(kind Kind, fam *hashutil.Family) *Table {
	t, err := New(kind, fam)
	if err != nil {
		panic(err)
	}
	return t
}

// Kind returns the sketch flavour.
func (t *Table) Kind() Kind { return t.kind }

// Family returns the hash family driving the table.
func (t *Table) Family() *hashutil.Family { return t.fam }

// Z returns the number of rows.
func (t *Table) Z() int { return t.fam.Z() }

// W returns the number of columns.
func (t *Table) W() int { return t.fam.W() }

// Add records count occurrences of term. For Count Sketch the update is
// sign-weighted (Eq. (2) of the paper); for Count-Min it is unsigned.
// Negative counts implement deletion, preserving linearity.
func (t *Table) Add(term uint64, count int64) {
	w := t.fam.W()
	for a := 0; a < t.fam.Z(); a++ {
		if t.kind == Count {
			col, sign := t.fam.IndexSign(a, term)
			t.cells[a*w+int(col)] += int64(sign) * count
		} else {
			t.cells[a*w+int(t.fam.Index(a, term))] += count
		}
	}
}

// AddCounts records a whole term-count map, e.g. one document body.
func (t *Table) AddCounts(counts map[uint64]int64) {
	for term, c := range counts {
		t.Add(term, c)
	}
}

// Cell returns the raw counter at (row, col).
func (t *Table) Cell(row int, col uint32) int64 {
	return t.cells[row*t.fam.W()+int(col)]
}

// LookupColumns returns the raw counters C[a][cols[a]] for every row a.
// This is exactly the owner-side operation of Algorithm 2: the querier
// supplies one (possibly obfuscated) column index per row and receives the
// corresponding cells. len(cols) must equal Z.
func (t *Table) LookupColumns(cols []uint32) ([]int64, error) {
	w := t.fam.W()
	if err := checkColumns(cols, t.fam.Z(), w); err != nil {
		return nil, err
	}
	out := make([]int64, len(cols))
	for a, c := range cols {
		out[a] = t.cells[a*w+int(c)]
	}
	return out, nil
}

// smallRows is the row count up to which estimation scratch lives on the
// stack. Typical configurations use z around 30 (the paper's default), so
// the hot estimation paths run allocation-free.
const smallRows = 64

// Estimate returns the point estimate of term's count using all rows.
// The per-row scratch is stack-allocated for z <= 64, so the call is
// allocation-free at practical sketch depths.
func (t *Table) Estimate(term uint64) int64 {
	z := t.fam.Z()
	w := t.fam.W()
	var stack [smallRows]float64
	vals := stack[:0]
	if z > smallRows {
		vals = make([]float64, 0, z)
	}
	for a := 0; a < z; a++ {
		v := float64(t.cells[a*w+int(t.fam.Index(a, term))])
		if t.kind == Count {
			v *= float64(t.fam.Sign(a, term))
		}
		vals = append(vals, v)
	}
	if t.kind == Count {
		return int64(math.Round(MedianInPlace(vals)))
	}
	min := vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
	}
	return int64(math.Round(min))
}

// EstimateFromRows combines per-row (possibly noise-perturbed) cell values
// into a single count estimate for term, using only the listed rows. This
// is the querier-side recovery step of Algorithm 1: after obfuscation only
// the rows in the private index set PV carry real signal.
//
// For Count Sketch each value is first multiplied by the sign hash
// g_a(term) and the median is returned; for Count-Min the minimum is
// returned. values[i] must correspond to rows[i].
func EstimateFromRows(kind Kind, fam *hashutil.Family, term uint64, rows []int, values []float64) float64 {
	if len(rows) == 0 || len(rows) != len(values) {
		return 0
	}
	if kind != Count {
		// Count-Min: the minimum needs no sign adjustment and no scratch.
		return minOf(values)
	}
	var stack [smallRows]float64
	adj := stack[:0]
	if len(rows) > smallRows {
		adj = make([]float64, 0, len(rows))
	}
	for i, a := range rows {
		adj = append(adj, float64(fam.Sign(a, term))*values[i])
	}
	return MedianInPlace(adj)
}

// EstimateSigned is EstimateFromRows for a caller that recovers many
// answers for one term over the same rows and so evaluates the sign
// hashes once: signs[i] must be g_a(term) as +-1 for the row values[i]
// came from (Count-Min ignores it). values is consumed as scratch. The
// result is bit-identical to EstimateFromRows on the same rows.
func EstimateSigned(kind Kind, signs, values []float64) float64 {
	if len(values) == 0 || len(signs) != len(values) {
		return 0
	}
	if kind != Count {
		return minOf(values)
	}
	for i, g := range signs {
		values[i] *= g
	}
	return MedianInPlace(values)
}

// minOf returns the smallest of the non-empty values.
func minOf(values []float64) float64 {
	min := values[0]
	for _, v := range values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Median returns the median of xs (average of the two central values for
// even length). xs is not modified; use MedianInPlace on a slice you own
// to avoid the defensive copy.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var stack [smallRows]float64
	s := stack[:0]
	if len(xs) > smallRows {
		s = make([]float64, 0, len(xs))
	}
	s = append(s, xs...)
	return MedianInPlace(s)
}

// MedianInPlace returns the median of xs, reordering xs as scratch: a
// full sort is replaced by insertion sort for small inputs and a Hoare
// quickselect beyond that, so the common z-row estimation path costs
// O(n) moves instead of O(n log n) plus a copy.
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	h := n / 2
	if n <= 24 {
		// Insertion sort: branch-predictable and allocation-free at the
		// private-index-set sizes (z1 around 10) the protocol uses.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
	} else {
		quickselect(xs, h)
	}
	if n%2 == 1 {
		return xs[h]
	}
	// Even length: the other central value is the maximum of the lower
	// partition (quickselect leaves xs[:h] <= xs[h]).
	lo := xs[0]
	for _, v := range xs[1:h] {
		if v > lo {
			lo = v
		}
	}
	return (lo + xs[h]) / 2
}

// quickselect partially sorts xs so that xs[k] holds the k-th smallest
// value, everything before it is <= xs[k] and everything after is >=.
// Median-of-three pivoting keeps sorted and reversed inputs off the
// quadratic path.
func quickselect(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// Merge adds other into t cell-wise. Both tables must share kind and hash
// family geometry (same Z, W, seed and hash kind), otherwise the merged
// sketch would be meaningless.
//
//csfltr:deterministic
func (t *Table) Merge(other *Table) error {
	if other == nil {
		return fmt.Errorf("%w: nil other", ErrIncompatible)
	}
	if t.kind != other.kind ||
		t.fam.Z() != other.fam.Z() || t.fam.W() != other.fam.W() ||
		t.fam.Seed() != other.fam.Seed() || t.fam.Kind() != other.fam.Kind() {
		return fmt.Errorf("%w: kind/geometry/seed mismatch", ErrIncompatible)
	}
	for i, v := range other.cells {
		t.cells[i] += v
	}
	return nil
}

// Clone returns a deep copy of the table sharing the (immutable) family.
func (t *Table) Clone() *Table {
	c := &Table{kind: t.kind, fam: t.fam, cells: make([]int64, len(t.cells))}
	copy(c.cells, t.cells)
	return c
}

// Reset zeroes every cell.
func (t *Table) Reset() {
	for i := range t.cells {
		t.cells[i] = 0
	}
}

// SizeBytes returns the in-memory size of the counter array, the space
// quantity reported in the paper's Fig. 4 space-cost rows.
func (t *Table) SizeBytes() int { return 8 * len(t.cells) }

// marshalMagic guards serialized tables.
const marshalMagic = uint32(0x434b5431) // "CKT1"

// MarshalBinary serializes the table (kind, geometry, seed, counters).
// The hash family is reconstructed from its parameters on unmarshal, so a
// serialized sketch is self-contained — this is what parties ship to each
// other when exchanging whole sketches.
func (t *Table) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 4+1+1+8+8+8+8*len(t.cells))
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put32(marshalMagic)
	buf = append(buf, byte(t.kind), byte(t.fam.Kind()))
	put64(uint64(t.fam.Z()))
	put64(uint64(t.fam.W()))
	put64(t.fam.Seed())
	for _, c := range t.cells {
		put64(uint64(c))
	}
	return buf, nil
}

// UnmarshalTable reconstructs a table serialized by MarshalBinary.
func UnmarshalTable(data []byte) (*Table, error) {
	const header = 4 + 2 + 8 + 8 + 8
	if len(data) < header {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(data[:4]) != marshalMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	kind := Kind(data[4])
	hkind := hashutil.Kind(data[5])
	z := int(binary.LittleEndian.Uint64(data[6:14]))
	w := int(binary.LittleEndian.Uint64(data[14:22]))
	seed := binary.LittleEndian.Uint64(data[22:30])
	if z <= 0 || w <= 1 || z > 1<<20 || w > 1<<30 {
		return nil, fmt.Errorf("%w: implausible geometry z=%d w=%d", ErrCorrupt, z, w)
	}
	want := header + 8*z*w
	if len(data) != want {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrCorrupt, len(data), want)
	}
	fam, err := hashutil.NewFamily(hkind, z, w, seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	t, err := New(kind, fam)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	for i := range t.cells {
		t.cells[i] = int64(binary.LittleEndian.Uint64(data[header+8*i:]))
	}
	return t, nil
}
