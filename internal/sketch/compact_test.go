package sketch

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"csfltr/internal/hashutil"
)

// randomCounts draws a multiset of terms distinct terms with counts in
// [1, maxCount].
func randomCounts(rng *rand.Rand, terms int, maxCount int64) map[uint64]int64 {
	counts := make(map[uint64]int64, terms)
	for len(counts) < terms {
		counts[rng.Uint64()] = 1 + rng.Int63n(maxCount)
	}
	return counts
}

// fillCells sets n cells of tab, spread over its rows, to small counters.
func fillCells(tab *Table, n int) {
	for i := 0; i < n; i++ {
		tab.cells[i*len(tab.cells)/n] = int64(1 + i%5)
	}
}

// checkLookups holds c's answers against dense's over every cell: w
// queries, each row on its own diagonal.
func checkLookups(t *testing.T, c Compact, dense *Table) {
	t.Helper()
	z, w := dense.Z(), dense.W()
	cols, out := make([]uint32, z), make([]float64, z)
	for shift := 0; shift < w; shift++ {
		for a := range cols {
			cols[a] = uint32((shift + 7*a) % w)
		}
		if err := c.CheckColumns(cols); err != nil {
			t.Fatalf("valid columns rejected: %v", err)
		}
		c.Lookup(cols, out)
		for a, col := range cols {
			if want := float64(dense.Cell(a, col)); out[a] != want {
				t.Fatalf("Lookup(%v) row %d = %v, dense has %v", cols, a, out[a], want)
			}
		}
	}
}

// counterBytes returns the narrowest of 1, 2, 4 and 8 bytes that holds
// every counter of dense.
func counterBytes(dense *Table) int {
	width := 1
	for _, v := range dense.cells {
		for v < -1<<(8*width-1) || v > 1<<(8*width-1)-1 {
			width *= 2
		}
	}
	return width
}

// checkCompactMatchesDense holds c against the dense table it was
// compacted from: every cell, every row's non-zero cells, the column
// checks and the serialized round trip.
func checkCompactMatchesDense(t *testing.T, c Compact, dense *Table) {
	t.Helper()
	z, w := dense.Z(), dense.W()
	if c.z != z || c.w != w {
		t.Fatalf("compact is %dx%d, dense %dx%d", c.z, c.w, z, w)
	}
	checkLookups(t, c, dense)
	nonZero := 0
	for _, v := range dense.cells {
		if v != 0 {
			nonZero++
		}
	}
	for a := 0; a < z; a++ {
		want := []RowCell{{Col: -1}}
		for col := 0; col < w; col++ {
			if v := dense.Cell(a, uint32(col)); v != 0 {
				want = append(want, RowCell{Col: col, Value: v})
			}
		}
		if got := c.AppendRow([]RowCell{{Col: -1}}, a); !slices.Equal(got, want) {
			t.Fatalf("AppendRow(%d) = %v, the dense row %v", a, got[1:], want[1:])
		}
	}
	// A marks word per 64 cells, a rank per marks word, two to a word,
	// and the counters at the narrowest width that holds them all.
	width := counterBytes(dense)
	if 1<<c.width != width {
		t.Fatalf("counters stored at %d bytes, want %d", 1<<c.width, width)
	}
	m := (z*w + 63) / 64
	if want := 8 * (m + (m+1)/2 + nonZero*width/8 + 1); c.SizeBytes() != want {
		t.Fatalf("%d non-zero cells in %d bytes, want %d", nonZero, c.SizeBytes(), want)
	}

	cols := make([]uint32, z)
	for _, bad := range [][]uint32{cols[:z-1], append(cols[:z:z], 0), append(cols[:z-1:z-1], uint32(w))} {
		_, want := dense.LookupColumns(bad)
		got := c.CheckColumns(bad)
		if want == nil || got == nil || got.Error() != want.Error() || !errors.Is(got, ErrIncompatible) {
			t.Fatalf("CheckColumns(%d columns) = %v, dense LookupColumns gives %v", len(bad), got, want)
		}
	}

	// Version 2: the tag, then a rank and a marks word per group of
	// columns of each row and a word per counter.
	data := c.AppendBinary(nil)
	word, shift := 8, 64
	if width <= 2 && nonZero <= 32767 {
		word, shift = 2, 16
	}
	if want := 1 + word*(2*z*((w+shift-1)/shift)+nonZero); len(data) != want || int(data[0]) != word {
		t.Fatalf("serialized to %d bytes, tag %d; want %d, tag %d", len(data), data[0], want, word)
	}
	loaded, err := UnmarshalCompact(z, w, data)
	if err != nil {
		t.Fatalf("round trip rejected: %v", err)
	}
	if !bytes.Equal(loaded.AppendBinary(nil), data) {
		t.Fatal("serialization is not stable across a round trip")
	}
	checkLookups(t, loaded, dense)
}

// TestCompactMatchesDense: whatever the table, its compact form answers,
// reads out row by row and serializes to exactly what the dense table holds — on the
// narrow encoding where it fits and on the wide one where a counter or the
// number of non-zero cells does not, at widths that do and do not fill
// their last group of columns.
func TestCompactMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cases := []struct {
		name   string
		z, w   int
		width  int // bytes per stored counter
		narrow bool
		fill   func(*Table)
	}{
		{"empty", 5, 16, 1, true, func(*Table) {}},
		{"body", 30, 200, 1, true, func(tab *Table) { tab.AddCounts(randomCounts(rng, 120, 4)) }},
		{"title", 30, 200, 1, true, func(tab *Table) { tab.AddCounts(randomCounts(rng, 10, 2)) }},
		{"full rows", 4, 8, 1, true, func(tab *Table) { tab.AddCounts(randomCounts(rng, 100, 3)) }},
		{"negative counts", 9, 64, 1, true, func(tab *Table) {
			for term, c := range randomCounts(rng, 40, 5) {
				tab.Add(term, -c)
			}
		}},
		{"cancelled to zero", 9, 64, 1, true, func(tab *Table) {
			gone := randomCounts(rng, 30, 5)
			tab.AddCounts(gone)
			tab.AddCounts(randomCounts(rng, 5, 3))
			for term, c := range gone {
				tab.Add(term, -c)
			}
		}},
		// Counters set directly: Count Sketch's sign hash would flip them.
		{"narrow extremes", 3, 16, 2, true, func(tab *Table) { tab.cells[5], tab.cells[40] = 32767, -32768 }},
		{"counter above int16", 3, 16, 4, false, func(tab *Table) { tab.cells[5], tab.cells[40] = 32768, 3 }},
		{"counter below int16", 3, 16, 4, false, func(tab *Table) { tab.cells[5], tab.cells[40] = 3, -32769 }},
		{"counter beyond int32", 3, 16, 8, false, func(tab *Table) { tab.cells[47] = -1 << 40 }},
		{"one group", 3, 16, 1, true, func(tab *Table) { tab.AddCounts(randomCounts(rng, 6, 3)) }},
		{"one column over a group", 3, 17, 1, true, func(tab *Table) { tab.AddCounts(randomCounts(rng, 40, 3)) }},
		{"w = 64", 5, 64, 1, true, func(tab *Table) { tab.AddCounts(randomCounts(rng, 200, 3)) }},
		{"w = 65, wide", 5, 65, 4, false, func(tab *Table) { tab.AddCounts(randomCounts(rng, 200, 3)); tab.cells[64] = 1 << 20 }},
		{"w > 65536", 3, 70000, 1, true, func(tab *Table) { tab.AddCounts(randomCounts(rng, 300, 3)) }},
		{"w > 65536, wide", 3, 70000, 8, false, func(tab *Table) { tab.AddCounts(randomCounts(rng, 300, 3)); tab.cells[69999] = -1 << 33 }},
		{"z > 64", 70, 64, 1, true, func(tab *Table) { tab.AddCounts(randomCounts(rng, 20, 3)) }},
		// Each side of every counter width.
		{"byte extremes", 3, 16, 1, true, func(tab *Table) { tab.cells[5], tab.cells[40] = 127, -128 }},
		{"counter above a byte", 3, 16, 2, true, func(tab *Table) { tab.cells[5], tab.cells[40] = 128, -3 }},
		{"counter below a byte", 3, 16, 2, true, func(tab *Table) { tab.cells[5], tab.cells[40] = 3, -129 }},
		{"int32 extremes", 3, 16, 4, false, func(tab *Table) { tab.cells[5], tab.cells[40] = math.MaxInt32, math.MinInt32 }},
		{"counter above int32", 3, 16, 8, false, func(tab *Table) { tab.cells[5], tab.cells[40] = math.MaxInt32+1, 3 }},
		{"counter below int32", 3, 16, 8, false, func(tab *Table) { tab.cells[5], tab.cells[40] = 3, math.MinInt32-1 }},
		{"int64 extremes", 3, 16, 8, false, func(tab *Table) { tab.cells[0], tab.cells[47] = math.MaxInt64, math.MinInt64 }},
		// z·w = 250: rows 1 and 3 cross a marks word, the last word is
		// part full, and cells sit on each side of every crossing.
		{"rows across words", 5, 50, 1, true, func(tab *Table) {
			for _, i := range []int{0, 49, 50, 63, 64, 99, 127, 128, 191, 192, 200, 249} {
				tab.cells[i] = int64(1 + i%7)
			}
		}},
		{"rows across words, two bytes", 5, 50, 2, true, func(tab *Table) {
			for _, i := range []int{0, 63, 64, 128, 149, 150, 249} {
				tab.cells[i] = int64(i*200 - 20000)
			}
		}},
		{"most cells the narrow rank counts", 40, 1000, 1, true, func(tab *Table) { fillCells(tab, 32767) }},
		{"too many cells", 40, 1000, 1, false, func(tab *Table) { fillCells(tab, 32768) }},
	}
	for _, kind := range []Kind{Count, CountMin} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%v/%s", kind, tc.name), func(t *testing.T) {
				f := fam(t, tc.z, tc.w, 7)
				dense := MustNew(kind, f)
				tc.fill(dense)
				b, err := NewBuilder(kind, f)
				if err != nil {
					t.Fatal(err)
				}
				c := b.Compact(dense)
				if 1<<c.width != tc.width {
					t.Fatalf("counters stored at %d bytes, want %d", 1<<c.width, tc.width)
				}
				if got := c.AppendBinary(nil)[0] == compactNarrow; got != tc.narrow {
					t.Fatalf("version-2 narrow encoding = %v, want %v", got, tc.narrow)
				}
				checkCompactMatchesDense(t, c, dense)
			})
		}
	}
}

// TestBuilderReusesScratch: documents built one after another through one
// builder come out as if each had a table of its own.
func TestBuilderReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := fam(t, 30, 200, 3)
	b, err := NewBuilder(Count, f)
	if err != nil {
		t.Fatal(err)
	}
	var kept []Compact
	var want []*Table
	for i := 0; i < 20; i++ {
		counts := randomCounts(rng, 1+rng.Intn(150), 5)
		own := MustNew(Count, f)
		own.AddCounts(counts)
		want = append(want, own)
		kept = append(kept, b.Compact(b.Sketch(counts, nil)))
	}
	for i, c := range kept {
		checkCompactMatchesDense(t, c, want[i])
	}
	if _, err := NewBuilder(Kind(9), f); !errors.Is(err, ErrBadKind) {
		t.Fatalf("builder of an unknown kind: %v, want ErrBadKind", err)
	}
}

// TestUnmarshalCompactCorrupt: every way a slab can disagree with the
// layout is rejected, in both encodings.
func TestUnmarshalCompactCorrupt(t *testing.T) {
	const z, w = 3, 20 // two narrow groups a row, one wide
	f := fam(t, z, w, 7)
	b, err := NewBuilder(Count, f)
	if err != nil {
		t.Fatal(err)
	}
	dense := MustNew(Count, f)
	dense.cells[1], dense.cells[4], dense.cells[19] = 5, -2, 3 // row 0, both groups
	dense.cells[2*w+17] = 7                                    // row 2, second group
	for _, wide := range []bool{false, true} {
		if wide {
			dense.cells[2*w+17] = 1 << 40
		}
		good := b.Compact(dense).AppendBinary(nil)
		if (good[0] == compactWide) != wide {
			t.Fatalf("wide = %v, want %v", good[0] == compactWide, wide)
		}
		if _, err := UnmarshalCompact(z, w, good); err != nil {
			t.Fatalf("wide=%v: the valid slab is rejected: %v", wide, err)
		}
		word, perRow := int(good[0]), 2
		if wide {
			perRow = 1
		}
		// mutate returns good with word i of the slab XORed with x.
		mutate := func(i int, x byte) []byte {
			bad := append([]byte(nil), good...)
			bad[1+i*word] ^= x
			return bad
		}
		ranks, marks, vals := 0, z*perRow, 2*z*perRow
		bad := map[string][]byte{
			"no bytes":                 nil,
			"tag only":                 good[:1],
			"unknown tag":              append([]byte{3}, good[1:]...),
			"half a word":              good[:len(good)-1],
			"shorter than the marks":   good[:1+word*(vals-1)],
			"a counter short":          good[:len(good)-word],
			"a counter over":           append(append([]byte(nil), good...), good[len(good)-word:]...),
			"first rank not zero":      mutate(ranks, 1),
			"rank disagrees with mark": mutate(ranks+z*perRow-1, 1),
			"mark without a counter":   mutate(marks+perRow, 1), // row 1, column 0
			"mark dropped":             mutate(marks, 2),        // row 0, column 1
			"stored zero":              mutate(vals, 5),         // the 5
		}
		if !wide {
			bad["mark beyond w"] = mutate(marks+1, 16) // row 0, column 16+4 = 20
		} else {
			bad["mark beyond w"] = append(append([]byte(nil), good[:1+word*marks+2]...), append([]byte{good[1+word*marks+2] | 0x10}, good[1+word*marks+3:]...)...) // row 0, column 20
			// The 1<<40 back to 7: every counter fits int16 words.
			bad["int64 words for an int16 table"] = append(append([]byte(nil), good[:len(good)-word]...), 7, 0, 0, 0, 0, 0, 0, 0)
		}
		for name, data := range bad {
			if _, err := UnmarshalCompact(z, w, data); !errors.Is(err, ErrCorrupt) {
				t.Errorf("wide=%v, %s: got %v, want ErrCorrupt", wide, name, err)
			}
		}
		if _, err := UnmarshalCompact(z, w+64, good); !errors.Is(err, ErrCorrupt) {
			t.Errorf("wide=%v: a slab for another width: got %v, want ErrCorrupt", wide, err)
		}
		if _, err := UnmarshalCompact(0, w, good); !errors.Is(err, ErrCorrupt) {
			t.Errorf("wide=%v: zero rows: got %v, want ErrCorrupt", wide, err)
		}
	}
}

// compactShapes are the two document-table shapes of the benchmark
// geometry: a 120-term body and a 10-term title.
var compactShapes = []struct {
	name  string
	terms int
}{{"body", 120}, {"title", 10}}

func benchBuilder(b *testing.B) *Builder {
	f, err := hashutil.NewFamily(hashutil.KindPolynomial, 30, 200, 1)
	if err != nil {
		b.Fatal(err)
	}
	bld, err := NewBuilder(Count, f)
	if err != nil {
		b.Fatal(err)
	}
	return bld
}

// BenchmarkCompactLookup answers one column per row — what AnswerTF does —
// from dense tables and from their compact forms. Every call goes to the
// next of 512 documents with the next of 512 random queries, as an owner's
// calls do: neither the tables nor the branch history stay warm.
func BenchmarkCompactLookup(b *testing.B) {
	const docs = 512
	rng := rand.New(rand.NewSource(1))
	queries := make([]uint32, docs*30)
	for i := range queries {
		queries[i] = uint32(rng.Intn(200))
	}
	for _, shape := range compactShapes {
		bld := benchBuilder(b)
		dense := make([]*Table, docs)
		compact := make([]Compact, docs)
		for i := range dense {
			dense[i] = bld.Sketch(randomCounts(rng, shape.terms, 3), nil).Clone()
			compact[i] = bld.Compact(dense[i])
		}
		out := make([]float64, 30)
		b.Run(shape.name+"/dense", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := dense[i*7%docs]
				for a, col := range queries[i%docs*30:][:30] {
					out[a] = float64(t.Cell(a, col))
				}
			}
		})
		b.Run(shape.name+"/compact", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				compact[i*7%docs].Lookup(queries[i%docs*30:][:30], out)
			}
		})
	}
}

// BenchmarkCompactBuild sketches one document: into a table of its own,
// as owners used to keep it, and through the builder into compact form.
func BenchmarkCompactBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range compactShapes {
		bld, counts := benchBuilder(b), randomCounts(rng, shape.terms, 3)
		b.Run(shape.name+"/dense", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab := MustNew(Count, bld.dense.fam)
				tab.AddCounts(counts)
			}
		})
		b.Run(shape.name+"/compact", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bld.Compact(bld.Sketch(counts, nil))
			}
		})
	}
}

// TestMemoMatchesAddCounts: a table built through a batch's memo is the
// table AddCounts makes, cell for cell — for both sketch kinds over both
// hash constructions, for a batch whose documents share most of their
// terms (each met first by one document, then remembered) and for a batch
// of one — and Reset leaves the memo empty and zeroed.
func TestMemoMatchesAddCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shared := randomCounts(rng, 60, 4)
	var batch []map[uint64]int64
	for i := 0; i < 12; i++ {
		counts := randomCounts(rng, 1+rng.Intn(40), 6)
		for term, c := range shared {
			if rng.Intn(3) > 0 {
				counts[term] = c * int64(1+i%3)
			}
		}
		batch = append(batch, counts)
	}
	for _, hk := range []hashutil.Kind{hashutil.KindPolynomial, hashutil.KindMD5} {
		f := hashutil.MustNewFamily(hk, 30, 200, 21)
		for _, kind := range []Kind{Count, CountMin} {
			for name, docs := range map[string][]map[uint64]int64{"shared terms": batch, "one document": batch[:1]} {
				t.Run(fmt.Sprintf("%v/%v/%s", hk, kind, name), func(t *testing.T) {
					b, err := NewBuilder(kind, f)
					if err != nil {
						t.Fatal(err)
					}
					var memo Memo
					distinct := map[uint64]bool{}
					for _, counts := range docs {
						want := MustNew(kind, f)
						want.AddCounts(counts)
						if got := b.Sketch(counts, &memo); !slices.Equal(got.cells, want.cells) {
							t.Fatal("the memo's table differs from AddCounts'")
						}
						for term := range counts {
							distinct[term] = true
						}
					}
					if memo.Len() != len(distinct) {
						t.Fatalf("the memo remembers %d terms, the batch has %d", memo.Len(), len(distinct))
					}
					memo.Reset()
					if memo.Len() != 0 || slices.ContainsFunc(memo.cells[:cap(memo.cells)], func(p int32) bool { return p != 0 }) {
						t.Fatal("Reset leaves the memo's cells behind")
					}
				})
			}
		}
	}
}
