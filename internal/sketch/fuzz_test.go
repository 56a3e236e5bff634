package sketch

import (
	"bytes"
	"errors"
	"testing"

	"csfltr/internal/hashutil"
)

// FuzzUnmarshalTable hardens the sketch deserializer against arbitrary
// input: it must never panic, and any accepted payload must re-marshal
// to an equivalent table.
func FuzzUnmarshalTable(f *testing.F) {
	fam, err := hashutil.NewFamily(hashutil.KindPolynomial, 3, 16, 7)
	if err != nil {
		f.Fatal(err)
	}
	tab := MustNew(Count, fam)
	for i := uint64(0); i < 50; i++ {
		tab.Add(i, int64(i%5))
	}
	seed, err := tab.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:10])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalTable(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		round, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted table failed to re-marshal: %v", err)
		}
		got2, err := UnmarshalTable(round)
		if err != nil {
			t.Fatalf("re-marshalled table rejected: %v", err)
		}
		if got2.Z() != got.Z() || got2.W() != got.W() || got2.Kind() != got.Kind() {
			t.Fatal("round trip changed geometry")
		}
		if !bytes.Equal(round, mustMarshal(t, got2)) {
			t.Fatal("marshalling is not stable")
		}
	})
}

func mustMarshal(t *testing.T, tab *Table) []byte {
	t.Helper()
	data, err := tab.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzUnmarshalCompact hardens the compact-table deserializer: arbitrary
// bytes never panic, and an accepted slab is one Builder.Compact could
// have laid out — read row by row into a dense table, it answers every
// cell that table holds, stores exactly the non-zero ones at the narrowest
// counter width, and is byte for byte what that table compacts to.
func FuzzUnmarshalCompact(f *testing.F) {
	const z, w = 3, 16
	fam, err := hashutil.NewFamily(hashutil.KindPolynomial, z, w, 7)
	if err != nil {
		f.Fatal(err)
	}
	b, err := NewBuilder(Count, fam)
	if err != nil {
		f.Fatal(err)
	}
	// A seed at each counter width: 1, 2, 4 and 8 bytes.
	oneByte := b.Compact(b.Sketch(map[uint64]int64{1: 2, 2: 3, 9: 1}, nil)).AppendBinary(nil)
	f.Add(oneByte)
	f.Add(b.Compact(b.Sketch(map[uint64]int64{1: 2, 2: 1000}, nil)).AppendBinary(nil))
	f.Add(b.Compact(b.Sketch(map[uint64]int64{1: 2, 2: 1 << 20}, nil)).AppendBinary(nil))
	f.Add(b.Compact(b.Sketch(map[uint64]int64{1: 2, 2: 1 << 40}, nil)).AppendBinary(nil))
	f.Add(b.Compact(b.Sketch(nil, nil)).AppendBinary(nil))
	f.Add([]byte{})
	f.Add(oneByte[:len(oneByte)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCompact(z, w, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, want ErrCorrupt", err)
			}
			return
		}
		dense := b.Sketch(nil, nil) // the accepted table, row by row
		for row := 0; row < z; row++ {
			for _, rc := range c.AppendRow(nil, row) {
				dense.cells[row*w+rc.Col] = rc.Value
			}
		}
		checkLookups(t, c, dense)
		stored := 0
		for _, v := range dense.cells {
			if v != 0 {
				stored++
			}
		}
		// One marks word and one rank word for the 48 cells.
		width := counterBytes(dense)
		if want := 8 * (2 + stored*width/8 + 1); 1<<c.width != width || c.SizeBytes() != want {
			t.Fatalf("%d non-zero cells at %d bytes each in %d bytes, want %d at %d", stored, 1<<c.width, c.SizeBytes(), want, width)
		}
		if !bytes.Equal(c.AppendBinary(nil), data) {
			t.Fatal("accepted bytes do not re-serialize to themselves")
		}
		if !bytes.Equal(b.Compact(dense).AppendBinary(nil), data) {
			t.Fatal("accepted bytes are not what the table compacts to")
		}
	})
}
