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
// have laid out — it expands, answers every cell the expansion holds,
// stores exactly the non-zero ones, and (unless it took the wide encoding
// for a table the narrow one fits) is byte for byte what the expansion
// compacts to.
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
	narrow := b.Compact(b.Sketch(map[uint64]int64{1: 2, 2: 3, 9: 1})).AppendBinary(nil)
	f.Add(narrow)
	f.Add(b.Compact(b.Sketch(map[uint64]int64{1: 2, 2: 1 << 20})).AppendBinary(nil))
	f.Add(b.Compact(b.Sketch(nil)).AppendBinary(nil))
	f.Add([]byte{})
	f.Add(narrow[:len(narrow)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalCompact(z, w, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, want ErrCorrupt", err)
			}
			return
		}
		dense, err := b.Expand(c)
		if err != nil {
			t.Fatalf("accepted table does not expand: %v", err)
		}
		checkLookups(t, c, dense)
		stored := 0
		for _, v := range dense.cells {
			if v != 0 {
				stored++
			}
		}
		if want := int(data[0]) * (2*z + stored); c.SizeBytes() != want { // one group of columns a row
			t.Fatalf("%d non-zero cells in %d bytes, want %d", stored, c.SizeBytes(), want)
		}
		if !bytes.Equal(c.AppendBinary(nil), data) {
			t.Fatal("accepted bytes do not re-serialize to themselves")
		}
		if again := b.Compact(dense); (again.narrow != nil) == (c.narrow != nil) && !bytes.Equal(again.AppendBinary(nil), data) {
			t.Fatal("accepted bytes are not what the table compacts to")
		}
	})
}
