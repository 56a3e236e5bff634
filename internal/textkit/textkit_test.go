package textkit

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"", nil},
		{"   ", nil},
		{"foo-bar_baz", []string{"foo", "bar", "baz"}},
		{"BM25 scores: 1.5e3", []string{"bm25", "scores", "1", "5e3"}},
		{"Ünïcode Tèst", []string{"ünïcode", "tèst"}},
		{"a,b,,c", []string{"a", "b", "c"}},
		{"trailing!", []string{"trailing"}},
	}
	for _, tc := range cases {
		if got := Tokenize(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestVocabularyIntern(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("apple")
	b := v.Intern("banana")
	a2 := v.Intern("apple")
	if a != a2 {
		t.Fatal("re-interning must return the same id")
	}
	if a == b {
		t.Fatal("distinct terms must get distinct ids")
	}
	if id, ok := v.Lookup("banana"); !ok || id != b {
		t.Fatal("Lookup failed for interned term")
	}
	if _, ok := v.Lookup("cherry"); ok {
		t.Fatal("Lookup must not intern")
	}
	// Lookup interned nothing: the next fresh term takes the next id.
	if c := v.Intern("cherry"); a != 0 || b != 1 || c != 2 {
		t.Fatalf("ids %d, %d, %d, want 0, 1, 2", a, b, c)
	}
}

func TestVocabularyDenseIDs(t *testing.T) {
	v := NewVocabulary()
	for i := 0; i < 100; i++ {
		id := v.Intern(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if int(id) >= 100 {
			t.Fatalf("ids must be dense, got %d", id)
		}
	}
}

func TestVocabularyConcurrent(t *testing.T) {
	v := NewVocabulary()
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	var wg sync.WaitGroup
	ids := make([][]TermID, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]TermID, len(words))
			for i, w := range words {
				ids[g][i] = v.Intern(w)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 16; g++ {
		if !reflect.DeepEqual(ids[0], ids[g]) {
			t.Fatal("concurrent interning produced inconsistent ids")
		}
	}
	// Every goroutine interned the same five terms, so the next one is
	// the sixth.
	if id := v.Intern("zeta"); id != TermID(len(words)) {
		t.Fatalf("next id = %d, want %d", id, len(words))
	}
}

func TestInternAll(t *testing.T) {
	v := NewVocabulary()
	ids := v.InternAll([]string{"x", "y", "x"})
	if len(ids) != 3 || ids[0] != ids[2] || ids[0] == ids[1] {
		t.Fatalf("InternAll = %v", ids)
	}
}

func TestCountTerms(t *testing.T) {
	tv := CountTerms([]TermID{1, 2, 1, 3, 1, 2})
	if tv[1] != 3 || tv[2] != 2 || tv[3] != 1 {
		t.Fatalf("CountTerms = %v", tv)
	}
	if tv.Total() != 6 {
		t.Fatalf("Total = %d, want 6", tv.Total())
	}
	if tv.Unique() != 3 {
		t.Fatalf("Unique = %d, want 3", tv.Unique())
	}
}

// TestCountTermsTotalProperty checks Total == len(input) for arbitrary
// term sequences.
func TestCountTermsTotalProperty(t *testing.T) {
	check := func(raw []uint8) bool {
		ids := make([]TermID, len(raw))
		for i, r := range raw {
			ids[i] = TermID(r)
		}
		return CountTerms(ids).Total() == len(ids)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDocumentCounts(t *testing.T) {
	d := NewDocument(7, 2, []TermID{10, 11}, []TermID{1, 2, 1, 3})
	if d.Len() != 4 || len(d.Title) != 2 {
		t.Fatalf("Len=%d, title %v", d.Len(), d.Title)
	}
	bc := d.BodyCounts()
	if bc[1] != 2 || bc[2] != 1 || bc[3] != 1 {
		t.Fatalf("BodyCounts = %v", bc)
	}
	tc := d.TitleCounts()
	if tc[10] != 1 || tc[11] != 1 {
		t.Fatalf("TitleCounts = %v", tc)
	}
	// Cached: same map returned.
	if &bc == nil || d.BodyCounts()[1] != 2 {
		t.Fatal("cached counts changed")
	}
}

func TestDocumentCountsConcurrent(t *testing.T) {
	d := NewDocument(0, -1, []TermID{5}, []TermID{1, 1, 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d.BodyCounts()[1] != 2 {
				t.Error("concurrent BodyCounts mismatch")
			}
		}()
	}
	wg.Wait()
}

func TestQueryUniqueTerms(t *testing.T) {
	q := NewQuery(1, 0, []TermID{5, 3, 5, 7, 3})
	got := q.UniqueTerms()
	if !reflect.DeepEqual(got, []TermID{5, 3, 7}) {
		t.Fatalf("UniqueTerms = %v", got)
	}
	empty := NewQuery(2, -1, nil)
	if len(empty.UniqueTerms()) != 0 {
		t.Fatal("empty query should have no unique terms")
	}
}
