package corpus

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"csfltr/internal/textkit"
)

func TestTSVRoundTrip(t *testing.T) {
	c, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := c.Parties[0]
	var docBuf, qBuf bytes.Buffer
	if err := WriteDocsTSV(&docBuf, p.Docs); err != nil {
		t.Fatal(err)
	}
	if err := WriteQueriesTSV(&qBuf, p.Queries); err != nil {
		t.Fatal(err)
	}
	docs, err := ReadDocsTSV(&docBuf)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := ReadQueriesTSV(&qBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(p.Docs) || len(queries) != len(p.Queries) {
		t.Fatalf("round trip lost entries: %d/%d docs, %d/%d queries",
			len(docs), len(p.Docs), len(queries), len(p.Queries))
	}
	for i, d := range docs {
		orig := p.Docs[i]
		if d.ID != orig.ID || d.Topic != orig.Topic || len(d.Body) != len(orig.Body) || len(d.Title) != len(orig.Title) {
			t.Fatalf("doc %d metadata differs", i)
		}
		for j := range d.Body {
			if d.Body[j] != orig.Body[j] {
				t.Fatalf("doc %d body term %d differs", i, j)
			}
		}
	}
	for i, q := range queries {
		orig := p.Queries[i]
		if q.ID != orig.ID || q.Topic != orig.Topic || len(q.Terms) != len(orig.Terms) {
			t.Fatalf("query %d differs", i)
		}
	}
}

func TestReadDocsTSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "nope\tnope\n"},
		{"missing fields", "doc_id\ttopic\ttitle_terms\tbody_terms\n0\t1\n"},
		{"bad id", "doc_id\ttopic\ttitle_terms\tbody_terms\nX\t1\t2\t3\n"},
		{"bad topic", "doc_id\ttopic\ttitle_terms\tbody_terms\n0\tX\t2\t3\n"},
		{"bad term", "doc_id\ttopic\ttitle_terms\tbody_terms\n0\t1\t2\tX Y\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadDocsTSV(strings.NewReader(tc.in)); !errors.Is(err, ErrBadTSV) {
				t.Fatalf("want ErrBadTSV, got %v", err)
			}
		})
	}
}

func TestReadQueriesTSVErrors(t *testing.T) {
	cases := []string{
		"",
		"nope\n",
		"query_id\ttopic\tterms\n0\t1\n",
		"query_id\ttopic\tterms\nX\t1\t2\n",
	}
	for i, in := range cases {
		if _, err := ReadQueriesTSV(strings.NewReader(in)); !errors.Is(err, ErrBadTSV) {
			t.Fatalf("case %d: want ErrBadTSV, got %v", i, err)
		}
	}
}

func TestReadDocsTSVEmptyTitle(t *testing.T) {
	in := "doc_id\ttopic\ttitle_terms\tbody_terms\n0\t-1\t\t5 5 6\n"
	docs, err := ReadDocsTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || len(docs[0].Title) != 0 || docs[0].Len() != 3 {
		t.Fatalf("docs = %+v", docs[0])
	}
}

// TestFromPartiesMatchesGenerate: assembling a corpus from a generated
// corpus's own raw parts must reproduce identical ground truth.
func TestFromPartiesMatchesGenerate(t *testing.T) {
	cfg := TestConfig()
	orig, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([][]*textkit.Document, len(orig.Parties))
	queries := make([][]*textkit.Query, len(orig.Parties))
	for i, p := range orig.Parties {
		docs[i] = p.Docs
		queries[i] = p.Queries
	}
	rebuilt, err := FromParties(cfg, docs, queries)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range orig.Parties {
		for _, q := range orig.Parties[pi].Queries {
			qref := QueryRef{Party: pi, Query: q.ID}
			a := orig.GroundTruth(qref)
			b := rebuilt.GroundTruth(qref)
			if len(a) != len(b) {
				t.Fatalf("%v: ground truth sizes differ", qref)
			}
			for i := range a {
				if a[i].Ref != b[i].Ref || a[i].Label != b[i].Label {
					t.Fatalf("%v rank %d: %+v vs %+v", qref, i, a[i], b[i])
				}
			}
		}
	}
}

func TestFromPartiesValidation(t *testing.T) {
	cfg := TestConfig()
	doc := textkit.NewDocument(0, -1, nil, []textkit.TermID{1, 2})
	q := textkit.NewQuery(0, -1, []textkit.TermID{1})
	if _, err := FromParties(cfg, nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatal("empty input should error")
	}
	if _, err := FromParties(cfg,
		[][]*textkit.Document{{doc}}, [][]*textkit.Query{}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("mismatched lengths should error")
	}
	if _, err := FromParties(cfg,
		[][]*textkit.Document{{}}, [][]*textkit.Query{{q}}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("empty party should error")
	}
	if _, err := FromParties(cfg,
		[][]*textkit.Document{{doc}}, [][]*textkit.Query{{}}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("no queries should error")
	}
	badDoc := textkit.NewDocument(5, -1, nil, []textkit.TermID{1})
	if _, err := FromParties(cfg,
		[][]*textkit.Document{{badDoc}}, [][]*textkit.Query{{q}}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("non-dense doc ids should error")
	}
}
