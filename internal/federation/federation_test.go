package federation

import (
	"errors"
	"math"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/textkit"
)

// testParams returns collision-light protocol parameters with DP off.
func testParams() core.Params {
	p := core.DefaultParams()
	p.W = 512
	p.Z = 9
	p.Z1 = 5
	p.Epsilon = 0
	p.K = 5
	return p
}

func doc(id int, body ...textkit.TermID) *textkit.Document {
	return textkit.NewDocument(id, -1, []textkit.TermID{textkit.TermID(1000 + id)}, body)
}

func twoPartyFed(t *testing.T, p core.Params) *Federation {
	t.Helper()
	fed, err := NewDeterministic([]string{"A", "B"}, p, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := fed.Party("A")
	b, _ := fed.Party("B")
	if err := a.IngestAllParallel([]*textkit.Document{
		doc(0, 5, 5, 6),
		doc(1, 6, 7),
	}, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.IngestAllParallel([]*textkit.Document{
		doc(0, 5, 5, 5, 5, 9),
		doc(1, 5, 9, 9),
		doc(2, 8, 8, 8),
	}, 0); err != nil {
		t.Fatal(err)
	}
	return fed
}

func TestFieldString(t *testing.T) {
	if FieldBody.String() != "body" || FieldTitle.String() != "title" {
		t.Fatal("field names wrong")
	}
	if Field(9).String() == "" {
		t.Fatal("unknown field should render")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewDeterministic(nil, testParams(), 1, 1); err == nil {
		t.Fatal("no parties should error")
	}
	bad := testParams()
	bad.Z = 0
	if _, err := NewDeterministic([]string{"A"}, bad, 1, 1); !errors.Is(err, core.ErrBadParams) {
		t.Fatalf("bad params: %v", err)
	}
	if _, err := NewParty("", PartyConfig{Params: testParams()}); err == nil {
		t.Fatal("empty name should error")
	}
}

func TestNewWithCeremony(t *testing.T) {
	fed, err := New([]string{"A", "B", "C"}, testParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Parties) != 3 {
		t.Fatalf("parties = %d", len(fed.Parties))
	}
	if fed.HashSeed == 0 {
		t.Fatal("ceremony produced zero seed (suspicious)")
	}
	names := fed.Server.PartyNames()
	if len(names) != 3 || names[0] != "A" || names[2] != "C" {
		t.Fatalf("names = %v", names)
	}
}

func TestServerRegisterDuplicate(t *testing.T) {
	srv := NewServer()
	p, err := NewParty("A", PartyConfig{Params: testParams(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(p); err == nil {
		t.Fatal("duplicate registration should error")
	}
	if _, err := srv.OwnerFor("ZZZ", FieldBody); !errors.Is(err, ErrUnknownParty) {
		t.Fatal("unknown party should error")
	}
	if _, err := srv.OwnerFor("A", Field(9)); !errors.Is(err, ErrUnknownField) {
		t.Fatal("unknown field should error")
	}
}

func TestCrossTFExact(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	// Term 5 occurs 4x in B's doc 0, 1x in doc 1, 0x in doc 2.
	cases := []struct {
		docID int
		want  float64
	}{{0, 4}, {1, 1}, {2, 0}}
	for _, tc := range cases {
		got, err := fed.CrossTF("A", "B", FieldBody, tc.docID, 5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("CrossTF doc %d = %v, want %v", tc.docID, got, tc.want)
		}
	}
	// Title field is sketched separately.
	got, err := fed.CrossTF("A", "B", FieldTitle, 1, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("title TF = %v, want 1", got)
	}
}

func TestCrossTFSelfQuery(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	if _, err := fed.CrossTF("A", "A", FieldBody, 0, 5); !errors.Is(err, ErrSelfQuery) {
		t.Fatal("self query should be rejected")
	}
	if _, _, err := fed.ReverseTopK("A", "A", FieldBody, 5, 3, true); !errors.Is(err, ErrSelfQuery) {
		t.Fatal("self reverse top-K should be rejected")
	}
	if _, err := fed.CrossTF("ZZ", "B", FieldBody, 0, 5); !errors.Is(err, ErrUnknownParty) {
		t.Fatal("unknown source should error")
	}
	if _, err := fed.CrossTF("A", "ZZ", FieldBody, 0, 5); !errors.Is(err, ErrUnknownParty) {
		t.Fatal("unknown target should error")
	}
}

func TestReverseTopKBothAlgorithms(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	for _, useRTK := range []bool{false, true} {
		got, cost, err := fed.ReverseTopK("A", "B", FieldBody, 5, 2, useRTK)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || got[0].DocID != 0 {
			t.Fatalf("useRTK=%v: top doc = %v, want doc 0", useRTK, got)
		}
		if cost.BytesReceived == 0 {
			t.Fatalf("useRTK=%v: no response traffic recorded", useRTK)
		}
	}
}

func TestTrafficAccounting(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	fed.Server.ResetTraffic()
	if _, _, err := fed.ReverseTopK("A", "B", FieldBody, 5, 2, true); err != nil {
		t.Fatal(err)
	}
	tr := fed.Server.Traffic()
	if tr.Messages < 2 || tr.Bytes <= 0 {
		t.Fatalf("traffic = %+v, want at least request+response", tr)
	}
	fed.Server.ResetTraffic()
	if got := fed.Server.Traffic(); got.Messages != 0 || got.Bytes != 0 {
		t.Fatal("ResetTraffic did not clear counters")
	}
}

func TestPrivacyAccounting(t *testing.T) {
	p := testParams()
	p.Epsilon = 0.5
	fed := twoPartyFed(t, p)
	a, _ := fed.Party("A")
	if _, err := fed.CrossTF("A", "B", FieldBody, 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fed.ReverseTopK("A", "B", FieldBody, 5, 2, true); err != nil {
		t.Fatal(err)
	}
	if got := a.Accountant().Spent("B"); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("accountant recorded %v, want 1.0 (two queries at eps=0.5)", got)
	}
}

func TestPrivacyBudgetEnforced(t *testing.T) {
	p := testParams()
	p.Epsilon = 0.5
	party, err := NewParty("A", PartyConfig{Params: p, Seed: 42, RNGSeed: 1, Budget: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewParty("B", PartyConfig{Params: p, Seed: 42, RNGSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.IngestDocument(doc(0, 5, 5)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if err := srv.Register(party); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(other); err != nil {
		t.Fatal(err)
	}
	fed := &Federation{Server: srv, Parties: []*Party{party, other}, Params: p, HashSeed: 42}
	if _, err := fed.CrossTF("A", "B", FieldBody, 0, 5); err != nil {
		t.Fatal(err)
	}
	// Second query would exceed 0.7 budget.
	if _, err := fed.CrossTF("A", "B", FieldBody, 0, 5); err == nil {
		t.Fatal("budget overrun should be refused")
	}
}

func TestIngestDuplicate(t *testing.T) {
	p, err := NewParty("A", PartyConfig{Params: testParams(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.IngestDocument(doc(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.IngestDocument(doc(0, 2)); err == nil {
		t.Fatal("duplicate doc id should error")
	}
	if p.NumDocs() != 1 {
		t.Fatalf("NumDocs = %d", p.NumDocs())
	}
}

func TestCountsToUint64(t *testing.T) {
	tv := textkit.TermVector{3: 2, 9: 5}
	m := CountsToUint64(tv)
	if len(m) != 2 || m[3] != 2 || m[9] != 5 {
		t.Fatalf("CountsToUint64 = %v", m)
	}
}
