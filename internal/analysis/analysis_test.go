package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureCase binds a testdata directory to the analyzer it exercises.
var fixtureCases = []struct {
	dir      string
	analyzer *Analyzer
}{
	{"privacy", PrivacyBoundary},
	{"taint", PrivacyBoundary},
	{"mapiter", MapIter},
	{"uncheckederr", UncheckedErr},
	{"telemetrylabel", TelemetryLabel},
	{"lockhold", LockHold},
	{"determinism", Determinism},
	{"budgetflow", BudgetFlow},
	{"allowaudit", MapIter},
}

// TestFixtures runs each analyzer over its testdata package and checks
// the diagnostics against the `// want "substring"` comments: every
// want line must produce a matching diagnostic, every diagnostic must
// be wanted, and suppressed lines must stay silent.
func TestFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			diags, wants := runFixture(t, tc.dir, tc.analyzer)
			if len(wants) == 0 {
				t.Fatalf("fixture %s declares no // want expectations", tc.dir)
			}
			for _, problem := range compareFixture(diags, wants) {
				t.Error(problem)
			}
		})
	}
}

// TestFixtureHarness is the harness's own fixture: testdata/meta holds
// one want comment nothing matches and one diagnostic nothing wants,
// and compareFixture must fail on both — otherwise every other fixture
// could rot silently.
func TestFixtureHarness(t *testing.T) {
	diags, wants := runFixture(t, "meta", MapIter)
	problems := compareFixture(diags, wants)
	var unmatchedWant, unexpectedDiag bool
	for _, p := range problems {
		if strings.Contains(p, "wanted diagnostic") {
			unmatchedWant = true
		}
		if strings.Contains(p, "unexpected diagnostic") {
			unexpectedDiag = true
		}
	}
	if !unmatchedWant {
		t.Errorf("harness did not fail the unmatched want comment; problems: %v", problems)
	}
	if !unexpectedDiag {
		t.Errorf("harness did not fail the unexpected diagnostic; problems: %v", problems)
	}
	if len(problems) != 2 {
		t.Errorf("expected exactly 2 problems from testdata/meta, got %d: %v", len(problems), problems)
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	line   int
	substr string
}

// compareFixture matches diagnostics against want expectations and
// returns every discrepancy: a want with no diagnostic on its line
// containing its substring, or a diagnostic no want claims.
func compareFixture(diags []Diagnostic, wants []want) []string {
	var problems []string
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && d.Pos.Line == w.line && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			problems = append(problems,
				fmt.Sprintf("line %d: wanted diagnostic containing %q, got none", w.line, w.substr))
		}
	}
	for i, d := range diags {
		if !matched[i] {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	return problems
}

// runFixture loads one testdata package, runs a single analyzer with
// suppressions applied, and extracts the fixture's want expectations.
func runFixture(t *testing.T, dir string, a *Analyzer) ([]Diagnostic, []want) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", dir), "fixture/"+dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(loader.Fset, loader.Packages())
	var diags []Diagnostic
	RunPackage(ctx, pkg, []*Analyzer{a}, &diags)
	diags = ctx.applySuppressions([]*Package{pkg}, diags)

	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Both comment forms carry wants; the block form lets a
				// want share a line with a directive under test.
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, `want "`)
				if !ok {
					continue
				}
				substr, ok := strings.CutSuffix(rest, `"`)
				if !ok {
					t.Fatalf("malformed want comment: %s", c.Text)
				}
				wants = append(wants, want{line: loader.Fset.Position(c.Pos()).Line, substr: substr})
			}
		}
	}
	return diags, wants
}

// TestRepoIsClean asserts the acceptance criterion directly: the full
// analyzer suite reports nothing on the repository itself.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text   string
		names  []string
		reason string
		ok     bool
	}{
		{"//csfltr:allow uncheckederr -- best-effort cleanup", []string{"uncheckederr"}, "best-effort cleanup", true},
		{"//csfltr:allow privacyboundary,mapiter -- two at once", []string{"privacyboundary", "mapiter"}, "two at once", true},
		{"//csfltr:allow all", []string{"all"}, "", true},
		{"//csfltr:allowed nothing", nil, "", false},
		{"// regular comment", nil, "", false},
	}
	for _, tc := range cases {
		names, reason, ok := parseAllow(tc.text)
		if ok != tc.ok {
			t.Errorf("parseAllow(%q) ok = %v, want %v", tc.text, ok, tc.ok)
			continue
		}
		if fmt.Sprint(names) != fmt.Sprint(tc.names) {
			t.Errorf("parseAllow(%q) names = %v, want %v", tc.text, names, tc.names)
		}
		if reason != tc.reason {
			t.Errorf("parseAllow(%q) reason = %q, want %q", tc.text, reason, tc.reason)
		}
	}
}

// TestReasonlessAllowDoesNotSuppress pins the v2 suppression contract:
// a //csfltr:allow without `-- reason` must not cover anything and must
// itself surface as an "allow" finding (exercised end-to-end by the
// allowaudit fixture; this covers the index directly).
func TestReasonlessAllowDoesNotSuppress(t *testing.T) {
	names, reason, ok := parseAllow("//csfltr:allow mapiter")
	if !ok || reason != "" {
		t.Fatalf("parseAllow = (%v, %q, %v)", names, reason, ok)
	}
	names, reason, ok = parseAllow("//csfltr:allow mapiter --   ")
	if !ok || reason != "" {
		t.Fatalf("whitespace-only reason must parse empty, got %q (ok=%v, names=%v)", reason, ok, names)
	}
}

func TestSplitNameSegments(t *testing.T) {
	cases := map[string][]string{
		"docID":      {"doc", "ID"},
		"request_id": {"request", "id"},
		"route":      {"route"},
		"QueryID":    {"Query", "ID"},
		"httpCode":   {"http", "Code"},
	}
	for in, wantSegs := range cases {
		got := splitNameSegments(in)
		if fmt.Sprint(got) != fmt.Sprint(wantSegs) {
			t.Errorf("splitNameSegments(%q) = %v, want %v", in, got, wantSegs)
		}
	}
	if !isTaintedName("docID") || !isTaintedName("request_id") || !isTaintedName("uuid") {
		t.Error("id-like names must be tainted")
	}
	if isTaintedName("route") || isTaintedName("method") || isTaintedName("httpCode") || isTaintedName("valid") {
		t.Error("bounded names must not be tainted")
	}
}

func TestDiscoverPackages(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.DiscoverPackages([]string{"./internal/analysis/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0] != "csfltr/internal/analysis" {
		t.Fatalf("DiscoverPackages = %v, want [csfltr/internal/analysis] (testdata must be skipped)", paths)
	}
	all, err := loader.DiscoverPackages([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(all))
	for _, p := range all {
		if seen[p] {
			t.Fatalf("duplicate package %s", p)
		}
		seen[p] = true
		if strings.Contains(p, "testdata") {
			t.Fatalf("testdata package leaked into discovery: %s", p)
		}
	}
	for _, must := range []string{"csfltr", "csfltr/internal/federation", "csfltr/cmd/csfltr-vet"} {
		if !seen[must] {
			t.Errorf("DiscoverPackages missing %s (got %d packages)", must, len(all))
		}
	}
}

// TestMarkersCrossPackage checks that a type marked in one package is
// recognized when used from another: the real textkit.TermVector marker
// must poison a struct in a freshly loaded dependent package.
func TestMarkersCrossPackage(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("csfltr/internal/textkit")
	if err != nil {
		t.Fatal(err)
	}
	markers := CollectMarkers(loader.Packages())
	if markers.Empty() {
		t.Fatal("no //csfltr:private markers found in internal/textkit")
	}
	tv := pkg.Types.Scope().Lookup("TermVector")
	if tv == nil {
		t.Fatal("TermVector not found")
	}
	if !markers.IsPrivate(tv) {
		t.Error("TermVector must be marked private")
	}
	if !markers.ContainsPrivate(tv.Type()) {
		t.Error("TermVector's type must contain private data")
	}
	doc := pkg.Types.Scope().Lookup("Document")
	if doc == nil || !markers.ContainsPrivate(doc.Type()) {
		t.Error("Document must contain private data")
	}
	q := pkg.Types.Scope().Lookup("Query")
	if q == nil {
		t.Fatal("Query not found")
	}
	if markers.IsPrivate(q) {
		t.Error("Query itself is not marked; only structural containment applies")
	}
}
