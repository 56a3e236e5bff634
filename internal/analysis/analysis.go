// Package analysis is the project-specific static-analysis suite behind
// cmd/csfltr-vet. It enforces, at compile time, the invariants the
// CS-F-LTR system cannot test its way out of:
//
//   - the privacy boundary — raw term statistics, DH private keys and
//     shared hash seeds (anything marked `//csfltr:private`) must never
//     flow into wire-message structs, marshal paths, or fmt/log/metric
//     label arguments — including through helper calls, tracked
//     interprocedurally over a type-based call graph (taint.go);
//   - determinism — paper tables, sketch contents and merge/ranking
//     paths marked `//csfltr:deterministic` must not depend on map
//     iteration order, wall-clock time, or global math/rand state;
//   - budget flow — every path releasing estimates to a peer
//     (`//csfltr:releases`) must pay via dp.Accountant or be a declared
//     zero-epsilon replay;
//   - concurrency hygiene — no blocking channel/RPC/HTTP operation may
//     run while a mutex is held (lockhold); copied locks are go vet's
//     copylocks check;
//
// plus two first-order hygiene properties: silently dropped errors on
// transport/store/encoder calls, and unbounded metric-label cardinality.
//
// The suite is stdlib-only: packages are loaded by the Loader in this
// package (go/parser + go/types with a source importer), not by
// golang.org/x/tools. Findings can be suppressed at a specific line with
// `//csfltr:allow <analyzer>[,<analyzer>] -- <justification>` on the
// flagged line or the line above it; the justification is mandatory —
// a suppression without one is itself reported and does not suppress.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: an analyzer, a position, a message, and —
// for interprocedural findings — the call chain from the flagged
// expression to the offending sink.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Chain is the call path supporting an interprocedural finding
	// (enclosing function first, sink last); empty for local findings.
	Chain []string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Context is the run-wide state shared by every pass: the file set, the
// federation-wide privacy markers, the call graph over every loaded
// package, the suppression index, and the taint-summary cache.
type Context struct {
	Fset    *token.FileSet
	Markers *Markers
	Graph   *CallGraph

	allows allowIndex
	taint  *taintEngine
}

// NewContext builds the shared analysis context over every loaded
// package (markers and the call graph span dependencies outside the
// analyzed pattern set, so a marked type or helper in internal/textkit
// is known everywhere).
func NewContext(fset *token.FileSet, pkgs []*Package) *Context {
	ctx := &Context{
		Fset:    fset,
		Markers: CollectMarkers(pkgs),
		Graph:   BuildCallGraph(pkgs),
		allows:  buildAllowIndex(fset, pkgs),
	}
	ctx.taint = newTaintEngine(fset, ctx.Markers, ctx.Graph, ctx.allows)
	return ctx
}

// Pass is the per-package, per-analyzer unit of work handed to Run.
type Pass struct {
	*Context
	Pkg *Package

	diags *[]Diagnostic
	name  string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportChain(pos, nil, format, args...)
}

// ReportChain records a diagnostic carrying a supporting call chain.
func (p *Pass) ReportChain(pos token.Pos, chain []string, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// TypeOf returns the static type of an expression (nil if unknown).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Analyzer is one named check.
type Analyzer struct {
	Name string // stable identifier, used in //csfltr:allow
	Doc  string // one-line description for -list
	Run  func(*Pass)
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		PrivacyBoundary,
		MapIter,
		UncheckedErr,
		TelemetryLabel,
		LockHold,
		Determinism,
		BudgetFlow,
	}
}

// Run loads the packages matching patterns under the module rooted at
// root, builds the shared context (markers, call graph, suppressions),
// runs every analyzer over every matched package, and returns the
// surviving (non-suppressed) diagnostics sorted by position.
func Run(root string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := loader.DiscoverPackages(patterns)
	if err != nil {
		return nil, err
	}
	matched := make([]*Package, 0, len(paths))
	for _, path := range paths {
		p, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		matched = append(matched, p)
	}
	ctx := NewContext(loader.Fset, loader.Packages())
	var diags []Diagnostic
	for _, p := range matched {
		RunPackage(ctx, p, analyzers, &diags)
	}
	diags = ctx.applySuppressions(matched, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// RunPackage applies analyzers to one package, appending to diags. It
// does not apply suppressions; Run does.
func RunPackage(ctx *Context, pkg *Package, analyzers []*Analyzer, diags *[]Diagnostic) {
	for _, a := range analyzers {
		pass := &Pass{Context: ctx, Pkg: pkg, diags: diags, name: a.Name}
		a.Run(pass)
	}
}

// allowDirective is the suppression marker prefix.
const allowDirective = "//csfltr:allow"

// privateDirective marks a type, field, or variable as silo-private.
const privateDirective = "//csfltr:private"

// allowEntry is one parsed //csfltr:allow directive.
type allowEntry struct {
	pos    token.Position
	names  []string
	reason string
}

// allowIndex maps filename -> line -> analyzer names allowed there; a
// directive covers its own line and the line directly below it.
type allowIndex struct {
	byLine  map[string]map[int]map[string]bool
	invalid []allowEntry // directives missing the mandatory reason
}

// buildAllowIndex collects every //csfltr:allow directive over the given
// packages. Directives without a `-- reason` justification are recorded
// as invalid and do not suppress anything.
func buildAllowIndex(fset *token.FileSet, pkgs []*Package) allowIndex {
	idx := allowIndex{byLine: make(map[string]map[int]map[string]bool)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					if reason == "" {
						idx.invalid = append(idx.invalid, allowEntry{pos: pos, names: names})
						continue
					}
					byLine := idx.byLine[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]map[string]bool)
						idx.byLine[pos.Filename] = byLine
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						set := byLine[line]
						if set == nil {
							set = make(map[string]bool)
							byLine[line] = set
						}
						for _, n := range names {
							set[n] = true
						}
					}
				}
			}
		}
	}
	return idx
}

// covers reports whether the given position is suppressed for analyzer.
func (idx allowIndex) covers(pos token.Position, analyzer string) bool {
	set := idx.byLine[pos.Filename][pos.Line]
	return set[analyzer] || set["all"]
}

// applySuppressions drops diagnostics covered by a valid //csfltr:allow
// directive and reports reason-less directives found in the matched
// packages as findings of their own.
func (ctx *Context) applySuppressions(matched []*Package, diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if ctx.allows.covers(d.Pos, d.Analyzer) {
			continue
		}
		out = append(out, d)
	}
	matchedFiles := make(map[string]bool)
	for _, pkg := range matched {
		for _, f := range pkg.Files {
			matchedFiles[ctx.Fset.Position(f.Package).Filename] = true
		}
	}
	for _, inv := range ctx.allows.invalid {
		if !matchedFiles[inv.pos.Filename] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      inv.pos,
			Analyzer: "allow",
			Message: fmt.Sprintf(
				"suppression of %s has no justification; write //csfltr:allow %s -- <reason>",
				strings.Join(inv.names, ","), strings.Join(inv.names, ",")),
		})
	}
	return out
}

// parseAllow parses "//csfltr:allow name1,name2 -- reason" into the
// analyzer names and the justification; ok is false for non-allow
// comments.
func parseAllow(text string) (names []string, reason string, ok bool) {
	rest, found := strings.CutPrefix(text, allowDirective)
	if !found {
		return nil, "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, "", false
	}
	// Everything after " -- " is the human justification.
	if i := strings.Index(rest, "--"); i >= 0 {
		reason = strings.TrimSpace(rest[i+2:])
		rest = rest[:i]
	}
	for _, n := range strings.Split(rest, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, reason, true
}

// hasDirective reports whether a comment group contains the given
// directive as a standalone comment line.
func hasDirective(groups []*ast.CommentGroup, directive string) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimSpace(c.Text)
			if text == directive || strings.HasPrefix(text, directive+" ") {
				return true
			}
		}
	}
	return false
}
