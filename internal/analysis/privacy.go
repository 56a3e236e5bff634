package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// PrivacyBoundary flags silo-private data (declarations marked
// //csfltr:private) escaping the silo:
//
//   - declared as a field of a wire-message struct (a struct with JSON
//     field tags, or named *Args/*Reply/*Request/*Response/*Message);
//   - flowing into a marshal path (encoding/json, encoding/gob), a
//     fmt/log formatting call, a telemetry label constructor, or a
//     trace attribute constructor (AStr/AInt), where it
//     would end up in process output, metric exposition, or the flight
//     recorder's span trees and audit records.
//
// Flows are tracked interprocedurally (taint.go): a private value
// laundered through helper parameters, returns, receivers, struct-field
// assignments, or closures is still caught up to a bounded call depth,
// and the diagnostic carries the full call chain. Calls into the
// sketch/hash/DP packages (or //csfltr:sanitizes functions) stop the
// taint: their outputs are exactly the derived values allowed to cross.
//
// This is the paper's core invariant (PAPER.md §IV): only sketched,
// DP-noised, or keyed-hashed values may cross the federation boundary.
var PrivacyBoundary = &Analyzer{
	Name: "privacyboundary",
	Doc:  "flags //csfltr:private data flowing (incl. through helpers) into wire structs, marshal paths, fmt/log/metric labels, or trace attributes",
	Run:  runPrivacyBoundary,
}

// wireNameRE matches struct type names that are wire messages by naming
// convention (the net/rpc argument/reply pattern).
var wireNameRE = regexp.MustCompile(`(Args|Reply|Request|Response|Message)$`)

func runPrivacyBoundary(pass *Pass) {
	if pass.Markers.Empty() {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				reportTaintFlows(pass, fd)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if spec, ok := n.(*ast.TypeSpec); ok {
				checkWireStruct(pass, spec)
			}
			return true
		})
	}
}

// reportTaintFlows runs the local taint analysis over one function with
// the //csfltr:private markers as sources and reports every sink hit.
func reportTaintFlows(pass *Pass, fd *ast.FuncDecl) {
	lf := newLocalFlow(pass.taint, pass.Pkg, fd, false)
	lf.run()
	enclosing := "func"
	if obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
		enclosing = funcDisplayName(obj)
	}
	for _, hit := range lf.hits {
		name := privateSourceName(pass, hit.expr)
		if len(hit.reach.chain) <= 1 {
			// Direct sink: the classic intra-procedural finding.
			pass.Reportf(hit.pos,
				"silo-private value (%s) passed to %s %s; private data must not reach %s",
				name, hit.reach.kind, hit.reach.sink, sinkTarget(hit.reach.kind))
			continue
		}
		chain := append([]string{enclosing}, hit.reach.chain...)
		pass.ReportChain(hit.pos, chain,
			"silo-private value (%s) reaches %s %s via %s; private data must not reach %s",
			name, hit.reach.kind, hit.reach.sink, strings.Join(chain, " -> "),
			sinkTarget(hit.reach.kind))
	}
}

// privateSourceName renders the marked constituent behind a tainted
// expression: the expression's own type when it is private, the operand
// of a laundering conversion, or a generic description for values that
// picked up taint through local data flow.
func privateSourceName(pass *Pass, expr ast.Expr) string {
	if t := pass.TypeOf(expr); t != nil && pass.Markers.ContainsPrivate(t) {
		return pass.Markers.PrivateName(t)
	}
	if inner := conversionOperand(pass, expr); inner != nil {
		if t := pass.TypeOf(inner); t != nil && pass.Markers.ContainsPrivate(t) {
			return pass.Markers.PrivateName(t)
		}
	}
	return "derived from a //csfltr:private source"
}

// checkWireStruct flags private data declared inside a wire-message
// struct.
func checkWireStruct(pass *Pass, spec *ast.TypeSpec) {
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		return
	}
	if !wireNameRE.MatchString(spec.Name.Name) && !hasJSONTag(st) {
		return
	}
	for _, field := range st.Fields.List {
		t := pass.TypeOf(field.Type)
		if t == nil || !pass.Markers.ContainsPrivate(t) {
			continue
		}
		pass.Reportf(field.Pos(),
			"wire struct %s carries silo-private data (%s); only sketched, DP-noised, or keyed-hashed values may cross the federation boundary",
			spec.Name.Name, pass.Markers.PrivateName(t))
	}
}

// wireTypeName reports the declared name of t when it is a wire-message
// struct — by naming convention or by carrying json field tags — and ""
// otherwise. Pointers are dereferenced: storing into (*SearchReply).F
// crosses the boundary all the same.
func wireTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	name := named.Obj().Name()
	if wireNameRE.MatchString(name) {
		return name
	}
	for i := 0; i < st.NumFields(); i++ {
		if strings.Contains(st.Tag(i), `json:"`) {
			return name
		}
	}
	return ""
}

// hasJSONTag reports whether any field of the struct carries a json
// tag, the marker of a serialized wire shape.
func hasJSONTag(st *ast.StructType) bool {
	for _, field := range st.Fields.List {
		if field.Tag != nil && strings.Contains(field.Tag.Value, `json:"`) {
			return true
		}
	}
	return false
}

// conversionOperand returns the operand of a type-conversion expression
// (T(x) -> x), or nil if e is not a conversion. Conversions preserve the
// value, so a private operand stays private through them; builtin and
// ordinary calls (len, hash functions...) return nil since their results
// are derived.
func conversionOperand(pass *Pass, e ast.Expr) ast.Expr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return call.Args[0]
	}
	return nil
}

// sinkKind classifies a callee as a privacy sink; "" means not a sink.
func sinkKind(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	path, name := pkg.Path(), fn.Name()
	switch {
	case path == "fmt" && (strings.HasPrefix(name, "Print") ||
		strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Sprint") ||
		name == "Errorf" || name == "Sprintf" || name == "Appendf"):
		return "format call"
	case path == "log":
		return "log call"
	case path == "encoding/json" || path == "encoding/gob" || path == "encoding/xml":
		return "marshal call"
	case isTelemetryPath(path) && (name == "L" || name == "Label"):
		return "telemetry label"
	case isTelemetryPath(path) && (name == "AStr" || name == "AInt"):
		return "trace attribute"
	case isWirePath(path) && (strings.HasPrefix(name, "Append") || name == "Pack"):
		// The binary codec's encoders put their arguments on the
		// federation wire, exactly like a wire-struct field assignment.
		return "wire encode"
	}
	return ""
}

// sinkTarget names where the data would leak for the diagnostic text.
func sinkTarget(kind string) string {
	switch kind {
	case "wire struct field", "wire encode":
		return "the federation wire"
	case "marshal call":
		return "a serialized payload"
	case "telemetry label":
		return "metric exposition"
	case "trace attribute":
		return "the flight recorder"
	default:
		return "process output"
	}
}

// isTelemetryPath matches this repo's telemetry package (and a fixture
// stand-in ending in /telemetry).
func isTelemetryPath(path string) bool {
	return path == "csfltr/internal/telemetry" || strings.HasSuffix(path, "/telemetry")
}

// isWirePath matches this repo's binary codec package (and a fixture
// stand-in ending in /wire).
func isWirePath(path string) bool {
	return path == "csfltr/internal/wire" || strings.HasSuffix(path, "/wire")
}

// calleeFunc resolves the *types.Func a call invokes (nil for builtins,
// type conversions, and indirect calls through non-selector variables).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pass.Pkg.Info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = pass.Pkg.Info.Uses[fun.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}
