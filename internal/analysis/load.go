package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package: the unit every analyzer runs over.
type Package struct {
	Path  string      // import path ("csfltr/internal/core")
	Dir   string      // absolute directory
	Files []*ast.File // non-test files, parsed with comments
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module without shelling
// out to the go tool: intra-module imports are resolved against the
// module root, everything else (the standard library) is type-checked
// from $GOROOT/src via go/importer's source importer. Test files are
// excluded — the analyzers guard production code paths.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	pkgs    map[string]*Package // import path -> loaded package
	loading map[string]bool     // cycle detection
}

// std type-checks the standard library from source once per process:
// every Loader shares its importer and the FileSet the importer records
// positions in, so a second loader (each fixture test builds its own)
// does not check fmt or net/http again.
var std struct {
	once sync.Once
	mu   sync.Mutex // the source importer is not safe for concurrent use
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader builds a loader for the module rooted at root (a directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	std.once.Do(func() {
		std.fset = token.NewFileSet()
		std.imp = importer.ForCompiler(std.fset, "source", nil)
	})
	return &Loader{
		Fset:       std.fset,
		ModuleRoot: abs,
		ModulePath: modPath,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Packages returns every package loaded so far, sorted by import path.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Load type-checks the package with the given import path, loading its
// intra-module dependencies first. Standard-library paths are delegated
// to the source importer and not returned as *Package.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if !l.inModule(path) {
		return nil, fmt.Errorf("analysis: %s is outside module %s", path, l.ModulePath)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return l.LoadDir(filepath.Join(l.ModuleRoot, rel), path)
}

// LoadDir type-checks the package in dir under the import path asPath.
// It is the entry point fixture tests use for testdata packages, which
// have no real import path.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	if p, ok := l.pkgs[asPath]; ok {
		return p, nil
	}
	if l.loading[asPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", asPath)
	}
	l.loading[asPath] = true
	defer delete(l.loading, asPath)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(asPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", asPath, err)
	}
	p := &Package{Path: asPath, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[asPath] = p
	return p, nil
}

// importPkg resolves one import during type-checking.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if l.inModule(path) {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	std.mu.Lock()
	defer std.mu.Unlock()
	return std.imp.Import(path)
}

// inModule reports whether path names a package of this module.
func (l *Loader) inModule(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// parseDir parses the non-test Go files of one directory with comments.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading %s: %w", dir, err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if fileExcluded(f) {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// fileExcluded reports whether a file opts out of the build (and hence
// of analysis) via a `//go:build ignore`-style constraint.
func fileExcluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if strings.HasPrefix(text, "//go:build") && strings.Contains(text, "ignore") {
				return true
			}
		}
	}
	return false
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// DiscoverPackages maps Go package patterns to import paths within the
// module. Supported forms: "./..." (every package), "./dir/..."
// (subtree), "./dir" (single package). Directories named testdata,
// hidden directories, and directories without Go files are skipped.
func (l *Loader) DiscoverPackages(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		if pat == "." || pat == "./" {
			pat = ""
		}
		pat = strings.TrimPrefix(pat, "./")
		base := filepath.Join(l.ModuleRoot, filepath.FromSlash(pat))
		if !recursive {
			if !hasGoFiles(base) {
				return nil, fmt.Errorf("analysis: no Go files in %s", base)
			}
			add(l.pathFor(base))
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(l.pathFor(p))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// pathFor converts an absolute directory to its module import path.
func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// hasGoFiles reports whether dir directly contains a non-test Go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}
