// Package driver loads and type-checks a Go module with the standard
// library alone (go/parser + go/types; no go/packages, matching the
// module's zero-dependency rule) and runs analyzers over its packages.
//
// The driver type-checks ./... once: every non-test file outside testdata
// directories is parsed, packages are topologically sorted by their local
// imports and checked in order, and the resulting *types.Package objects
// are shared by every analyzer. Standard-library imports resolve through
// the compiler's export data with a source-importer fallback, so the
// driver works wherever the go toolchain itself does.
//
// Each analyzer then runs over the packages in that same order, so object
// facts (analysis.Fact) exported by a dependency are complete before its
// importers run — facts flow from internal/system up through
// internal/logic and internal/service. Every pass shares one
// control-flow-graph cache (analysis.Pass.CFG).
package driver

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"

	"kpa/internal/analysis"
	"kpa/internal/analysis/cfg"
)

// Config describes one driver run.
type Config struct {
	// Root is the module root: the directory containing go.mod. Relative
	// paths are resolved against the current working directory.
	Root string
	// Analyzers are run over every loaded package.
	Analyzers []analysis.Analyzer
	// FactObserver, when non-nil, receives every object fact that was
	// exported during the run, after all passes complete, in a
	// deterministic order (position, analyzer, fact type, object name).
	// analysistest uses it to check want-fact expectations; production
	// runs leave it nil.
	FactObserver func(ExportedFact)
}

// ExportedFact is one object fact as seen by Config.FactObserver: the
// fact itself plus the defining object's position, resolved the same way
// diagnostics are (File is module-root-relative).
type ExportedFact struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Object   types.Object
	Fact     analysis.Fact
}

// Run loads the module at cfg.Root, type-checks every package and runs
// every analyzer, returning the diagnostics sorted by position.
// A non-nil error means the module could not be loaded or an analyzer
// failed — not that diagnostics were found.
func Run(conf Config) ([]analysis.Diagnostic, error) {
	root, err := filepath.Abs(conf.Root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	pkgs, err := parseModule(fset, root, module)
	if err != nil {
		return nil, err
	}
	order, err := topoSort(pkgs)
	if err != nil {
		return nil, err
	}

	imp := newImporter(fset)
	for _, p := range order {
		if err := typeCheck(fset, imp, p); err != nil {
			return nil, err
		}
	}

	facts := factStore{}
	diags, err := analyze(fset, root, module, order, conf.Analyzers, facts)
	if err != nil {
		return nil, err
	}
	if conf.FactObserver != nil {
		for _, ef := range facts.sorted(fset, root) {
			conf.FactObserver(ef)
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return dedupe(diags), nil
}

// analyze runs each analyzer over the packages in order, where every
// package follows its local imports, so the facts a pass imports are
// complete before it reads them. Every pass shares one CFG cache.
func analyze(fset *token.FileSet, root, module string, order []*pkg, analyzers []analysis.Analyzer, facts factStore) ([]analysis.Diagnostic, error) {
	graphs := cfgCache{}
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		name := a.Name()
		for _, p := range order {
			pass := &analysis.Pass{
				Fset:    fset,
				Module:  module,
				PkgPath: p.path,
				Pkg:     p.types,
				Files:   p.files,
				Info:    p.info,
				CFG:     graphs.get,
				Report: func(pos token.Pos, msg string) {
					diags = append(diags, diag(fset, root, pos, name, msg))
				},
				ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
					facts.export(name, obj, fact)
				},
				ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
					return facts.lookup(name, obj, fact)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", name, p.path, err)
			}
		}
	}
	return diags, nil
}

// factStore holds exported object facts for the whole run, namespaced by
// analyzer name so two analyzers can use the same fact type without
// interference. Object identity works across packages because the whole
// module is type-checked once with shared *types.Package objects.
type factStore map[factKey]analysis.Fact

type factKey struct {
	analyzer string
	obj      types.Object
	typ      reflect.Type
}

func (fs factStore) export(analyzer string, obj types.Object, fact analysis.Fact) {
	t := reflect.TypeOf(fact)
	if obj == nil || t == nil || t.Kind() != reflect.Ptr {
		panic(fmt.Sprintf("driver: ExportObjectFact(%v, %T): facts must be non-nil pointers about non-nil objects", obj, fact))
	}
	fs[factKey{analyzer, obj, t}] = fact
}

func (fs factStore) lookup(analyzer string, obj types.Object, fact analysis.Fact) bool {
	t := reflect.TypeOf(fact)
	if obj == nil || t == nil || t.Kind() != reflect.Ptr {
		return false
	}
	stored, ok := fs[factKey{analyzer, obj, t}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// sorted renders the store's contents for Config.FactObserver in a
// deterministic order: by resolved position, then analyzer, fact type
// name and object name — the same tiebreak discipline diagnostics use.
func (fs factStore) sorted(fset *token.FileSet, root string) []ExportedFact {
	out := make([]ExportedFact, 0, len(fs))
	for k, fact := range fs {
		d := diag(fset, root, k.obj.Pos(), k.analyzer, "")
		out = append(out, ExportedFact{
			File:     d.File,
			Line:     d.Line,
			Col:      d.Col,
			Analyzer: k.analyzer,
			Object:   k.obj,
			Fact:     fact,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		at, bt := reflect.TypeOf(a.Fact).Elem().Name(), reflect.TypeOf(b.Fact).Elem().Name()
		if at != bt {
			return at < bt
		}
		return a.Object.Name() < b.Object.Name()
	})
	return out
}

// cfgCache builds each function body's control-flow graph once and shares
// it across every analyzer's passes.
type cfgCache map[*ast.BlockStmt]*cfg.Graph

func (c cfgCache) get(body *ast.BlockStmt) *cfg.Graph {
	g, ok := c[body]
	if !ok {
		g = cfg.New(body)
		c[body] = g
	}
	return g
}

// pkg is one package during loading: parsed first, type-checked later.
type pkg struct {
	dir     string
	path    string
	name    string
	files   []*ast.File
	imports []string // local (module-internal) imports only
	types   *types.Package
	info    *types.Info
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)\s*$`)

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("driver: reading %s: %w", gomod, err)
	}
	m := moduleRE.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("driver: no module directive in %s", gomod)
	}
	return string(m[1]), nil
}

// parseModule walks the tree under root and parses every buildable package.
// Hidden directories, testdata directories, nested modules and _test.go
// files are skipped: the analyzers enforce contracts on shipped code, and
// test files are explicitly exempt from them (bigimport, floatprob).
func parseModule(fset *token.FileSet, root, module string) (map[string]*pkg, error) {
	pkgs := make(map[string]*pkg)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root {
				if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir // nested module
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		base := filepath.Base(path)
		if strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("driver: %w", err)
		}
		dir := filepath.Dir(path)
		ipath := module
		if dir != root {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			ipath = module + "/" + filepath.ToSlash(rel)
		}
		p := pkgs[ipath]
		if p == nil {
			p = &pkg{dir: dir, path: ipath, name: file.Name.Name}
			pkgs[ipath] = p
		}
		if file.Name.Name != p.name {
			return fmt.Errorf("driver: %s: found packages %s and %s", dir, p.name, file.Name.Name)
		}
		p.files = append(p.files, file)
		for _, imp := range file.Imports {
			dep := strings.Trim(imp.Path.Value, `"`)
			if dep == module || strings.HasPrefix(dep, module+"/") {
				p.imports = append(p.imports, dep)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Deterministic file order within each package (WalkDir is sorted, but
	// keep it explicit: diagnostics must not depend on readdir order).
	for _, p := range pkgs {
		sort.Slice(p.files, func(i, j int) bool {
			return fset.File(p.files[i].Pos()).Name() < fset.File(p.files[j].Pos()).Name()
		})
	}
	return pkgs, nil
}

// topoSort orders packages so every local import is checked before its
// importer, detecting cycles.
func topoSort(pkgs map[string]*pkg) ([]*pkg, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(pkgs))
	var order []*pkg
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := pkgs[path]
		if !ok {
			return nil // import of a module path with no source here (won't type-check; reported there)
		}
		switch state[path] {
		case visiting:
			return fmt.Errorf("driver: import cycle through %s", path)
		case done:
			return nil
		}
		state[path] = visiting
		deps := append([]string(nil), p.imports...)
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, p)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-local imports from the already-checked
// package set and everything else (the standard library) via the
// compiler's export data, falling back to type-checking stdlib from
// source when no export data is available.
type moduleImporter struct {
	std    types.Importer
	source types.Importer
	local  map[string]*types.Package
}

func newImporter(fset *token.FileSet) *moduleImporter {
	return &moduleImporter{
		std:    importer.Default(),
		source: importer.ForCompiler(fset, "source", nil),
		local:  make(map[string]*types.Package),
	}
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	p, err := m.std.Import(path)
	if err == nil {
		return p, nil
	}
	p, srcErr := m.source.Import(path)
	if srcErr == nil {
		return p, nil
	}
	return nil, fmt.Errorf("driver: importing %s: %v (source fallback: %v)", path, err, srcErr)
}

func typeCheck(fset *token.FileSet, imp *moduleImporter, p *pkg) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.path, fset, p.files, info)
	if err != nil {
		return fmt.Errorf("driver: type-checking %s: %w", p.path, err)
	}
	p.types = tpkg
	p.info = info
	imp.local[p.path] = tpkg
	return nil
}

func diag(fset *token.FileSet, root string, pos token.Pos, name, msg string) analysis.Diagnostic {
	position := fset.Position(pos)
	file := position.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return analysis.Diagnostic{
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: name,
		Message:  msg,
	}
}

func dedupe(diags []analysis.Diagnostic) []analysis.Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
