// Package driver loads and type-checks a Go module with the standard
// library alone (go/parser + go/types; no go/packages, matching the
// module's zero-dependency rule) and fans the packages out to analyzers
// across goroutines.
//
// The driver type-checks ./... once: every non-test file outside testdata
// directories is parsed, packages are topologically sorted by their local
// imports and checked in order, and the resulting *types.Package objects
// are shared by every analyzer. Standard-library imports resolve through
// the compiler's export data with a source-importer fallback, so the
// driver works wherever the go toolchain itself does.
//
// Analyzer passes are scheduled as a DAG: for each analyzer, the pass over
// a package waits for the same analyzer's passes over the package's local
// imports, so object facts (analysis.Fact) exported by a dependency are
// complete before its importers run — facts flow from internal/system up
// through internal/logic and internal/service. Tasks with no ordering
// between them still fan out across a bounded pool of goroutines, and
// every pass shares one control-flow-graph cache (analysis.Pass.CFG).
//
// Suppression: a comment of the form
//
//	//kpavet:ignore <analyzer> <reason>
//
// on the offending line, or alone on the line above it, suppresses that
// analyzer's diagnostics there. The reason is mandatory — a bare ignore is
// itself a diagnostic (BareIgnoreMessage) so silent opt-outs cannot
// accumulate.
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
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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

// BareIgnoreMessage is the pinned diagnostic for an ignore directive that
// is missing its analyzer name or its reason. Tests assert this text
// verbatim; change it only with them.
const BareIgnoreMessage = `bare //kpavet:ignore directive: an analyzer name and a reason are required ("//kpavet:ignore <analyzer> <reason>")`

// driverName labels diagnostics emitted by the driver itself (malformed
// ignore directives) rather than by an analyzer.
const driverName = "kpavet"

// driverDoc is the Doc summary attached to the driver's own diagnostics.
const driverDoc = "every //kpavet:ignore directive names an analyzer and gives a reason"

// Run loads the module at cfg.Root, type-checks every package and runs
// every analyzer, returning the surviving diagnostics sorted by position.
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

	ig, diags := collectDirectives(fset, root, order)

	facts := newFactStore()
	more, err := schedule(fset, root, module, order, conf.Analyzers, facts)
	diags = append(diags, more...)
	if err != nil {
		return nil, err
	}
	if conf.FactObserver != nil {
		for _, ef := range facts.sorted(fset, root) {
			conf.FactObserver(ef)
		}
	}

	diags = ig.filter(diags)
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

// task is one (package, analyzer) pass in the scheduler's DAG: it becomes
// runnable when the same analyzer's passes over every locally imported
// package have completed, so exported facts are always complete before an
// importer reads them. Independent tasks run concurrently.
type task struct {
	p          *pkg
	a          analysis.Analyzer
	deps       atomic.Int32 // remaining unfinished dependencies
	dependents []*task
}

// schedule runs every analyzer over every package, ordering each
// analyzer's passes by import dependency while fanning independent
// (package, analyzer) pairs out across a bounded pool of goroutines.
func schedule(fset *token.FileSet, root, module string, order []*pkg, analyzers []analysis.Analyzer, facts *factStore) ([]analysis.Diagnostic, error) {
	graphs := newCFGCache()

	byPath := make(map[string]*pkg, len(order))
	for _, p := range order {
		byPath[p.path] = p
	}
	tasks := make([]*task, 0, len(order)*len(analyzers))
	index := make(map[string]*task, len(order)) // path → task, per analyzer round
	for _, a := range analyzers {
		for path := range index {
			delete(index, path)
		}
		for _, p := range order {
			t := &task{p: p, a: a}
			index[p.path] = t
			tasks = append(tasks, t)
		}
		for _, p := range order {
			t := index[p.path]
			seen := make(map[string]bool, len(p.imports))
			for _, dep := range p.imports {
				if seen[dep] || dep == p.path {
					continue
				}
				seen[dep] = true
				if dt, ok := index[dep]; ok {
					dt.dependents = append(dt.dependents, t)
					t.deps.Add(1)
				}
			}
		}
	}

	var (
		mu       sync.Mutex
		diags    []analysis.Diagnostic
		firstErr error
	)
	ready := make(chan *task, len(tasks))
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(tasks) && len(tasks) > 0 {
		workers = len(tasks)
	}
	// Seed the queue before any worker exists: once a worker runs it
	// decrements dependents' counters concurrently, so a task reaching
	// zero mid-loop could be sent twice if workers were already draining.
	for _, t := range tasks {
		if t.deps.Load() == 0 {
			ready <- t
		}
	}
	for i := 0; i < workers; i++ {
		go func() {
			for t := range ready {
				local, err := runPass(fset, root, module, t, facts, graphs)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("analyzer %s on %s: %w", t.a.Name(), t.p.path, err)
				}
				diags = append(diags, local...)
				mu.Unlock()
				for _, d := range t.dependents {
					if d.deps.Add(-1) == 0 {
						ready <- d
					}
				}
				wg.Done()
			}
		}()
	}
	wg.Wait()
	close(ready)
	if firstErr != nil {
		return diags, firstErr
	}
	return diags, nil
}

// runPass runs one analyzer over one package and returns its diagnostics.
func runPass(fset *token.FileSet, root, module string, t *task, facts *factStore, graphs *cfgCache) ([]analysis.Diagnostic, error) {
	name := t.a.Name()
	doc := docSummary(t.a.Doc())
	pass := &analysis.Pass{
		Fset:    fset,
		Module:  module,
		PkgPath: t.p.path,
		Pkg:     t.p.types,
		Files:   t.p.files,
		Info:    t.p.info,
		CFG:     graphs.get,
	}
	var local []analysis.Diagnostic
	pass.Report = func(pos token.Pos, msg string) {
		d := diag(fset, root, pos, name, msg)
		d.Doc = doc
		local = append(local, d)
	}
	pass.ExportObjectFact = func(obj types.Object, fact analysis.Fact) {
		facts.export(name, obj, fact)
	}
	pass.ImportObjectFact = func(obj types.Object, fact analysis.Fact) bool {
		return facts.lookup(name, obj, fact)
	}
	return local, t.a.Run(pass)
}

// factStore holds exported object facts for the whole run, namespaced by
// analyzer name so two analyzers can use the same fact type without
// interference. Object identity works across packages because the whole
// module is type-checked once with shared *types.Package objects.
type factStore struct {
	mu sync.Mutex
	m  map[factKey]analysis.Fact
}

type factKey struct {
	analyzer string
	obj      types.Object
	typ      reflect.Type
}

func newFactStore() *factStore {
	return &factStore{m: make(map[factKey]analysis.Fact)}
}

func (fs *factStore) export(analyzer string, obj types.Object, fact analysis.Fact) {
	t := reflect.TypeOf(fact)
	if obj == nil || t == nil || t.Kind() != reflect.Ptr {
		panic(fmt.Sprintf("driver: ExportObjectFact(%v, %T): facts must be non-nil pointers about non-nil objects", obj, fact))
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.m[factKey{analyzer, obj, t}] = fact
}

func (fs *factStore) lookup(analyzer string, obj types.Object, fact analysis.Fact) bool {
	t := reflect.TypeOf(fact)
	if obj == nil || t == nil || t.Kind() != reflect.Ptr {
		return false
	}
	fs.mu.Lock()
	stored, ok := fs.m[factKey{analyzer, obj, t}]
	fs.mu.Unlock()
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// sorted renders the store's contents for Config.FactObserver in a
// deterministic order: by resolved position, then analyzer, fact type
// name and object name — the same tiebreak discipline diagnostics use.
func (fs *factStore) sorted(fset *token.FileSet, root string) []ExportedFact {
	fs.mu.Lock()
	out := make([]ExportedFact, 0, len(fs.m))
	for k, fact := range fs.m {
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
	fs.mu.Unlock()
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

// docSummary reduces an analyzer's Doc to its first sentence, the stable
// per-contract summary carried on every diagnostic (Diagnostic.Doc).
func docSummary(doc string) string {
	if i := strings.Index(doc, ". "); i >= 0 {
		return doc[:i+1]
	}
	return strings.TrimRight(doc, ".\n")
}

// cfgCache builds each function body's control-flow graph once and shares
// it across every analyzer's passes.
type cfgCache struct {
	mu sync.Mutex
	m  map[*ast.BlockStmt]*cfg.Graph
}

func newCFGCache() *cfgCache {
	return &cfgCache{m: make(map[*ast.BlockStmt]*cfg.Graph)}
}

func (c *cfgCache) get(body *ast.BlockStmt) *cfg.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.m[body]; ok {
		return g
	}
	g := cfg.New(body)
	c.m[body] = g
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

// ignoreSet records well-formed //kpavet:ignore directives by file and line.
type ignoreSet map[string]map[int]map[string]bool

var ignoreRE = regexp.MustCompile(`^//kpavet:ignore(?:[ \t]+(\S+))?(?:[ \t]+(\S.*))?$`)

// collectDirectives scans every comment in the module for kpavet:ignore
// directives. Well-formed directives land in the returned ignoreSet;
// malformed ones (missing analyzer or reason) come back as driver
// diagnostics so they fail the build instead of silently suppressing.
func collectDirectives(fset *token.FileSet, root string, pkgs []*pkg) (ignoreSet, []analysis.Diagnostic) {
	ig := make(ignoreSet)
	var diags []analysis.Diagnostic
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, group := range f.Comments {
				for _, c := range group.List {
					m := ignoreRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					analyzer, reason := m[1], strings.TrimSpace(m[2])
					if analyzer == "" || reason == "" {
						d := diag(fset, root, c.Pos(), driverName, BareIgnoreMessage)
						d.Doc = driverDoc
						diags = append(diags, d)
						continue
					}
					pos := fset.Position(c.Pos())
					file := diag(fset, root, c.Pos(), "", "").File
					if ig[file] == nil {
						ig[file] = make(map[int]map[string]bool)
					}
					if ig[file][pos.Line] == nil {
						ig[file][pos.Line] = make(map[string]bool)
					}
					ig[file][pos.Line][analyzer] = true
				}
			}
		}
	}
	return ig, diags
}

// filter drops diagnostics covered by an ignore directive on the same
// line or on the line directly above. Driver diagnostics (malformed
// directives) are never suppressible.
func (ig ignoreSet) filter(diags []analysis.Diagnostic) []analysis.Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if d.Analyzer != driverName && (ig.match(d.File, d.Line, d.Analyzer) || ig.match(d.File, d.Line-1, d.Analyzer)) {
			continue
		}
		out = append(out, d)
	}
	return out
}

func (ig ignoreSet) match(file string, line int, analyzer string) bool {
	return ig[file] != nil && ig[file][line] != nil && ig[file][line][analyzer]
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
