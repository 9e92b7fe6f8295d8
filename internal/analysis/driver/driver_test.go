package driver_test

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"kpa/internal/analysis"
	"kpa/internal/analysis/bigimport"
	"kpa/internal/analysis/cfg"
	"kpa/internal/analysis/driver"
	"kpa/internal/analysis/floatprob"
)

// writeModule materializes a tiny module in a fresh tmpdir.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func run(t *testing.T, root string, analyzers ...analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	diags, err := driver.Run(driver.Config{Root: root, Analyzers: analyzers})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestDeterministicAndSorted type-checks a tmpdir module with violations
// spread over several files and packages, and demands that repeated runs
// agree byte for byte and that output is sorted by position — the driver
// fans packages out across goroutines, so this is what makes CI output
// stable.
func TestDeterministicAndSorted(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"a/a.go": "package a\n\n// P is approximate.\nvar P = 0.5\n\n// Q is too.\nvar Q = 0.25\n",
		"a/b.go": "package a\n\n// R rounds.\nfunc R(x int) float64 { return float64(x) / 4.0 }\n",
		"b/b.go": "package b\n\nimport \"math/big\"\n\n// N is a raw big value.\nvar N = big.NewRat(1, 2)\n",
	})
	first := run(t, root, bigimport.New(), floatprob.New())
	if len(first) == 0 {
		t.Fatal("expected diagnostics from the fixture module, got none")
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool {
		a, b := first[i], first[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	}) {
		t.Errorf("diagnostics not sorted by position: %+v", first)
	}
	for i := 0; i < 5; i++ {
		again := run(t, root, bigimport.New(), floatprob.New())
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
	// The fixture has exactly five violations: two float literals in a.go,
	// a conversion, a quotient and a literal in b.go, plus the import.
	var files []string
	for _, d := range first {
		files = append(files, d.File)
	}
	want := []string{"a/a.go", "a/a.go", "a/b.go", "a/b.go", "a/b.go", "b/b.go"}
	if !reflect.DeepEqual(files, want) {
		t.Errorf("diagnostic files = %v, want %v", files, want)
	}
}

// TestIgnoreDirective covers the suppression grammar: same line, the
// line above, and the non-suppression cases (wrong analyzer, unrelated
// line).
func TestIgnoreDirective(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"a/a.go": `package a

// P is display-only, justified inline.
var P = 0.5 //kpavet:ignore floatprob display constant, never compared

//kpavet:ignore floatprob smoothing weight for the demo renderer
var Q = 0.25

var R = 0.75 //kpavet:ignore bigimport wrong analyzer name does not suppress
`,
	})
	diags := run(t, root, floatprob.New())
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %+v, want exactly the unsuppressed R", diags)
	}
	if d := diags[0]; d.Line != 9 || d.Analyzer != "floatprob" {
		t.Errorf("surviving diagnostic = %+v, want floatprob at a/a.go:9", d)
	}
}

// TestBareIgnoreIsDiagnostic pins the error message for a directive with
// no reason: silent opt-outs must fail the build, loudly and stably.
func TestBareIgnoreIsDiagnostic(t *testing.T) {
	const pinned = `bare //kpavet:ignore directive: an analyzer name and a reason are required ("//kpavet:ignore <analyzer> <reason>")`
	if driver.BareIgnoreMessage != pinned {
		t.Fatalf("BareIgnoreMessage drifted:\n got: %s\nwant: %s", driver.BareIgnoreMessage, pinned)
	}
	root := writeModule(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"a/a.go": `package a

//kpavet:ignore
var P = 0.5

//kpavet:ignore floatprob
var Q = 0.25
`,
	})
	diags := run(t, root, floatprob.New())
	var bare []analysis.Diagnostic
	var rest []analysis.Diagnostic
	for _, d := range diags {
		if d.Analyzer == "kpavet" {
			bare = append(bare, d)
		} else {
			rest = append(rest, d)
		}
	}
	if len(bare) != 2 {
		t.Fatalf("bare-ignore diagnostics = %+v, want 2", bare)
	}
	for _, d := range bare {
		if d.Message != pinned {
			t.Errorf("bare-ignore message = %q, want %q", d.Message, pinned)
		}
	}
	// A malformed directive must not suppress anything: both float
	// literals still fire.
	if len(rest) != 2 {
		t.Errorf("float diagnostics = %+v, want both literals unsuppressed", rest)
	}
}

// markFact is the probe's payload: it travels from the defining package
// to every importer through the driver's fact store.
type markFact struct{ Tag string }

func (*markFact) AFact() {}

// factProbe is a stub analyzer: in every package it exports a markFact
// for each package-level function named Fresh*, then records which tag
// (if any) it can import for the base package's FreshBase through the
// import graph, along with the order packages were analyzed in.
type factProbe struct {
	mu    sync.Mutex
	order []string
	found map[string]string // importer path → imported fact tag
}

func (p *factProbe) Name() string { return "factprobe" }
func (p *factProbe) Doc() string  { return "test stub: exports and imports marker facts" }

func (p *factProbe) Run(pass *analysis.Pass) error {
	p.mu.Lock()
	p.order = append(p.order, pass.PkgPath)
	p.mu.Unlock()
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if strings.HasPrefix(name, "Fresh") {
			pass.ExportObjectFact(scope.Lookup(name), &markFact{Tag: pass.PkgPath + "." + name})
		}
	}
	for _, imp := range pass.Pkg.Imports() {
		obj := imp.Scope().Lookup("FreshBase")
		if obj == nil {
			continue
		}
		var f markFact
		if pass.ImportObjectFact(obj, &f) {
			p.mu.Lock()
			p.found[pass.PkgPath] = f.Tag
			p.mu.Unlock()
		}
	}
	return nil
}

// TestFactsCrossPackages builds a diamond-shaped module — base, several
// leaves importing base, and a top importing every leaf — and checks two
// scheduler guarantees at once: a fact exported in base is visible (with
// its payload intact) in every importer, and even with passes fanned out
// across goroutines no importer runs before its imports.
func TestFactsCrossPackages(t *testing.T) {
	const leaves = 6
	files := map[string]string{
		"go.mod":       "module demo\n\ngo 1.22\n",
		"base/base.go": "package base\n\n// FreshBase is the fact-carrying function.\nfunc FreshBase() int { return 1 }\n",
	}
	var topImports, topCalls []string
	for i := 0; i < leaves; i++ {
		name := fmt.Sprintf("leaf%d", i)
		files[name+"/"+name+".go"] = fmt.Sprintf(
			"package %s\n\nimport \"demo/base\"\n\n// Use keeps the import live.\nfunc Use() int { return base.FreshBase() }\n", name)
		topImports = append(topImports, fmt.Sprintf("\t\"demo/%s\"", name))
		topCalls = append(topCalls, fmt.Sprintf("%s.Use()", name))
	}
	files["top/top.go"] = fmt.Sprintf(
		"package top\n\nimport (\n\t\"demo/base\"\n%s\n)\n\n// All exercises every leaf.\nfunc All() int { return base.FreshBase() + %s }\n",
		strings.Join(topImports, "\n"), strings.Join(topCalls, " + "))
	root := writeModule(t, files)

	probe := &factProbe{found: make(map[string]string)}
	if diags := run(t, root, probe); len(diags) != 0 {
		t.Fatalf("stub analyzer reported diagnostics: %+v", diags)
	}

	index := make(map[string]int, len(probe.order))
	for i, path := range probe.order {
		index[path] = i
	}
	for i := 0; i < leaves; i++ {
		leaf := fmt.Sprintf("demo/leaf%d", i)
		if probe.found[leaf] != "demo/base.FreshBase" {
			t.Errorf("fact in %s = %q, want the tag exported by demo/base", leaf, probe.found[leaf])
		}
		if index["demo/base"] > index[leaf] {
			t.Errorf("demo/base analyzed after its importer %s: %v", leaf, probe.order)
		}
		if index[leaf] > index["demo/top"] {
			t.Errorf("%s analyzed after its importer demo/top: %v", leaf, probe.order)
		}
	}
	if probe.found["demo/top"] != "demo/base.FreshBase" {
		t.Errorf("fact in demo/top = %q, want the tag exported by demo/base", probe.found["demo/top"])
	}
}

// TestLoadErrors: a module that does not type-check is a driver error,
// not a silent pass.
func TestLoadErrors(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"a/a.go": "package a\n\nvar X undefined\n",
	})
	if _, err := driver.Run(driver.Config{Root: root, Analyzers: []analysis.Analyzer{floatprob.New()}}); err == nil {
		t.Fatal("expected a type-check error, got none")
	}
	if _, err := driver.Run(driver.Config{Root: t.TempDir()}); err == nil {
		t.Fatal("expected a missing-go.mod error, got none")
	}
}

// depthFact is a transitive summary: its payload counts the longest
// import chain below the function it is attached to, so its value is
// only correct if every dependency's fact was complete before the
// importer's pass ran.
type depthFact struct{ Depth int }

func (*depthFact) AFact() {}

// summaryProbe exports a depthFact for the package-level function named
// Step in every package: depth = 1 + max over imported packages' Step
// facts. A scheduling bug (an importer racing ahead of its imports)
// surfaces as a too-small depth — and under -race as a data race.
type summaryProbe struct{}

func (*summaryProbe) Name() string { return "summaryprobe" }
func (*summaryProbe) Doc() string  { return "test stub: transitive depth summaries" }

func (*summaryProbe) Run(pass *analysis.Pass) error {
	obj := pass.Pkg.Scope().Lookup("Step")
	if obj == nil {
		return nil
	}
	depth := 1
	for _, imp := range pass.Pkg.Imports() {
		dep := imp.Scope().Lookup("Step")
		if dep == nil {
			continue
		}
		var f depthFact
		if pass.ImportObjectFact(dep, &f) && f.Depth+1 > depth {
			depth = f.Depth + 1
		}
	}
	pass.ExportObjectFact(obj, &depthFact{Depth: depth})
	return nil
}

// TestSummariesFlowInDependencyOrder builds a module shaped like the
// real repository's analysis problem — a long dependency chain with wide
// fan-out at every level (each level has several packages importing all
// of the previous level) — and demands that transitive depth summaries
// come out exact at every level. With the scheduler's goroutine pool
// fanning independent passes out, any pass that ran before its imports
// finished would read an incomplete fact and produce a wrong depth.
// The facts are read back through Config.FactObserver, which also pins
// the observer's deterministic ordering contract.
func TestSummariesFlowInDependencyOrder(t *testing.T) {
	const levels, width = 6, 4
	files := map[string]string{"go.mod": "module demo\n\ngo 1.22\n"}
	name := func(l, i int) string { return fmt.Sprintf("l%dp%d", l, i) }
	for l := 0; l < levels; l++ {
		for i := 0; i < width; i++ {
			var b strings.Builder
			fmt.Fprintf(&b, "package %s\n\n", name(l, i))
			if l > 0 {
				b.WriteString("import (\n")
				for j := 0; j < width; j++ {
					fmt.Fprintf(&b, "\t\"demo/%s\"\n", name(l-1, j))
				}
				b.WriteString(")\n\n")
			}
			b.WriteString("// Step carries the depth fact.\nfunc Step() int {\n\treturn 0")
			for j := 0; j < width && l > 0; j++ {
				fmt.Fprintf(&b, " + %s.Step()", name(l-1, j))
			}
			b.WriteString("\n}\n")
			files[name(l, i)+"/"+name(l, i)+".go"] = b.String()
		}
	}
	root := writeModule(t, files)

	var observed []driver.ExportedFact
	diags, err := driver.Run(driver.Config{
		Root:         root,
		Analyzers:    []analysis.Analyzer{&summaryProbe{}},
		FactObserver: func(ef driver.ExportedFact) { observed = append(observed, ef) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("stub analyzer reported diagnostics: %+v", diags)
	}
	if len(observed) != levels*width {
		t.Fatalf("observed %d facts, want %d (one per package)", len(observed), levels*width)
	}
	byFile := make(map[string]int, len(observed))
	for _, ef := range observed {
		f, ok := ef.Fact.(*depthFact)
		if !ok {
			t.Fatalf("fact on %s has type %T, want *depthFact", ef.File, ef.Fact)
		}
		byFile[ef.File] = f.Depth
	}
	for l := 0; l < levels; l++ {
		for i := 0; i < width; i++ {
			file := name(l, i) + "/" + name(l, i) + ".go"
			if byFile[file] != l+1 {
				t.Errorf("depth fact in %s = %d, want %d (summary raced its imports?)", file, byFile[file], l+1)
			}
		}
	}
	if !sort.SliceIsSorted(observed, func(i, j int) bool {
		a, b := observed[i], observed[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	}) {
		t.Errorf("FactObserver order not sorted by position")
	}
}

// cfgRecorder collects, per function body, the *cfg.Graph every probe
// analyzer saw. Probes run concurrently across packages, so access is
// locked.
type cfgRecorder struct {
	mu   sync.Mutex
	cfgs map[*ast.BlockStmt][]*cfg.Graph
}

// cfgProbe is a fake analyzer that asks the shared CFG cache for every
// function body and reports one deterministic summary line per
// function, so runs can be compared byte for byte.
type cfgProbe struct {
	name string
	rec  *cfgRecorder
}

func (p *cfgProbe) Name() string { return p.name }
func (p *cfgProbe) Doc() string  { return "probe the shared CFG cache" }

func (p *cfgProbe) Run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := pass.CFG(fd.Body)
			p.rec.mu.Lock()
			p.rec.cfgs[fd.Body] = append(p.rec.cfgs[fd.Body], g)
			p.rec.mu.Unlock()
			pass.Report(fd.Name.Pos(), fmt.Sprintf("%s: %d blocks, %d reachable", fd.Name.Name, len(g.Blocks), len(g.Reachable())))
		}
	}
	return nil
}

// TestDefUseCacheSharedAcrossAnalyzers runs two probes over a module
// whose packages fan out across goroutines, and demands (a) both probes
// get the very same *cfg.Graph for each body — the graph is built once
// and shared, not rebuilt per analyzer — and (b) the CFG-derived
// diagnostics are identical over five runs.
func TestDefUseCacheSharedAcrossAnalyzers(t *testing.T) {
	files := map[string]string{
		"go.mod": "module demo\n\ngo 1.22\n",
		"a/a.go": `package a

func Fresh() *[]int {
	s := make([]int, 4)
	s[0] = 1
	return &s
}

func Stale(in []int) []int {
	out := in
	return out
}
`,
		"b/b.go": `package b

func Spawn(n int) chan int {
	ch := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			ch <- i
		}
		close(ch)
	}()
	return ch
}
`,
		"c/c.go": `package c

func Branch(cond bool) map[string]int {
	var m map[string]int
	if cond {
		m = map[string]int{"a": 1}
	} else {
		m = make(map[string]int)
	}
	return m
}
`,
	}
	root := writeModule(t, files)
	runOnce := func() ([]analysis.Diagnostic, *cfgRecorder) {
		rec := &cfgRecorder{cfgs: make(map[*ast.BlockStmt][]*cfg.Graph)}
		diags := run(t, root, &cfgProbe{name: "probe1", rec: rec}, &cfgProbe{name: "probe2", rec: rec})
		return diags, rec
	}
	first, rec := runOnce()
	if len(first) != 8 {
		t.Fatalf("diagnostics = %d, want 8 (4 functions x 2 probes):\n%+v", len(first), first)
	}
	if len(rec.cfgs) != 4 {
		t.Fatalf("recorded %d bodies, want 4", len(rec.cfgs))
	}
	for body, graphs := range rec.cfgs {
		if len(graphs) != 2 || graphs[0] != graphs[1] {
			t.Errorf("body at %v: cfg.Graph not shared across analyzers: %p vs %p",
				body.Pos(), graphs[0], graphs[len(graphs)-1])
		}
	}
	for i := 0; i < 5; i++ {
		again, _ := runOnce()
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
}
