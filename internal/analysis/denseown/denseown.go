// Package denseown implements the kpavet analyzer for internal/system's
// DenseSet ownership contract.
//
// DenseSet splits its API in two: allocating operations (NewDense,
// FullDense, DenseOf, Clone, Union, Intersect, Minus, Complement) return
// a fresh set the caller exclusively owns, while in-place operations
// (Add, Remove, UnionWith, IntersectWith) overwrite the
// receiver's words and are legal only on such an owned set. Mutating a
// set that arrived through a parameter, was read out of a memo table or
// cache, or has already been published into a field, map, channel or
// escaping closure corrupts every alias — including the cached
// extensions the logic evaluator hands out by reference.
//
// The analysis is flow-sensitive and interprocedural. Per function it
// runs a must-own forward dataflow over the cfg package's graph: a
// *DenseSet variable is owned after being bound to a fresh expression
// and loses ownership at any publishing use (stored through a field,
// index or pointer, placed in a composite literal, sent on a channel,
// address taken, captured by an escaping closure, or passed to a callee
// outside internal/system). At control-flow joins ownership must hold on
// every incoming path. Across functions two facts flow through the
// driver: FreshSetResult marks functions whose returned sets are always
// fresh, so their call sites count as allocations; MutatesReceiver marks
// the in-place methods themselves, discovered from the system package's
// bodies rather than hard-coded by name.
//
// Function literals passed directly to internal/system callees (Iterate,
// EachRun and friends) are inline callbacks that run before the call
// returns, so their bodies are analyzed transparently against the
// current ownership state — the idiomatic "allocate out, fill it inside
// EachRun" loop stays clean. Any other literal (stored, returned, or
// launched via go/defer) may run later or concurrently: its free
// *DenseSet variables are treated as shared, which is exactly what
// flags a goroutine mutating a memoized set while the Clone-then-mutate
// version passes.
package denseown

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"kpa/internal/analysis"
	"kpa/internal/analysis/cfg"
)

// FreshSetResult marks a function or method whose returned *DenseSet
// values are always freshly allocated and exclusively owned by the
// caller.
type FreshSetResult struct{}

// AFact marks FreshSetResult as a driver-transportable fact.
func (*FreshSetResult) AFact() {}

// MutatesReceiver marks a *DenseSet method that overwrites its
// receiver's bit words in place.
type MutatesReceiver struct{}

// AFact marks MutatesReceiver as a driver-transportable fact.
func (*MutatesReceiver) AFact() {}

// Analyzer enforces the exclusive-ownership contract on in-place
// DenseSet mutation.
type Analyzer struct{}

// New returns the denseown analyzer.
func New() *Analyzer { return &Analyzer{} }

func (*Analyzer) Name() string { return "denseown" }

func (*Analyzer) Doc() string {
	return "in-place DenseSet operations (Add, UnionWith, ...) are legal only on freshly allocated or cloned sets the function exclusively owns; memoized, published or parameter sets must be cloned first"
}

func (*Analyzer) Run(pass *analysis.Pass) error {
	c := &checker{
		pass:    pass,
		sysPath: pass.Module + "/internal/system",
		fresh:   make(map[*types.Func]bool),
		mut:     make(map[*types.Func]bool),
	}
	decls := c.collectDecls()
	if pass.PkgPath == c.sysPath {
		c.findMutators(decls)
	}
	c.fixpointFresh(decls)
	for _, d := range decls {
		if d.fd.Body == nil {
			continue
		}
		fa := c.analyzeFunc(d, true)
		for len(fa.lits) > 0 {
			lits := fa.lits
			fa.lits = nil
			for _, lit := range lits {
				fa.analyzeLit(lit)
			}
		}
	}
	for fn := range c.fresh {
		pass.ExportObjectFact(fn, &FreshSetResult{})
	}
	for fn := range c.mut {
		pass.ExportObjectFact(fn, &MutatesReceiver{})
	}
	return nil
}

type decl struct {
	fd *ast.FuncDecl
	fn *types.Func
}

type checker struct {
	pass    *analysis.Pass
	sysPath string
	// fresh holds this package's functions proven to return only fresh
	// sets; imported packages' equivalents arrive as FreshSetResult facts.
	fresh map[*types.Func]bool
	// mut holds the system package's in-place methods; elsewhere they
	// arrive as MutatesReceiver facts.
	mut map[*types.Func]bool
}

func (c *checker) collectDecls() []*decl {
	var out []*decl
	for _, f := range c.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := c.pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, &decl{fd: fd, fn: fn})
		}
	}
	return out
}

// isDenseSetPtr reports whether t is *system.DenseSet.
func (c *checker) isDenseSetPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "DenseSet" && obj.Pkg() != nil && obj.Pkg().Path() == c.sysPath
}

// isTrackedVar reports whether obj is a variable of type *DenseSet whose
// ownership the analysis follows.
func (c *checker) isTrackedVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && c.isDenseSetPtr(v.Type())
}

// isMutator reports whether fn is an in-place *DenseSet method, either
// discovered in this pass over the system package or imported as a fact.
func (c *checker) isMutator(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !c.isDenseSetPtr(sig.Recv().Type()) {
		return false
	}
	if c.mut[fn] {
		return true
	}
	return c.pass.ImportObjectFact(fn, &MutatesReceiver{})
}

// isFreshFunc reports whether calls to fn return exclusively owned sets.
func (c *checker) isFreshFunc(fn *types.Func) bool {
	if c.fresh[fn] {
		return true
	}
	return c.pass.ImportObjectFact(fn, &FreshSetResult{})
}

// isSystemCallee reports whether fn is declared in internal/system.
// System callees are trusted not to retain or mutate their *DenseSet
// arguments beyond the call, so passing a set to them keeps ownership.
func (c *checker) isSystemCallee(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == c.sysPath
}

// findMutators runs the promote-until-stable discovery of in-place
// methods over the system package itself: a *DenseSet method mutates its
// receiver if it assigns through the receiver (s.bits[i] = ..., never a
// plain rebinding of s) or calls an already-known mutator on it.
func (c *checker) findMutators(decls []*decl) {
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if c.mut[d.fn] || d.fd.Body == nil || d.fd.Recv == nil {
				continue
			}
			sig := d.fn.Type().(*types.Signature)
			if sig.Recv() == nil || !c.isDenseSetPtr(sig.Recv().Type()) {
				continue
			}
			recv := c.recvObj(d.fd)
			if recv == nil {
				continue
			}
			if c.bodyMutates(d.fd.Body, recv) {
				c.mut[d.fn] = true
				changed = true
			}
		}
	}
}

func (c *checker) recvObj(fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return c.pass.Info.Defs[fd.Recv.List[0].Names[0]]
}

func (c *checker) bodyMutates(body *ast.BlockStmt, recv types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if c.writesThrough(l, recv) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if c.writesThrough(n.X, recv) {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := c.calleeOf(n); ok && c.mut[fn] && c.rootIdent(sel.X) == recv {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// writesThrough reports whether lhs stores through recv's pointee — a
// selector, index or dereference rooted at recv. A bare `recv = ...`
// rebinds the local variable and does not touch the set.
func (c *checker) writesThrough(lhs ast.Expr, recv types.Object) bool {
	if _, ok := lhs.(*ast.Ident); ok {
		return false
	}
	return c.rootIdent(lhs) == recv
}

// rootIdent strips selectors, indexing, derefs and parens down to the
// base identifier's object, or nil.
func (c *checker) rootIdent(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return c.pass.Info.Uses[x]
		default:
			return nil
		}
	}
}

// calleeOf resolves a call to the called *types.Func (method or
// package-level function), when statically known.
func (c *checker) calleeOf(call *ast.CallExpr) (*types.Func, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, ok := c.pass.Info.Uses[fun].(*types.Func)
		return fn, ok
	case *ast.SelectorExpr:
		if sel, ok := c.pass.Info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			return fn, ok
		}
		fn, ok := c.pass.Info.Uses[fun.Sel].(*types.Func)
		return fn, ok
	}
	return nil, false
}

// fixpointFresh promotes package-local functions to fresh-returning
// until stable. A candidate returns *DenseSet somewhere in its result
// list; it is fresh if the must-own analysis proves every returned set
// expression owned at its return statement.
func (c *checker) fixpointFresh(decls []*decl) {
	var cands []*decl
	for _, d := range decls {
		if d.fd.Body == nil {
			continue
		}
		sig, ok := d.fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if c.isDenseSetPtr(sig.Results().At(i).Type()) {
				cands = append(cands, d)
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range cands {
			if c.fresh[d.fn] {
				continue
			}
			fa := c.analyzeFunc(d, false)
			if fa.retFresh {
				c.fresh[d.fn] = true
				changed = true
			}
		}
	}
}

// env maps tracked *DenseSet variables to "exclusively owned here".
// Absent means shared.
type env map[types.Object]bool

func envClone(e env) env {
	out := make(env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

func envMerge(a, b env) env {
	out := make(env, len(a))
	for k, v := range a {
		out[k] = v && b[k]
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out[k] = false
		}
	}
	return out
}

func envEqual(a, b env) bool {
	for k, v := range a {
		if v != b[k] {
			return false
		}
	}
	for k, v := range b {
		if v != a[k] {
			return false
		}
	}
	return true
}

// funcAnalysis carries the per-function state of one must-own pass.
type funcAnalysis struct {
	c *checker
	// transparent marks FuncLits passed directly to system callees;
	// their bodies run inline against the caller's ownership state.
	transparent map[*ast.FuncLit]bool
	// lits collects escaping literals found during the check sweep, to
	// be analyzed afterwards with shared captures.
	lits []*ast.FuncLit
	// named are the function's named *DenseSet results, consulted by
	// bare returns.
	named []types.Object
	// retFresh accumulates whether every returned set was owned.
	retFresh bool
	// report enables diagnostics (the classification passes run silent).
	report bool
	// inGoDefer suppresses callback transparency under go/defer, where
	// "inline" no longer means "before the call returns".
	inGoDefer bool
}

// analyzeFunc runs the must-own dataflow over d's body. With report set
// it emits diagnostics and queues escaping literals; either way it
// records whether all returned sets were owned.
func (c *checker) analyzeFunc(d *decl, report bool) *funcAnalysis {
	fa := &funcAnalysis{
		c:           c,
		transparent: make(map[*ast.FuncLit]bool),
		retFresh:    true,
		report:      false,
	}
	boundary := make(env)
	sig := d.fn.Type().(*types.Signature)
	// Parameters arrive shared. The one exception is a *DenseSet method's
	// own receiver inside internal/system: in-place ops compose (UnionWith
	// calls through s.bits), and the contract charges their callers.
	if recv := c.recvObj(d.fd); recv != nil && c.isTrackedVar(recv) {
		boundary[recv] = c.pass.PkgPath == c.sysPath && c.isDenseSetPtr(sig.Recv().Type())
	}
	if d.fd.Type.Params != nil {
		for _, f := range d.fd.Type.Params.List {
			for _, name := range f.Names {
				if obj := c.pass.Info.Defs[name]; obj != nil && c.isTrackedVar(obj) {
					boundary[obj] = false
				}
			}
		}
	}
	// Named results start at their zero value (nil), which cannot alias
	// anything; they are owned until proven otherwise.
	if d.fd.Type.Results != nil {
		for _, f := range d.fd.Type.Results.List {
			for _, name := range f.Names {
				if obj := c.pass.Info.Defs[name]; obj != nil && c.isTrackedVar(obj) {
					boundary[obj] = true
					fa.named = append(fa.named, obj)
				}
			}
		}
	}
	fa.solveAndCheck(d.fd.Body, boundary, report)
	return fa
}

// analyzeLit analyzes an escaped function literal as its own function:
// parameters and every free *DenseSet variable are shared.
func (fa *funcAnalysis) analyzeLit(lit *ast.FuncLit) {
	sub := &funcAnalysis{
		c:           fa.c,
		transparent: make(map[*ast.FuncLit]bool),
		retFresh:    true,
	}
	sub.solveAndCheck(lit.Body, make(env), true)
	fa.lits = append(fa.lits, sub.lits...)
}

func (fa *funcAnalysis) solveAndCheck(body *ast.BlockStmt, boundary env, report bool) {
	g := fa.c.pass.CFG(body)
	in := cfg.Forward(g, boundary, envMerge, envEqual,
		func(blk *cfg.Block, s env) env {
			e := envClone(s)
			fa.walkBlock(blk, e)
			return e
		})
	if !report {
		// retFresh was accumulated during the silent transfer sweeps.
		return
	}
	fa.report = true
	for _, blk := range g.ReversePostorder() {
		s, ok := in[blk]
		if !ok {
			continue
		}
		e := envClone(s)
		fa.walkBlock(blk, e)
	}
	fa.report = false
}

// walkBlock applies every node of the block to e in order, reporting
// violations when fa.report is set.
func (fa *funcAnalysis) walkBlock(blk *cfg.Block, e env) {
	for _, n := range blk.Nodes {
		fa.walkNode(n, e)
	}
}

func (fa *funcAnalysis) walkNode(n ast.Node, e env) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		fa.assign(n, e)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				fa.expr(v, e)
			}
			for i, name := range vs.Names {
				obj := fa.c.pass.Info.Defs[name]
				if obj == nil || !fa.c.isTrackedVar(obj) {
					continue
				}
				if len(vs.Values) == 0 {
					// var s *DenseSet — nil, owned by vacuity.
					e[obj] = true
				} else if i < len(vs.Values) {
					e[obj] = fa.isFreshExpr(vs.Values[i], e)
				} else {
					e[obj] = false
				}
			}
		}
	case *ast.ReturnStmt:
		if len(n.Results) == 0 {
			// Bare return: named results flow out.
			for _, obj := range fa.named {
				if !e[obj] {
					fa.retFresh = false
				}
			}
			return
		}
		for _, r := range n.Results {
			fa.expr(r, e)
			if t, ok := fa.c.pass.Info.Types[r]; ok && fa.c.isDenseSetPtr(t.Type) {
				if !fa.isFreshExpr(r, e) {
					fa.retFresh = false
				}
			}
		}
	case *ast.SendStmt:
		fa.expr(n.Chan, e)
		fa.expr(n.Value, e)
		fa.publish(n.Value, e)
	case *ast.GoStmt:
		fa.goDefer(n.Call, e)
	case *ast.DeferStmt:
		fa.goDefer(n.Call, e)
	case *ast.ExprStmt:
		fa.expr(n.X, e)
	case *ast.IncDecStmt:
		fa.expr(n.X, e)
	case *ast.LabeledStmt:
		// The labeled statement's simple part is its own node elsewhere.
	case ast.Expr:
		fa.expr(n, e)
	}
}

func (fa *funcAnalysis) goDefer(call *ast.CallExpr, e env) {
	saved := fa.inGoDefer
	fa.inGoDefer = true
	fa.expr(call, e)
	fa.inGoDefer = saved
}

// assign processes RHS effects, publishes sets stored through non-ident
// lvalues, then rebinds identifier targets to their RHS freshness.
func (fa *funcAnalysis) assign(n *ast.AssignStmt, e env) {
	for _, r := range n.Rhs {
		fa.expr(r, e)
	}
	for i, l := range n.Lhs {
		if _, ok := ast.Unparen(l).(*ast.Ident); ok {
			continue
		}
		fa.expr(l, e)
		// Storing a tracked set through a field, index or deref makes it
		// reachable from the container: published.
		if len(n.Rhs) == len(n.Lhs) {
			fa.publish(n.Rhs[i], e)
		} else if len(n.Rhs) == 1 {
			fa.publish(n.Rhs[0], e)
		}
	}
	if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
		fresh := fa.isFreshExpr(n.Rhs[0], e)
		for _, l := range n.Lhs {
			fa.bind(l, fresh, e)
		}
		return
	}
	for i, l := range n.Lhs {
		if i < len(n.Rhs) {
			fa.bind(l, fa.isFreshExpr(n.Rhs[i], e), e)
		}
	}
}

// bind records ownership for an identifier target of tracked type.
func (fa *funcAnalysis) bind(l ast.Expr, fresh bool, e env) {
	id, ok := ast.Unparen(l).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := fa.c.pass.Info.Defs[id]
	if obj == nil {
		obj = fa.c.pass.Info.Uses[id]
	}
	if obj != nil && fa.c.isTrackedVar(obj) {
		e[obj] = fresh
	}
}

// publish drops ownership of a tracked identifier whose value just
// became reachable from somewhere else.
func (fa *funcAnalysis) publish(x ast.Expr, e env) {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return
	}
	if obj := fa.c.pass.Info.Uses[id]; obj != nil && fa.c.isTrackedVar(obj) {
		e[obj] = false
	}
}

// isFreshExpr decides whether evaluating x yields an exclusively owned
// set in state e.
func (fa *funcAnalysis) isFreshExpr(x ast.Expr, e env) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		obj := fa.c.pass.Info.Uses[x]
		return obj != nil && e[obj]
	case *ast.CallExpr:
		if fn, ok := fa.c.calleeOf(x); ok {
			return fa.c.isFreshFunc(fn)
		}
		return false
	case *ast.UnaryExpr:
		// &DenseSet{...} inside the system package itself.
		if x.Op == token.AND {
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				return true
			}
		}
		return false
	}
	return false
}

// expr walks an expression: checks mutator calls against ownership,
// applies escape effects, and dispatches function literals.
func (fa *funcAnalysis) expr(x ast.Expr, e env) {
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if fa.transparent[n] {
				fa.inlineLit(n, e)
			} else {
				fa.poisonCaptures(n, e)
				if fa.report {
					fa.lits = append(fa.lits, n)
				}
			}
			return false
		case *ast.CallExpr:
			fa.handleCall(n, e)
			return true
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					fa.publish(kv.Value, e)
				} else {
					fa.publish(el, e)
				}
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				fa.publish(n.X, e)
			}
			return true
		}
		return true
	})
}

// handleCall checks a mutator's receiver and applies the call's effect
// on argument ownership. It runs before ast.Inspect descends into the
// arguments, so literal callbacks can be marked transparent first.
func (fa *funcAnalysis) handleCall(call *ast.CallExpr, e env) {
	fn, known := fa.c.calleeOf(call)
	if known && fa.c.isMutator(fn) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if !fa.isFreshExpr(sel.X, e) {
				fa.reportAt(call.Pos(), fn.Name())
			}
		}
	}
	trusted := known && fa.c.isSystemCallee(fn)
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			if trusted && !fa.inGoDefer {
				fa.transparent[lit] = true
			}
			continue
		}
		if !trusted {
			// Unknown or foreign callees may retain the set.
			fa.publish(arg, e)
		}
	}
}

func (fa *funcAnalysis) reportAt(pos token.Pos, method string) {
	if !fa.report {
		return
	}
	fa.c.pass.Report(pos, fmt.Sprintf(
		"(*DenseSet).%s mutates a set this function does not exclusively own; clone it first or build into a fresh set (NewDense/Clone)", method))
}

// inlineLit processes a callback literal's body against the live state:
// it runs to completion inside the trusted call, so assignments, checks
// and escapes apply as if inlined. The walk is flow-insensitive within
// the literal, which is conservative enough for accumulation loops.
func (fa *funcAnalysis) inlineLit(lit *ast.FuncLit, e env) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if fa.transparent[n] {
				fa.inlineLit(n, e)
			} else {
				fa.poisonCaptures(n, e)
				if fa.report {
					fa.lits = append(fa.lits, n)
				}
			}
			return false
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if _, ok := ast.Unparen(l).(*ast.Ident); ok {
					if i < len(n.Rhs) {
						fa.bind(l, fa.isFreshExpr(n.Rhs[i], e), e)
					} else if len(n.Rhs) == 1 {
						fa.bind(l, fa.isFreshExpr(n.Rhs[0], e), e)
					}
				} else if i < len(n.Rhs) {
					fa.publish(n.Rhs[i], e)
				} else if len(n.Rhs) == 1 {
					fa.publish(n.Rhs[0], e)
				}
			}
			return true
		case *ast.SendStmt:
			fa.publish(n.Value, e)
			return true
		case *ast.GoStmt:
			fa.goDefer(n.Call, e)
			return false
		case *ast.DeferStmt:
			fa.goDefer(n.Call, e)
			return false
		case *ast.CallExpr:
			fa.handleCall(n, e)
			return true
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					fa.publish(kv.Value, e)
				} else {
					fa.publish(el, e)
				}
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				fa.publish(n.X, e)
			}
			return true
		}
		return true
	})
}

// poisonCaptures marks every free *DenseSet variable of an escaping
// literal as shared: the literal may run later, concurrently, or many
// times, so the enclosing function no longer owns what it closes over.
func (fa *funcAnalysis) poisonCaptures(lit *ast.FuncLit, e env) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := fa.c.pass.Info.Uses[id]
		if obj == nil || !fa.c.isTrackedVar(obj) {
			return true
		}
		// Declared inside the literal? Then it is not a capture.
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		e[obj] = false
		return true
	})
}
