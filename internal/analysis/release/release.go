// Package release implements the kpavet analyzer for borrowed workers:
// whatever a function borrows from the engine's budget it gives back on
// every path. Three borrow shapes share one check:
//
//   - a pooled worker, w := p.get(), in internal/service, where p's type
//     has a no-argument get() returning a pointer that its put(x) accepts
//     (the verdict cache's get(key)/put(key, v) does not match). It is
//     given back by p.put(w), and w must not be used after a plain put:
//     by then another goroutine may own it.
//   - Gate tokens, k := g.TryAcquire(n) on a system.Gate, given back by
//     g.Release(k). A leaked token shrinks the engine's worker budget for
//     the rest of the process.
//   - a release closure, n, release := f(...), given back by release().
//     f is a release function: its func() result releases a borrow,
//     because f returns a literal that releases one, a release closure
//     it borrowed, or another release function's result. Release
//     functions export a ReleaseFunc fact, so logic.Engine.Workers is
//     checked at its callers in every package.
//
// The check is a forward dataflow over the cfg package's graph, like
// lockguard's held locks: a borrow is held from its call until it is
// given back, a join keeps it held if any incoming path holds it, and a
// return or the end of the function reached holding it is a leak. A
// borrow is given back by a defer (the panic-proof idiom); by a plain
// release on the path, flagged as not deferred when a call sits between
// the borrow and the release; or by handing it to a closure that
// releases it and is returned or stored, or returning the release
// closure itself. The then-branch of if k == 0 holds no tokens, and a
// discarded borrow is flagged.
//
// Inside internal/logic and internal/system, a go statement outside
// system.ParFill, the fan-out every other primitive runs on (see
// analysis.FanOutRunner), spawns workers the budget never counted, and is
// flagged too.
package release

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"kpa/internal/analysis"
	"kpa/internal/analysis/callgraph"
	"kpa/internal/analysis/cfg"
)

// ReleaseFunc marks a function whose func() result gives back a borrow
// the function took.
type ReleaseFunc struct{}

// AFact marks ReleaseFunc as a driver-transportable fact.
func (*ReleaseFunc) AFact() {}

// Analyzer enforces the borrow-and-release discipline.
type Analyzer struct{}

// New returns the release analyzer.
func New() *Analyzer { return &Analyzer{} }

func (*Analyzer) Name() string { return "release" }

func (*Analyzer) Doc() string {
	return "every borrow (a pooled worker in internal/service, system.Gate tokens, the release closure of logic.Engine.Workers) must be given back on all paths — deferred, or handed to a returned or stored closure — pooled workers must not be used after put, and engine fan-outs must go through " + analysis.FanOutNames
}

func (*Analyzer) Run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		sysPath:   pass.Module + "/internal/system",
		pools:     pass.PkgPath == pass.Module+"/internal/service",
		releasers: make(map[*types.Func]bool),
	}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	// A release function may return another's closure, so discovery runs
	// to a fixpoint before any body is checked.
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if ok && !c.releasers[fn] && releaseResult(fn) >= 0 && c.check(fd.Body, false) {
				c.releasers[fn] = true
				changed = true
			}
		}
	}
	enginePkg := pass.PkgPath == c.sysPath || pass.PkgPath == pass.Module+"/internal/logic"
	for _, fd := range decls {
		if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok && c.releasers[fn] {
			pass.ExportObjectFact(fn, &ReleaseFunc{})
		}
		c.check(fd.Body, true)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				c.check(n.Body, true) // each literal is its own borrow scope
			case *ast.GoStmt:
				if enginePkg && !(fd.Name.Name == analysis.FanOutRunner && pass.PkgPath == c.sysPath) {
					pass.Report(n.Pos(), "hand-rolled goroutine fan-out inside the engine bypasses the shared Gate's worker budget; use "+analysis.FanOutNames)
				}
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	sysPath string
	// pools enables the pooled-worker shape (internal/service only).
	pools bool
	// releasers holds this package's release functions.
	releasers map[*types.Func]bool
}

// kind is a borrow's shape.
type kind int

const (
	pooled kind = iota
	tokens
	closure
)

// borrow is one tracked obligation: its shape and the call that took it.
type borrow struct {
	kind kind
	call *ast.CallExpr
}

// Per-borrow state bits. A join unions them, so each means "on some path".
const (
	held   uint8 = 1 << iota // borrowed and not yet given back
	called                   // a call has run since the borrow
	put                      // given back by a plain release
)

// state maps each borrow's variable to its bits.
type state map[*types.Var]uint8

func merge(a, b state) state {
	out := make(state, len(a)+len(b))
	for v, bits := range a {
		out[v] = bits
	}
	for v, bits := range b {
		out[v] |= bits
	}
	return out
}

func equal(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for v, bits := range a {
		if other, ok := b[v]; !ok || other != bits {
			return false
		}
	}
	return true
}

// funcCheck runs the dataflow over one function body.
type funcCheck struct {
	c       *checker
	borrows map[*types.Var]*borrow
	vars    []*types.Var // the borrows' variables in the order first seen
	// handsBack records that a return hands a release closure to the
	// caller.
	handsBack bool
	// report enables diagnostics: the fixpoint sweeps run silent, and the
	// driver drops repeats of one diagnostic reached along several paths.
	report bool
}

// check analyzes one body and reports whether it hands a release closure
// back to its caller.
func (c *checker) check(body *ast.BlockStmt, report bool) bool {
	fc := &funcCheck{c: c, borrows: make(map[*types.Var]*borrow)}
	g := c.pass.CFG(body)
	in := cfg.Forward(g, state{}, merge, equal, fc.block)
	if report {
		fc.report = true
		for _, blk := range g.ReversePostorder() {
			if s, ok := in[blk]; ok {
				fc.block(blk, s)
			}
		}
	}
	return fc.handsBack
}

func (fc *funcCheck) block(blk *cfg.Block, in state) state {
	s := merge(in, nil)
	if v := fc.zeroGuard(blk); v != nil {
		delete(s, v)
	}
	for _, n := range blk.Nodes {
		fc.node(n, s)
	}
	if len(blk.Succs) > 0 {
		return s
	}
	if len(blk.Nodes) > 0 {
		switch last := blk.Nodes[len(blk.Nodes)-1].(type) {
		case *ast.ReturnStmt:
			return s // checked by node
		case *ast.ExprStmt:
			if call, ok := last.X.(*ast.CallExpr); ok && fc.c.pass.Info.Uses[identOf(call.Fun)] == types.Universe.Lookup("panic") {
				return s
			}
		}
	}
	fc.exit(nil, s) // falls off the end of the function
	return s
}

func (fc *funcCheck) node(n ast.Node, s state) {
	if fc.report {
		ast.Inspect(n, func(m ast.Node) bool {
			id, _ := m.(*ast.Ident)
			if v, ok := fc.c.pass.Info.Uses[id].(*types.Var); ok && s[v]&put != 0 && fc.borrows[v].kind == pooled {
				fc.reportf(m.Pos(), fmt.Sprintf("worker %s used after put; by now another goroutine may own it", v.Name()))
			}
			return true
		})
	}
	switch n := n.(type) {
	case *ast.DeferStmt:
		if v := fc.released(n.Call, s); v != nil {
			s[v] = 0
			return
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if v := fc.released(call, s); v != nil {
				if s[v]&called != 0 {
					fc.reportf(fc.borrows[v].call.Pos(), "release is not deferred: a panic between the borrow and the release leaks it; defer the release")
				}
				s[v] = put
				return
			}
		}
	}
	ret, isReturn := n.(*ast.ReturnStmt)
	fc.handOff(n, s, isReturn)
	if containsCall(n) {
		for v, bits := range s {
			if bits&held != 0 {
				s[v] |= called
			}
		}
	}
	if isReturn {
		if len(ret.Results) == 1 {
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok && fc.c.isReleaseFunc(call) {
				fc.handsBack = true // passes another release function's result on
			}
		}
		fc.exit(ret, s)
	}
	fc.borrowAt(n, s)
}

// handOff discharges borrows that n hands to a closure: a function literal
// that releases them, or a release closure returned or stored as a value.
func (fc *funcCheck) handOff(n ast.Node, s state, isReturn bool) {
	discharge := func(v *types.Var) {
		if v != nil {
			s[v] = 0
			fc.handsBack = fc.handsBack || isReturn
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		lit, ok := m.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(k ast.Node) bool {
			if call, ok := k.(*ast.CallExpr); ok {
				discharge(fc.released(call, s))
			}
			return true
		})
		return false
	})
	var values []ast.Expr
	switch n := n.(type) {
	case *ast.ReturnStmt:
		values = n.Results
	case *ast.AssignStmt:
		for i, r := range n.Rhs {
			if i >= len(n.Lhs) || !isBlank(n.Lhs[i]) {
				values = append(values, r)
			}
		}
	}
	for _, e := range values {
		discharge(fc.heldAs(e, closure, s))
	}
}

// exit reports every borrow still held at a return (ret) or at the end of
// the function (ret == nil). Pooled leaks are reported at the get, the
// others at the return that escapes with them.
func (fc *funcCheck) exit(ret *ast.ReturnStmt, s state) {
	for _, v := range fc.vars {
		if s[v]&held == 0 {
			continue
		}
		b := fc.borrows[v]
		what := "borrow from " + types.ExprString(b.call.Fun)
		if b.kind == tokens {
			what = "Gate tokens from TryAcquire"
		}
		switch {
		case b.kind == pooled:
			fc.reportf(b.call.Pos(), fmt.Sprintf("worker from %s is not returned with put on every path; use defer %s.put(...)",
				types.ExprString(b.call), types.ExprString(b.call.Fun.(*ast.SelectorExpr).X)))
		case ret != nil:
			fc.reportf(ret.Pos(), "return without releasing the "+what+"; defer the release right after the borrow")
		default:
			fc.reportf(b.call.Pos(), what+" never released on this path; defer the release right after the borrow")
		}
	}
}

// borrowAt starts tracking the borrow n binds, or reports one it discards.
func (fc *funcCheck) borrowAt(n ast.Node, s state) {
	var call *ast.CallExpr
	var lhs []ast.Expr
	switch n := n.(type) {
	case *ast.ExprStmt:
		call, _ = ast.Unparen(n.X).(*ast.CallExpr)
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 {
			call, _ = ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			lhs = n.Lhs
		}
	}
	if call == nil {
		return
	}
	var k kind
	at := 0 // the result holding the borrow
	var msg string
	switch {
	case fc.c.pools && fc.c.isPoolGet(call):
		k, msg = pooled, fmt.Sprintf("result of %s discarded; the worker can never be returned to the pool", types.ExprString(call))
	case fc.c.isGateMethod(call, "TryAcquire"):
		k, msg = tokens, "result of Gate.TryAcquire is discarded: any acquired tokens leak immediately; bind the count and Release it"
	case fc.c.isReleaseFunc(call):
		fn, _ := callgraph.Callee(fc.c.pass.Info, call)
		k, at = closure, releaseResult(fn)
		msg = fmt.Sprintf("release closure from %s is discarded: its borrow can never be given back; bind it and defer it", types.ExprString(call.Fun))
	default:
		return
	}
	var v *types.Var
	if at < len(lhs) && !isBlank(lhs[at]) {
		v, _ = fc.c.pass.Info.Defs[identOf(lhs[at])].(*types.Var)
		if v == nil {
			v, _ = fc.c.pass.Info.Uses[identOf(lhs[at])].(*types.Var)
		}
	}
	if v == nil {
		fc.reportf(call.Pos(), msg)
		return
	}
	if fc.borrows[v] == nil {
		fc.vars = append(fc.vars, v)
	}
	fc.borrows[v] = &borrow{kind: k, call: call}
	s[v] = held
}

// released returns the held borrow call gives back, or nil: p.put(w),
// g.Release(k) or release().
func (fc *funcCheck) released(call *ast.CallExpr, s state) *types.Var {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fc.heldAs(fun, closure, s)
	case *ast.SelectorExpr:
		if len(call.Args) != 1 {
			return nil
		}
		if fun.Sel.Name == "put" {
			return fc.heldAs(call.Args[0], pooled, s)
		}
		if fc.c.isGateMethod(call, "Release") {
			return fc.heldAs(call.Args[0], tokens, s)
		}
	}
	return nil
}

// heldAs returns the variable e names when it holds a borrow of kind k.
func (fc *funcCheck) heldAs(e ast.Expr, k kind, s state) *types.Var {
	v, _ := fc.c.pass.Info.Uses[identOf(e)].(*types.Var)
	if b := fc.borrows[v]; b != nil && b.kind == k && s[v]&held != 0 {
		return v
	}
	return nil
}

// zeroGuard returns the token count k when blk is the then-branch of
// if k == 0.
func (fc *funcCheck) zeroGuard(blk *cfg.Block) *types.Var {
	if blk.Kind != "if.then" || len(blk.Preds[0].Nodes) == 0 {
		return nil
	}
	pred := blk.Preds[0]
	cond, ok := pred.Nodes[len(pred.Nodes)-1].(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL {
		return nil
	}
	if lit, ok := ast.Unparen(cond.Y).(*ast.BasicLit); !ok || lit.Value != "0" {
		return nil
	}
	v, _ := fc.c.pass.Info.Uses[identOf(cond.X)].(*types.Var)
	if b := fc.borrows[v]; b != nil && b.kind == tokens {
		return v
	}
	return nil
}

func (fc *funcCheck) reportf(pos token.Pos, msg string) {
	if fc.report {
		fc.c.pass.Report(pos, msg)
	}
}

// isPoolGet reports whether call is a no-argument get() returning one
// pointer, on a type that also has put(T) for that pointer type T.
func (c *checker) isPoolGet(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "get" || len(call.Args) != 0 {
		return false
	}
	selection, ok := c.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	sig := selection.Obj().Type().(*types.Signature)
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	res := sig.Results().At(0).Type()
	if _, isPtr := res.Underlying().(*types.Pointer); !isPtr {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(selection.Recv(), true, c.pass.Pkg, "put")
	putFn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	putSig := putFn.Type().(*types.Signature)
	return putSig.Params().Len() == 1 && types.Identical(putSig.Params().At(0).Type(), res)
}

// isGateMethod reports whether call is the named method of *system.Gate.
func (c *checker) isGateMethod(call *ast.CallExpr, name string) bool {
	fn, ok := callgraph.Callee(c.pass.Info, call)
	if !ok || fn.Name() != name {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.TypeString(recv.Type(), nil) == "*"+c.sysPath+".Gate"
}

// isReleaseFunc reports whether call statically calls a release function
// of this package or, through its fact, of an imported one.
func (c *checker) isReleaseFunc(call *ast.CallExpr) bool {
	fn, ok := callgraph.Callee(c.pass.Info, call)
	return ok && (c.releasers[fn] || c.pass.ImportObjectFact(fn, &ReleaseFunc{}))
}

// releaseResult returns the index of fn's last func() result, or -1.
func releaseResult(fn *types.Func) int {
	res := fn.Type().(*types.Signature).Results()
	for i := res.Len() - 1; i >= 0; i-- {
		if sig, ok := res.At(i).Type().Underlying().(*types.Signature); ok && sig.Params().Len() == 0 && sig.Results().Len() == 0 {
			return i
		}
	}
	return -1
}

// identOf returns the identifier n is, ignoring parentheses, or nil.
func identOf(n ast.Node) *ast.Ident {
	if e, ok := n.(ast.Expr); ok {
		id, _ := ast.Unparen(e).(*ast.Ident)
		return id
	}
	return nil
}

func isBlank(e ast.Expr) bool {
	id := identOf(e)
	return id != nil && id.Name == "_"
}

func containsCall(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}
