// Package shardsafe implements the kpavet analyzer for the write
// discipline inside system.ParRange shard bodies.
//
// ParRange(n, align, workers, body) splits [0, n) into contiguous
// per-shard ranges [lo, hi) whose interior boundaries are multiples of
// align, and runs body(shard, lo, hi) concurrently. The engine's whole
// determinism story (PR 8) rests on those bodies never racing: every
// write a shard performs must be provably confined to state no other
// shard touches. Four idioms satisfy that:
//
//   - shard-owned allocations: locals bound inside the body to make/new,
//     composite literals, or calls the shard itself performs (a fresh
//     scratch set per shard);
//   - the shard-indexed slot idiom: state read from base[shard], so
//     each shard works on its own slot of a pre-sized table;
//   - range-disjoint element writes: buf[i] = ... where i is the lo
//     parameter or a loop variable provably confined to [lo, hi) —
//     disjoint ranges make disjoint elements at any alignment;
//   - 64-aligned word writes: bits[i/64] |= ... is disjoint across
//     shards only when the ParRange alignment is a multiple of the
//     divisor, so shard boundaries never split a word.
//
// Everything else — assigning a captured variable, appending to a
// captured slice, writing a captured map, bulk-mutating a captured set —
// is a cross-shard race and is flagged, unless the statement is guarded
// by a mutex held at the write (the merge-under-lock idiom).
//
// Mutations hidden behind method calls are handled with facts mined from
// the method bodies themselves: a method whose every receiver write hits
// the word index p/c of its single int parameter p exports a
// PointwiseMutator fact carrying the divisor (DenseSet.Add writes
// bits[id/64], divisor 64), so calling it on a captured set with a
// range-confined argument is exactly as safe as the inline word write —
// checked against the same alignment rule. Receiver-writing methods
// that are not pointwise export BulkMutator and are rejected on captured
// sets outright.
//
// A write target's ownership is decided by chasing every definition of
// its root variable inside the body (fresh allocation, base[shard]
// slot, lo:hi subslice, or another owned local). Call results bound
// inside the body count as shard-owned — the shard asked for the
// allocation — which is the one deliberate leniency; functions
// returning aliases into shared state defeat it and stay the
// reviewer's job.
package shardsafe

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"kpa/internal/analysis"
	"kpa/internal/analysis/callgraph"
)

// PointwiseMutator marks a method whose only receiver writes target
// index p/Div for its single int parameter p, so a call m(x) mutates
// exactly one element of one word-row and is shard-disjoint whenever x
// is confined to the shard's range and the ParRange alignment is a
// multiple of Div.
type PointwiseMutator struct {
	Div int64
}

// AFact marks PointwiseMutator as a driver-transportable fact.
func (*PointwiseMutator) AFact() {}

// BulkMutator marks a method that writes through its receiver in a way
// that is not pointwise (loops over words, whole-set operations), so it
// may touch state outside the calling shard's range.
type BulkMutator struct{}

// AFact marks BulkMutator as a driver-transportable fact.
func (*BulkMutator) AFact() {}

// Analyzer enforces the shard-disjoint write discipline inside
// system.ParRange bodies.
type Analyzer struct{}

// New returns the shardsafe analyzer.
func New() *Analyzer { return &Analyzer{} }

func (*Analyzer) Name() string { return "shardsafe" }

func (*Analyzer) Doc() string {
	return "writes inside a system.ParRange shard body must target shard-owned allocations, the shard-indexed slot idiom, or indexes derived from the shard's lo:hi range with a compatible alignment; writes to captured shared state race across shards"
}

func (*Analyzer) Run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		sysPath:   pass.Module + "/internal/system",
		pointwise: make(map[*types.Func]int64),
		bulk:      make(map[*types.Func]bool),
	}
	if pass.PkgPath == c.sysPath {
		c.findMutators()
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkDecl(fd)
		}
	}
	for fn, div := range c.pointwise {
		pass.ExportObjectFact(fn, &PointwiseMutator{Div: div})
	}
	for fn := range c.bulk {
		pass.ExportObjectFact(fn, &BulkMutator{})
	}
	return nil
}

type checker struct {
	pass      *analysis.Pass
	sysPath   string
	pointwise map[*types.Func]int64
	bulk      map[*types.Func]bool
}

// --- mutator discovery over internal/system ---

// findMutators classifies every pointer-receiver method of the system
// package by its receiver writes: all writes pointwise on the single int
// parameter with one divisor → PointwiseMutator; any other receiver
// write → BulkMutator; no receiver writes → no fact.
func (c *checker) findMutators() {
	for _, f := range c.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			fn, ok := c.pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := c.recvVar(fd)
			if recv == nil {
				continue
			}
			writes := receiverWrites(fd.Body, recv, c.pass.Info)
			if len(writes) == 0 {
				continue
			}
			if div, ok := c.pointwiseDiv(fd, writes); ok {
				c.pointwise[fn] = div
			} else {
				c.bulk[fn] = true
			}
		}
	}
}

func (c *checker) recvVar(fd *ast.FuncDecl) *types.Var {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := c.pass.Info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// receiverWrites collects every lvalue whose base identifier is recv.
func receiverWrites(body *ast.BlockStmt, recv *types.Var, info *types.Info) []ast.Expr {
	var out []ast.Expr
	through := func(e ast.Expr) bool {
		id := baseIdent(e)
		return id != nil && info.Uses[id] == recv
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if _, plain := ast.Unparen(l).(*ast.Ident); !plain && through(l) {
					out = append(out, l)
				}
			}
		case *ast.IncDecStmt:
			if _, plain := ast.Unparen(n.X).(*ast.Ident); !plain && through(n.X) {
				out = append(out, n.X)
			}
		}
		return true
	})
	return out
}

// pointwiseDiv reports whether every receiver write indexes by p/div for
// the method's single int parameter p, returning the shared divisor.
func (c *checker) pointwiseDiv(fd *ast.FuncDecl, writes []ast.Expr) (int64, bool) {
	p := singleIntParam(fd, c.pass.Info)
	if p == nil {
		return 0, false
	}
	div := int64(0)
	for _, w := range writes {
		ix, ok := ast.Unparen(w).(*ast.IndexExpr)
		if !ok {
			return 0, false
		}
		d, ok := c.indexDivisor(ix.Index, p)
		if !ok {
			return 0, false
		}
		if div == 0 {
			div = d
		} else if div != d {
			return 0, false
		}
	}
	return div, div != 0
}

func singleIntParam(fd *ast.FuncDecl, info *types.Info) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	var params []*types.Var
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				params = append(params, v)
			}
		}
	}
	if len(params) != 1 {
		return nil
	}
	b, ok := params[0].Type().Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return nil
	}
	return params[0]
}

// indexDivisor matches an index expression against the pointwise forms
// p (divisor 1), p/c, and p>>k (divisor 1<<k) for the given variable p.
func (c *checker) indexDivisor(e ast.Expr, p *types.Var) (int64, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if c.pass.Info.Uses[e] == p {
			return 1, true
		}
	case *ast.BinaryExpr:
		id, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok || c.pass.Info.Uses[id] != p {
			return 0, false
		}
		k, ok := c.constInt(e.Y)
		if !ok || k <= 0 {
			return 0, false
		}
		switch e.Op {
		case token.QUO:
			return k, true
		case token.SHR:
			if k < 63 {
				return 1 << k, true
			}
		}
	}
	return 0, false
}

func (c *checker) constInt(e ast.Expr) (int64, bool) {
	tv, ok := c.pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// --- ParRange site checking ---

// checkDecl finds every ParRange call with a literal body inside fd and
// checks the literal's writes.
func (c *checker) checkDecl(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := callgraph.Callee(c.pass.Info, call)
		if !ok || fn.Name() != "ParRange" || fn.Pkg() == nil || fn.Pkg().Path() != c.sysPath {
			return true
		}
		if len(call.Args) != 4 {
			return true
		}
		lit, ok := ast.Unparen(call.Args[3]).(*ast.FuncLit)
		if !ok {
			return true
		}
		align, ok := c.constInt(call.Args[1])
		if !ok || align < 1 {
			align = 1 // unknown alignment: only element-disjoint writes pass
		}
		lc := newLitChecker(c, lit, align)
		lc.walkStmts(lit.Body.List, false)
		return true
	})
}

// litChecker checks one ParRange body literal.
type litChecker struct {
	c     *checker
	defs  map[*types.Var][]def
	lit   *ast.FuncLit
	align int64
	// shard, lo, hi are the literal's positional parameters (nil for _).
	shard, lo, hi *types.Var
	// bounded holds variables confined to [lo, hi): the lo parameter and
	// loop variables of for i := lo; i < hi; i++ loops (plus locals
	// copied from them).
	bounded map[*types.Var]bool
	// owned memoizes shard-ownership per root variable (0 unknown,
	// 1 owned, -1 shared).
	owned map[*types.Var]int8
}

func newLitChecker(c *checker, lit *ast.FuncLit, align int64) *litChecker {
	lc := &litChecker{
		c:       c,
		defs:    collectDefs(lit, c.pass.Info),
		lit:     lit,
		align:   align,
		bounded: make(map[*types.Var]bool),
		owned:   make(map[*types.Var]int8),
	}
	var params []*types.Var
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				v, _ := c.pass.Info.Defs[name].(*types.Var)
				params = append(params, v) // nil for _
			}
		}
	}
	if len(params) == 3 {
		lc.shard, lc.lo, lc.hi = params[0], params[1], params[2]
	}
	if lc.lo != nil {
		lc.bounded[lc.lo] = true
	}
	return lc
}

// litLocal reports whether v is declared inside the literal.
func (lc *litChecker) litLocal(v *types.Var) bool {
	return v != nil && lc.lit.Pos() <= v.Pos() && v.Pos() <= lc.lit.End()
}

func (lc *litChecker) objOf(id *ast.Ident) *types.Var {
	if v, ok := lc.c.pass.Info.Uses[id].(*types.Var); ok {
		return v
	}
	v, _ := lc.c.pass.Info.Defs[id].(*types.Var)
	return v
}

// walkStmts checks a statement list, tracking mutex spans sequentially:
// between mu.Lock() and mu.Unlock() (or after defer mu.Unlock() with the
// lock held) writes are merge-under-lock and exempt.
func (lc *litChecker) walkStmts(stmts []ast.Stmt, locked bool) {
	for _, s := range stmts {
		locked = lc.walkStmt(s, locked)
	}
}

func (lc *litChecker) walkStmt(s ast.Stmt, locked bool) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			switch lockCall(call) {
			case "Lock", "RLock":
				return true
			case "Unlock", "RUnlock":
				return false
			}
			if !locked {
				lc.checkMutatorCall(call)
			}
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to the end of the body.
		if lockCall(s.Call) == "Unlock" || lockCall(s.Call) == "RUnlock" {
			return locked
		}
	case *ast.AssignStmt:
		if !locked {
			isAppend := len(s.Rhs) == 1 && isAppendCall(s.Rhs[0])
			for _, l := range s.Lhs {
				lc.checkWrite(l, isAppend)
			}
		}
	case *ast.IncDecStmt:
		if !locked {
			lc.checkWrite(s.X, false)
		}
	case *ast.BlockStmt:
		lc.walkStmts(s.List, locked)
	case *ast.IfStmt:
		if s.Init != nil {
			lc.walkStmt(s.Init, locked)
		}
		lc.walkStmt(s.Body, locked)
		if s.Else != nil {
			lc.walkStmt(s.Else, locked)
		}
	case *ast.ForStmt:
		added := lc.addBoundedLoopVar(s)
		if s.Init != nil {
			lc.walkStmt(s.Init, locked)
		}
		if s.Post != nil {
			lc.walkStmt(s.Post, locked)
		}
		lc.walkStmt(s.Body, locked)
		if added != nil {
			delete(lc.bounded, added)
		}
	case *ast.RangeStmt:
		// Tok == DEFINE binds fresh locals; Tok == ASSIGN writes targets.
		if s.Tok == token.ASSIGN && !locked {
			for _, x := range []ast.Expr{s.Key, s.Value} {
				if x != nil {
					lc.checkWrite(x, false)
				}
			}
		}
		lc.walkStmt(s.Body, locked)
	case *ast.SwitchStmt:
		if s.Init != nil {
			lc.walkStmt(s.Init, locked)
		}
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				lc.walkStmts(clause.Body, locked)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				lc.walkStmts(clause.Body, locked)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				lc.walkStmts(clause.Body, locked)
			}
		}
	case *ast.LabeledStmt:
		return lc.walkStmt(s.Stmt, locked)
	case *ast.GoStmt:
		// A nested goroutine inherits no shard discipline; its writes are
		// held to the same rules (release separately flags the fan-out).
		if nested, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			lc.walkStmts(nested.Body.List, false)
		}
	}
	return locked
}

// addBoundedLoopVar recognizes for i := <bounded>; i < hi; ... and marks
// i range-confined for the loop body.
func (lc *litChecker) addBoundedLoopVar(s *ast.ForStmt) *types.Var {
	init, ok := s.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return nil
	}
	id, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	from, ok := ast.Unparen(init.Rhs[0]).(*ast.Ident)
	if !ok || !lc.bounded[lc.objOf(from)] {
		return nil
	}
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return nil
	}
	cl, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok || lc.c.pass.Info.Uses[cl] != lc.c.pass.Info.Defs[id] {
		return nil
	}
	if !lc.mentionsHi(cond.Y) {
		return nil
	}
	v, ok := lc.c.pass.Info.Defs[id].(*types.Var)
	if !ok || lc.bounded[v] {
		return nil
	}
	lc.bounded[v] = true
	return v
}

// mentionsHi reports whether every identifier in e is hi, a bounded
// variable, or a constant — the shapes "hi", "hi-1" and friends.
func (lc *litChecker) mentionsHi(e ast.Expr) bool {
	sawHi := false
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		id, isID := n.(*ast.Ident)
		if !isID {
			return true
		}
		v := lc.objOf(id)
		switch {
		case v != nil && v == lc.hi:
			sawHi = true
		case v != nil && lc.bounded[v]:
		case v == nil: // constant, builtin
		default:
			ok = false
		}
		return true
	})
	return sawHi && ok
}

// --- definition collection ---

// defKind says how a definition binds its variable.
type defKind int

const (
	defAssign defKind = iota // x := e, x = e or var x = e, paired one to one
	defTuple                 // a binding from one multi-value right-hand side
	defParam                 // a parameter or named result of a function literal
	defRange                 // a range key or value; rhs is the ranged operand
	defZero                  // var x with no initializer
	defUpdate                // x++, x-- or x op= e
)

// def is one definition of a variable: how it binds and, for defAssign,
// defTuple and defRange, the expression its value comes from.
type def struct {
	kind defKind
	rhs  ast.Expr
}

// collectDefs records every definition inside lit, nested literals
// included, keyed by the defined variable.
func collectDefs(lit *ast.FuncLit, info *types.Info) map[*types.Var][]def {
	defs := make(map[*types.Var][]def)
	add := func(id *ast.Ident, d def) {
		v, ok := info.Defs[id].(*types.Var)
		if !ok {
			v, ok = info.Uses[id].(*types.Var)
		}
		if ok {
			defs[v] = append(defs[v], d)
		}
	}
	ast.Inspect(lit, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok {
					add(id, def{kind: defUpdate})
				}
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					add(id, def{defAssign, n.Rhs[i]})
				} else {
					add(id, def{defTuple, n.Rhs[0]})
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				add(id, def{kind: defUpdate})
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				switch {
				case len(n.Values) == 0:
					add(id, def{kind: defZero})
				case len(n.Values) == len(n.Names):
					add(id, def{defAssign, n.Values[i]})
				default:
					add(id, def{defTuple, n.Values[0]})
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, x := range []ast.Expr{n.Key, n.Value} {
					if id, ok := x.(*ast.Ident); ok {
						add(id, def{defRange, n.X})
					}
				}
			}
		case *ast.FuncLit:
			for _, fl := range []*ast.FieldList{n.Type.Params, n.Type.Results} {
				if fl == nil {
					continue
				}
				for _, f := range fl.List {
					for _, id := range f.Names {
						add(id, def{kind: defParam})
					}
				}
			}
		}
		return true
	})
	return defs
}

// freshExpr reports whether e syntactically allocates fresh memory:
// make, new, a composite literal or its address.
func freshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "make" || id.Name == "new"
		}
	}
	return false
}

// --- write classification ---

func (lc *litChecker) report(pos token.Pos, format string, args ...any) {
	lc.c.pass.Report(pos, fmt.Sprintf(format, args...))
}

func (lc *litChecker) checkWrite(lhs ast.Expr, isAppend bool) {
	switch lv := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lv.Name == "_" {
			return
		}
		v := lc.objOf(lv)
		if v == nil || lc.litLocal(v) {
			return // rebinding a shard-local variable
		}
		if isAppend {
			lc.report(lv.Pos(), "append to captured %s inside a ParRange shard body can cross shards; use the shard-indexed slot idiom or merge under a mutex after the loop", lv.Name)
			return
		}
		lc.report(lv.Pos(), "write to captured variable %s inside a ParRange shard body races across shards; make it shard-owned, use the shard-indexed slot idiom, or guard it with a mutex", lv.Name)
	case *ast.IndexExpr:
		if isMapType(lc.c.pass.Info, lv.X) {
			if !lc.ownedExprRoot(lv.X) {
				lc.report(lv.Pos(), "write to captured map %s inside a ParRange shard body races across shards; give each shard its own map or merge under a mutex", exprName(lv.X))
			}
			return
		}
		if lc.disjointIndex(lv.Index) {
			return
		}
		if lc.ownedExprRoot(lv.X) {
			return
		}
		lc.report(lv.Pos(), "write to %s[%s] inside a ParRange shard body is not provably shard-disjoint: the index is not derived from the shard's lo:hi range (alignment %d)", exprName(lv.X), exprName(lv.Index), lc.align)
	default:
		// Selector, dereference, nested index: owned-root or flagged.
		if lc.ownedExprRoot(lv) {
			return
		}
		lc.report(lhs.Pos(), "write through captured %s inside a ParRange shard body races across shards; make the target shard-owned or guard it with a mutex", exprName(lhs))
	}
}

// disjointIndex reports whether index expression e provably lands in a
// region no other shard writes: a [lo,hi)-bounded variable (element
// writes are disjoint at any alignment), the shard parameter (the slot
// idiom), or b/c and b>>k over a bounded b when the ParRange alignment
// is a multiple of the divisor (word writes never straddle a shard
// boundary).
func (lc *litChecker) disjointIndex(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v := lc.objOf(e)
		return v != nil && (lc.bounded[v] || v == lc.shard)
	case *ast.BinaryExpr:
		id, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok {
			return false
		}
		v := lc.objOf(id)
		if v == nil || !lc.bounded[v] {
			return false
		}
		k, ok := lc.c.constInt(e.Y)
		if !ok || k <= 0 {
			return false
		}
		var div int64
		switch e.Op {
		case token.QUO:
			div = k
		case token.SHR:
			if k >= 63 {
				return false
			}
			div = 1 << k
		default:
			return false
		}
		return lc.align%div == 0
	}
	return false
}

// ownedExprRoot decides whether the written-through expression is rooted
// in shard-owned state.
func (lc *litChecker) ownedExprRoot(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			v := lc.objOf(x)
			return v != nil && lc.ownedVar(v)
		case *ast.CallExpr:
			return true // allocation or accessor invoked by this shard
		default:
			return false
		}
	}
}

// ownedVar reports whether every definition of v inside the literal
// binds shard-owned state.
func (lc *litChecker) ownedVar(v *types.Var) bool {
	if !lc.litLocal(v) {
		return false
	}
	switch lc.owned[v] {
	case 1:
		return true
	case -1:
		return false
	}
	lc.owned[v] = -1 // cycle guard: assume shared while computing
	result := true
	defs := lc.defs[v]
	if len(defs) == 0 {
		result = false
	}
	for _, d := range defs {
		if !lc.ownedDef(d) {
			result = false
			break
		}
	}
	if result {
		lc.owned[v] = 1
	}
	return result
}

func (lc *litChecker) ownedDef(d def) bool {
	switch d.kind {
	case defZero:
		return true // zero value aliases nothing
	case defUpdate:
		return true // derives from the variable's own prior defs
	case defAssign, defRange:
		return lc.ownedExpr(d.rhs)
	case defTuple:
		_, isCall := ast.Unparen(d.rhs).(*ast.CallExpr)
		return isCall
	}
	return false // defParam: not provably owned
}

// ownedExpr classifies a defining right-hand side as shard-owned.
func (lc *litChecker) ownedExpr(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if freshExpr(e) {
		return true
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v := lc.objOf(e)
		if v == nil {
			return true // constant: scalar
		}
		return lc.ownedVar(v)
	case *ast.IndexExpr:
		// base[shard]: the slot idiom. Any other index reads a value that
		// may be shared with other shards' slots.
		if id, ok := ast.Unparen(e.Index).(*ast.Ident); ok {
			if v := lc.objOf(id); v != nil && v == lc.shard {
				return true
			}
		}
		return false
	case *ast.SliceExpr:
		return lc.ownedSlice(e)
	case *ast.CallExpr:
		return true // shard-invoked allocation (documented leniency)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return lc.ownedExprRoot(e.X)
		}
		return e.Op != token.ARROW // arithmetic on scalars
	case *ast.BasicLit, *ast.BinaryExpr, *ast.CompositeLit:
		return true // scalars and fresh literals
	}
	return false
}

// ownedSlice accepts base[f(lo):g(hi)] when both bounds are built from
// lo/hi/bounded variables and constants, and any divisor appearing in
// them divides the ParRange alignment — the shard's own subrange of a
// shared backing array.
func (lc *litChecker) ownedSlice(e *ast.SliceExpr) bool {
	if e.Low == nil && e.High == nil {
		return lc.ownedExprRoot(e.X) // full reslice: same owner
	}
	for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
		if b == nil {
			continue
		}
		if !lc.rangeBound(b) {
			return false
		}
	}
	return true
}

// rangeBound reports whether a slice bound is derived from the shard's
// range: every identifier is lo, hi, shard or bounded, and every
// division's divisor divides the alignment.
func (lc *litChecker) rangeBound(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			v := lc.objOf(n)
			if v == nil {
				return true // constant
			}
			if v != lc.lo && v != lc.hi && v != lc.shard && !lc.bounded[v] {
				ok = false
			}
		case *ast.BinaryExpr:
			if n.Op == token.QUO || n.Op == token.SHR {
				k, isConst := lc.c.constInt(n.Y)
				if !isConst || k <= 0 {
					ok = false
					return false
				}
				div := k
				if n.Op == token.SHR {
					if k >= 63 {
						ok = false
						return false
					}
					div = 1 << k
				}
				if lc.align%div != 0 {
					ok = false
				}
			}
		case *ast.CallExpr:
			ok = false
			return false
		}
		return true
	})
	return ok
}

// checkMutatorCall checks method calls on captured state against the
// pointwise/bulk facts mined from internal/system.
func (lc *litChecker) checkMutatorCall(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := callgraph.Callee(lc.c.pass.Info, call)
	if !ok {
		return
	}
	div, pointwise := lc.c.pointwise[fn]
	if !pointwise {
		var pf PointwiseMutator
		if lc.c.pass.ImportObjectFact(fn, &pf) {
			div, pointwise = pf.Div, true
		}
	}
	bulk := lc.c.bulk[fn] || lc.c.pass.ImportObjectFact(fn, &BulkMutator{})
	if !pointwise && !bulk {
		return
	}
	if lc.ownedExprRoot(sel.X) {
		return // mutating shard-owned state is always fine
	}
	if bulk && !pointwise {
		lc.report(call.Pos(), "%s.%s bulk-mutates a captured set inside a ParRange shard body; clone per shard or merge under a mutex", exprName(sel.X), fn.Name())
		return
	}
	if len(call.Args) != 1 {
		return
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		lc.report(call.Pos(), "%s.%s on a captured set inside a ParRange shard body with an index not derived from the shard's lo:hi range", exprName(sel.X), fn.Name())
		return
	}
	v := lc.objOf(arg)
	if v == nil || !lc.bounded[v] {
		lc.report(call.Pos(), "%s.%s on a captured set inside a ParRange shard body with an index not derived from the shard's lo:hi range", exprName(sel.X), fn.Name())
		return
	}
	if lc.align%div != 0 {
		lc.report(call.Pos(), "%s.%s writes word index/%d of a captured set, but this ParRange uses alignment %d; align must be a multiple of %d for shard-disjoint word writes", exprName(sel.X), fn.Name(), div, lc.align, div)
	}
}

// --- small helpers ---

func lockCall(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return sel.Sel.Name
	}
	return ""
}

func isAppendCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "append"
}

func isMapType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// exprName renders a short name for diagnostics.
func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprName(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprName(e.X)
	case *ast.CallExpr:
		return exprName(e.Fun) + "(...)"
	}
	return "expression"
}
