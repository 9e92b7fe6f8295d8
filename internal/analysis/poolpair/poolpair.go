// Package poolpair implements the kpavet analyzer for internal/service's
// evaluator-pool checkout contract.
//
// logic.Evaluator is not safe for concurrent use, so the service lends
// workers out through per-(system, assignment) pools: every pool.get()
// must be matched by a put on all paths out of the function (the defer
// put idiom is the preferred form), and the worker must not be touched
// after it has been returned — by then another goroutine may own it.
// One -race run catches a schedule that happens to interleave; this
// analyzer rejects the code shape itself, on every PR.
//
// A "pool" is recognized structurally, not by name: any method get() with
// no arguments returning a single pointer, on a type that also has a
// put(x) method accepting exactly that pointer type. The verdict cache's
// get(key)/put(key, v) pair does not match and is left alone.
package poolpair

import (
	"fmt"
	"go/ast"
	"go/types"

	"kpa/internal/analysis"
)

// Analyzer enforces the get/put checkout contract in internal/service.
type Analyzer struct{}

// New returns the poolpair analyzer.
func New() *Analyzer { return &Analyzer{} }

func (*Analyzer) Name() string { return "poolpair" }

func (*Analyzer) Doc() string {
	return "in internal/service every pool.get() must be matched by a put on all paths (defer put is the idiom), and the worker must not be used after put"
}

func (*Analyzer) Run(pass *analysis.Pass) error {
	if pass.PkgPath != pass.Module+"/internal/service" {
		return nil
	}
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					c.checkBody(n.Body)
				}
				return false // checkBody recurses into nested closures itself
			case *ast.FuncLit:
				return false
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// checkBody walks one function body (descending into closures, each of
// which is its own checkout scope) and analyzes every pool.get() call it
// finds against the statements that follow it.
func (c *checker) checkBody(body *ast.BlockStmt) {
	c.checkStmts(body.List)
}

func (c *checker) checkStmts(stmts []ast.Stmt) {
	for i, s := range stmts {
		// A get whose result is bound to a variable: analyze the rest of
		// this statement list for the matching put.
		if obj, getCall := c.getAssignment(s); getCall != nil {
			rest := stmts[i+1:]
			if obj == nil {
				c.pass.Report(getCall.Pos(), fmt.Sprintf(
					"result of %s discarded; the worker can never be returned to the pool", callString(getCall)))
			} else {
				if !c.guaranteesPut(rest, obj) {
					c.pass.Report(getCall.Pos(), fmt.Sprintf(
						"worker from %s is not returned with put on every path; use defer %s.put(...)",
						callString(getCall), receiverString(getCall)))
				}
				c.checkUseAfterPut(rest, obj, false)
			}
		}
		// Recurse into nested statement lists and closures.
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				c.checkStmts(n.List)
				return false
			case *ast.FuncLit:
				c.checkBody(n.Body)
				return false
			case *ast.CaseClause:
				c.checkStmts(n.Body)
				return false
			case *ast.CommClause:
				c.checkStmts(n.Body)
				return false
			}
			return true
		})
	}
}

// getAssignment recognizes `w := pool.get()` (returning w's object) and a
// bare or discarded `pool.get()` statement (returning a nil object).
func (c *checker) getAssignment(s ast.Stmt) (types.Object, *ast.CallExpr) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return nil, nil
		}
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok || !c.isPoolGet(call) {
			return nil, nil
		}
		if len(s.Lhs) == 1 {
			if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if obj := c.pass.Info.Defs[id]; obj != nil {
					return obj, call
				}
				if obj := c.pass.Info.Uses[id]; obj != nil {
					return obj, call
				}
			}
		}
		return nil, call // blank or multi assignment: worker unreachable
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && c.isPoolGet(call) {
			return nil, call
		}
	}
	return nil, nil
}

// isPoolGet reports whether call is a no-argument method call named "get"
// returning one pointer, on a type that also has put(T) for that pointer
// type T.
func (c *checker) isPoolGet(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "get" || len(call.Args) != 0 {
		return false
	}
	selection, ok := c.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	sig, ok := selection.Obj().Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	res := sig.Results().At(0).Type()
	if _, isPtr := res.Underlying().(*types.Pointer); !isPtr {
		return false
	}
	recv := selection.Recv()
	obj, _, _ := types.LookupFieldOrMethod(recv, true, c.pass.Pkg, "put")
	putFn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	putSig := putFn.Type().(*types.Signature)
	return putSig.Params().Len() == 1 && types.Identical(putSig.Params().At(0).Type(), res)
}

// isPutOf reports whether call is a one-argument method call named "put"
// whose argument resolves to obj.
func (c *checker) isPutOf(call *ast.CallExpr, obj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "put" || len(call.Args) != 1 {
		return false
	}
	id, ok := call.Args[0].(*ast.Ident)
	return ok && c.pass.Info.Uses[id] == obj
}

// guaranteesPut reports whether every path through stmts returns the
// worker. It is deliberately conservative: a put buried in a loop, a
// single-armed if, or a switch does not count; an if counts only when
// both arms guarantee the put. A return or branch statement before any
// put means a path escapes with the worker checked out, and so does a
// return nested in an if, switch or loop body before the put.
func (c *checker) guaranteesPut(stmts []ast.Stmt, obj types.Object) bool {
	for _, s := range stmts {
		if c.isPutStmt(s, obj) {
			return true
		}
		switch s := s.(type) {
		case *ast.BlockStmt:
			if c.guaranteesPut(s.List, obj) {
				return true
			}
		case *ast.IfStmt:
			if c.guaranteesPut(s.Body.List, obj) && s.Else != nil && c.guaranteesElse(s.Else, obj) {
				return true
			}
		case *ast.ReturnStmt, *ast.BranchStmt:
			return false
		}
		if c.returnsBeforePut(s, obj) {
			return false
		}
	}
	return false
}

// returnsBeforePut reports whether some statement list nested in s
// reaches a return before it puts obj back. Function literals return
// for themselves and are skipped.
func (c *checker) returnsBeforePut(s ast.Stmt, obj types.Object) bool {
	found := false
	scan := func(list []ast.Stmt) {
		for _, st := range list {
			if c.isPutStmt(st, obj) {
				return
			}
			if _, ok := st.(*ast.ReturnStmt); ok || c.returnsBeforePut(st, obj) {
				found = true
				return
			}
		}
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			scan(n.List)
			return false
		case *ast.CaseClause:
			scan(n.Body)
			return false
		case *ast.CommClause:
			scan(n.Body)
			return false
		}
		return !found
	})
	return found
}

// isPutStmt reports whether s is p.put(obj) or defer p.put(obj).
func (c *checker) isPutStmt(s ast.Stmt, obj types.Object) bool {
	switch s := s.(type) {
	case *ast.DeferStmt:
		return c.isPutOf(s.Call, obj)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && c.isPutOf(call, obj)
	}
	return false
}

func (c *checker) guaranteesElse(s ast.Stmt, obj types.Object) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.guaranteesPut(s.List, obj)
	case *ast.IfStmt:
		return c.guaranteesPut([]ast.Stmt{s}, obj)
	}
	return false
}

// checkUseAfterPut reports uses of the worker after a non-deferred put in
// the same statement list. Deferred puts run at function exit and never
// precede a use.
func (c *checker) checkUseAfterPut(stmts []ast.Stmt, obj types.Object, putSeen bool) {
	for _, s := range stmts {
		if putSeen {
			if use := c.findUse(s, obj); use != nil {
				c.pass.Report(use.Pos(), fmt.Sprintf(
					"worker %s used after put; by now another goroutine may own it", obj.Name()))
				return // one report per checkout is enough
			}
			continue
		}
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && c.isPutOf(call, obj) {
				putSeen = true
				continue
			}
		}
		// Branch-local puts: uses after the put inside that branch are
		// still wrong, so recurse with a fresh putSeen per nested list.
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				c.checkUseAfterPut(n.List, obj, false)
				return false
			case *ast.FuncLit:
				return false
			}
			return true
		})
	}
}

// findUse returns the first identifier in s that resolves to obj,
// ignoring deferred put calls (they are the sanctioned cleanup).
func (c *checker) findUse(s ast.Stmt, obj types.Object) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(s, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && c.pass.Info.Uses[id] == obj {
			found = id
		}
		return true
	})
	return found
}

func callString(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return receiverStringOf(sel) + ".get()"
	}
	return "get()"
}

func receiverString(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return receiverStringOf(sel)
	}
	return "pool"
}

func receiverStringOf(sel *ast.SelectorExpr) string {
	switch x := sel.X.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return receiverStringOf(x) + "." + x.Sel.Name
	}
	return "pool"
}
