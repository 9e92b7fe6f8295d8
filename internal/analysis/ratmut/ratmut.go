// Package ratmut implements the kpavet analyzer that enforces internal/rat's
// "never mutate operands" rule.
//
// rat.Rat is documented as immutable: all operations return fresh values,
// so Rats may be freely shared across goroutines, memo tables and caches.
// The implementation keeps that promise only if every mutating *big.Rat /
// *big.Int method call inside internal/rat targets a receiver the function
// freshly allocated — never a pointer that may alias an operand's
// internals (the unexported big() accessor, a field, a parameter, a
// package variable). This analyzer checks exactly that: it classifies
// each local value as fresh (derived from new(big.Rat), big.NewRat, a
// copying helper like Rat.Big, or a method chain rooted at one) or
// possibly shared, and flags every mutating call whose receiver is not
// provably fresh.
//
// Freshness of helpers is a promote-until-stable fixpoint over the
// package's own functions: a function counts as a fresh source when
// every big-pointer value it returns is itself fresh, which is how
// chains like base := x.Big(); base.Mul(base, base) are accepted while
// x.big().Add(...) is flagged. The fixpoint is intra-package: bigimport
// confines math/big to internal/rat, so no other package can declare a
// helper that returns a big pointer. Mutating calls are checked by
// walking the reachable blocks of each function's control-flow graph.
package ratmut

import (
	"fmt"
	"go/ast"
	"go/types"

	"kpa/internal/analysis"
)

// Analyzer flags mutating big.Rat/big.Int calls on possibly shared receivers.
type Analyzer struct{}

// New returns the ratmut analyzer.
func New() *Analyzer { return &Analyzer{} }

func (*Analyzer) Name() string { return "ratmut" }

func (*Analyzer) Doc() string {
	return "inside internal/rat, mutating *big.Rat/*big.Int methods may only be called on freshly allocated receivers, never on pointers that may alias an operand"
}

// mutating lists the math/big methods that write through their receiver.
// Every name not listed (Cmp, Sign, Num, Denom, Float64, String, ...) is
// read-only. Names starting with "Set" are always treated as mutating.
var mutating = map[string]bool{
	"Abs": true, "Add": true, "And": true, "AndNot": true, "Binomial": true,
	"Div": true, "DivMod": true, "Exp": true, "GCD": true, "GobDecode": true,
	"Inv": true, "Lsh": true, "Mod": true, "ModInverse": true, "ModSqrt": true,
	"Mul": true, "MulRange": true, "Neg": true, "Not": true, "Or": true,
	"Quo": true, "QuoRem": true, "Rand": true, "Rem": true, "Rsh": true,
	"Scan": true, "Set": true, "Sqrt": true, "Sub": true,
	"UnmarshalJSON": true, "UnmarshalText": true, "Xor": true,
}

func isMutatingName(name string) bool {
	return mutating[name] || (len(name) > 3 && name[:3] == "Set")
}

func (*Analyzer) Run(pass *analysis.Pass) error {
	if pass.PkgPath != pass.Module+"/internal/rat" {
		return nil
	}
	a := &checker{pass: pass, freshFuncs: make(map[*types.Func]bool)}
	a.fixpointFreshFuncs()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			env := a.localFreshness(fd)
			a.checkCalls(fd.Body, env)
		}
	}
	return nil
}

type checker struct {
	pass       *analysis.Pass
	freshFuncs map[*types.Func]bool
}

// bigPointee reports whether t is *big.Rat or *big.Int and returns the
// pointee's name ("Rat"/"Int").
func bigPointee(t types.Type) (string, bool) {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "math/big" {
		return "", false
	}
	if n := obj.Name(); n == "Rat" || n == "Int" {
		return n, true
	}
	return "", false
}

// mutatingBigCall reports whether call is recv.M(...) for a mutating
// method M of *big.Rat/*big.Int, returning the receiver expression.
func (a *checker) mutatingBigCall(call *ast.CallExpr) (recv ast.Expr, typeName, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", "", false
	}
	selection, isMethod := a.pass.Info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return nil, "", "", false
	}
	fn, isFunc := selection.Obj().(*types.Func)
	if !isFunc || fn.Pkg() == nil || fn.Pkg().Path() != "math/big" {
		return nil, "", "", false
	}
	if !isMutatingName(fn.Name()) {
		return nil, "", "", false
	}
	sig := fn.Type().(*types.Signature)
	name, isBig := bigPointee(sig.Recv().Type())
	if !isBig {
		return nil, "", "", false
	}
	return sel.X, name, fn.Name(), true
}

// env maps function-local variables to freshness; absent means not fresh
// (parameters, receivers, captured package state).
type env map[types.Object]bool

// localFreshness computes, by poisoning fixpoint over the function body,
// which local variables only ever hold freshly allocated values.
func (a *checker) localFreshness(fd *ast.FuncDecl) env {
	body := fd.Body
	e := make(env)
	// Parameters and receivers (of fd and of every closure inside it) are
	// shared storage by definition: seed them poisoned so a later fresh
	// reassignment cannot retroactively bless an earlier mutation — the
	// analysis is flow-insensitive and must stay conservative.
	a.poisonParams(fd.Recv, e)
	a.poisonParams(fd.Type.Params, e)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			a.poisonParams(lit.Type.Params, e)
		}
		return true
	})
	// Optimistically mark every locally defined variable fresh, then
	// poison until stable. Iteration handles assignment cycles in loops.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if obj := a.object(id); obj != nil {
						if _, seen := e[obj]; !seen {
							e[obj] = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				if obj := a.object(id); obj != nil {
					// An uninitialized value-typed var owns its zero
					// storage; an uninitialized pointer is nil (mutating
					// through it panics — not an aliasing concern).
					e[obj] = true
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			if spec, ok := n.(*ast.ValueSpec); ok {
				for i, id := range spec.Names {
					if id.Name == "_" || i >= len(spec.Values) {
						continue
					}
					if obj := a.object(id); obj != nil && e[obj] && !a.isFresh(spec.Values[i], e) {
						e[obj] = false
						changed = true
					}
				}
				return true
			}
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(asg.Rhs) == 1 && len(asg.Lhs) > 1 {
				// x, ok := new(big.Rat).SetString(s): the primary result
				// carries the call's freshness.
				if id, isID := asg.Lhs[0].(*ast.Ident); isID && id.Name != "_" {
					if obj := a.object(id); obj != nil && e[obj] && !a.isFresh(asg.Rhs[0], e) {
						e[obj] = false
						changed = true
					}
				}
				return true
			}
			for i, lhs := range asg.Lhs {
				id, isID := lhs.(*ast.Ident)
				if !isID || id.Name == "_" || i >= len(asg.Rhs) {
					continue
				}
				if obj := a.object(id); obj != nil && e[obj] && !a.isFresh(asg.Rhs[i], e) {
					e[obj] = false
					changed = true
				}
			}
			return true
		})
	}
	return e
}

func (a *checker) poisonParams(fields *ast.FieldList, e env) {
	if fields == nil {
		return
	}
	for _, field := range fields.List {
		for _, name := range field.Names {
			if obj := a.object(name); obj != nil {
				e[obj] = false
			}
		}
	}
}

func (a *checker) object(id *ast.Ident) types.Object {
	if obj := a.pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return a.pass.Info.Uses[id]
}

// isFresh reports whether expr certainly evaluates to newly allocated
// storage no operand can alias.
func (a *checker) isFresh(expr ast.Expr, e env) bool {
	switch expr := expr.(type) {
	case *ast.ParenExpr:
		return a.isFresh(expr.X, e)
	case *ast.Ident:
		obj := a.object(expr)
		return obj != nil && e[obj]
	case *ast.UnaryExpr:
		// &big.Rat{...} and &localValue both denote storage this
		// function controls.
		if _, isLit := expr.X.(*ast.CompositeLit); isLit {
			return true
		}
		if id, isID := expr.X.(*ast.Ident); isID {
			obj := a.object(id)
			if v, isVar := obj.(*types.Var); isVar && !v.IsField() && v.Pkg() != nil && e[obj] {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return a.isFreshCall(expr, e)
	}
	return false
}

func (a *checker) isFreshCall(call *ast.CallExpr, e env) bool {
	// new(big.Rat), new(big.Int)
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isBuiltin := a.object(id).(*types.Builtin); isBuiltin && b.Name() == "new" {
			return true
		}
	}
	switch fun := a.callee(call).(type) {
	case *types.Func:
		if fun.Pkg() != nil && fun.Pkg().Path() == "math/big" {
			sig := fun.Type().(*types.Signature)
			if sig.Recv() == nil {
				// big.NewRat, big.NewInt, ... every math/big constructor
				// returns a fresh value.
				return true
			}
			// A mutating method returns its receiver: the chain
			// new(big.Rat).Set(x) is as fresh as its root.
			if isMutatingName(fun.Name()) {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					return a.isFresh(sel.X, e)
				}
			}
			return false
		}
		// A function whose big-pointer results are all fresh (e.g.
		// Rat.Big) is a fresh source.
		return a.freshFuncs[fun]
	}
	return false
}

func (a *checker) callee(call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return a.object(fun)
	case *ast.SelectorExpr:
		if sel, ok := a.pass.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		return a.object(fun.Sel)
	case *ast.ParenExpr:
		inner := &ast.CallExpr{Fun: fun.X, Args: call.Args}
		return a.callee(inner)
	}
	return nil
}

// fixpointFreshFuncs classifies every function declared in the package:
// it is a fresh source iff it has a body, returns at least one value, and
// every returned expression of *big.Rat/*big.Int type is fresh.
func (a *checker) fixpointFreshFuncs() {
	type declInfo struct {
		fn   *types.Func
		decl *ast.FuncDecl
	}
	var decls []declInfo
	for _, f := range a.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := a.pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls = append(decls, declInfo{fn, fd})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if a.freshFuncs[d.fn] {
				continue
			}
			if a.returnsOnlyFreshBigs(d.decl) {
				a.freshFuncs[d.fn] = true
				changed = true
			}
		}
	}
}

func (a *checker) returnsOnlyFreshBigs(fd *ast.FuncDecl) bool {
	sig, ok := a.pass.Info.Defs[fd.Name].Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	returnsBig := false
	for i := 0; i < sig.Results().Len(); i++ {
		if _, isBig := bigPointee(sig.Results().At(i).Type()); isBig {
			returnsBig = true
		}
	}
	if !returnsBig {
		return false
	}
	e := a.localFreshness(fd)
	fresh := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // nested closures return for themselves
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			tv, ok := a.pass.Info.Types[res]
			if !ok {
				continue
			}
			if _, isBig := bigPointee(tv.Type); isBig && !a.isFresh(res, e) {
				fresh = false
			}
		}
		return true
	})
	return fresh
}

// checkCalls reports every mutating big call whose receiver is not
// fresh. It enumerates the reachable blocks of the body's control-flow
// graph — each reachable statement appears in exactly one block, and
// function literals stay embedded in their blocks' nodes, so closures
// are covered while code after a return or panic is not.
func (a *checker) checkCalls(body *ast.BlockStmt, e env) {
	for _, blk := range a.pass.CFG(body).Reachable() {
		for _, node := range blk.Nodes {
			ast.Inspect(node, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				recv, typeName, method, ok := a.mutatingBigCall(call)
				if !ok {
					return true
				}
				if !a.isFresh(recv, e) {
					a.pass.Report(call.Pos(), fmt.Sprintf(
						"(*big.%s).%s on a receiver that may alias an operand; mutate only fresh values (new(big.%s) or a copy)",
						typeName, method, typeName))
				}
				return true
			})
		}
	}
}
