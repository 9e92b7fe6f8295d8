// Package cancelpoll implements the kpavet analyzer for cancellation
// responsiveness in the engine packages.
//
// The evaluator's cancellation contract (PR 8) is cooperative: long
// scans — shard bodies sweeping their part of the point universe,
// condition-less fixpoint rounds — must poll a cancel hook within a
// bounded stride, or a cancelled query keeps burning a full parallel
// fan-out until the scan happens to finish. The hooks are function
// values (func() bool stop functions, func() error hooks like
// Evaluator.cancel), so the call graph alone cannot see the polls; the
// analyzer recognizes a poll as any call through a hook-typed value —
// a captured stop variable, a hook-typed struct field — or any static
// call to a function that itself polls, discovered by a fixpoint over
// the package call graph (synchronous edges only; a go'd call polls on
// the wrong goroutine) and carried across packages as PollsCancel facts
// (parStop.stop in internal/logic polls; system.Partition's
// KnowExtension and Spread, which call their stop parameter, poll; so
// the helpers between a loop and the hook are transparent).
//
// Two loop shapes are checked, and only inside functions that hold a
// cancel capability — a hook-typed parameter or local, or a receiver
// whose struct carries a hook-typed field. Code without a hook in reach
// (the reference evaluator, the parser, logic's gate CAS retry loop) has
// nothing to poll and is exempt by construction.
//
//   - Shard sweeps: a loop inside a ParFill or ParMap shard body that
//     ranges over the shard's part, or whose bounds read part or lo
//     (see analysis.FanOuts), must poll (the id&(cancelStride-1) == 0
//     gate keeps the poll cheap).
//   - Fixpoint rounds: a condition-less `for {}` loop must poll
//     somewhere in its body — directly or through a polling helper.
package cancelpoll

import (
	"go/ast"
	"go/types"

	"kpa/internal/analysis"
	"kpa/internal/analysis/callgraph"
)

// PollsCancel marks a function whose body consults a cancel hook —
// directly through a hook-typed value or transitively through a
// synchronous call to another polling function.
type PollsCancel struct{}

// AFact marks PollsCancel as a driver-transportable fact.
func (*PollsCancel) AFact() {}

// Analyzer enforces bounded-stride cancel polling in the engine's
// long loops.
type Analyzer struct{}

// New returns the cancelpoll analyzer.
func New() *Analyzer { return &Analyzer{} }

func (*Analyzer) Name() string { return "cancelpoll" }

func (*Analyzer) Doc() string {
	return "long loops in the engine packages (fan-out shard sweeps over their part, condition-less fixpoint rounds) must poll a cancel hook within a bounded stride when one is in scope; an unpolled scan keeps a cancelled query running to completion"
}

func (*Analyzer) Run(pass *analysis.Pass) error {
	if pass.PkgPath != pass.Module+"/internal/logic" && pass.PkgPath != pass.Module+"/internal/system" {
		return nil
	}
	c := &checker{
		pass:  pass,
		polls: make(map[*types.Func]bool),
	}
	g := callgraph.Build(pass)
	c.solvePolls(g)
	for _, n := range g.Order {
		if c.polls[n.Fn] {
			pass.ExportObjectFact(n.Fn, &PollsCancel{})
		}
	}
	for _, n := range g.Order {
		if !c.hasCapability(n.Decl) {
			continue
		}
		c.checkShardSweeps(n.Decl)
		c.checkFixpointLoops(n.Decl)
	}
	return nil
}

type checker struct {
	pass  *analysis.Pass
	polls map[*types.Func]bool
}

// hookType reports whether t is a cancel-hook shape: a nullary,
// non-variadic function returning exactly one bool or error.
func hookType(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Variadic() || sig.Results().Len() != 1 {
		return false
	}
	r := sig.Results().At(0).Type()
	if b, ok := r.Underlying().(*types.Basic); ok {
		return b.Kind() == types.Bool
	}
	if n, ok := r.(*types.Named); ok {
		return n.Obj().Pkg() == nil && n.Obj().Name() == "error"
	}
	return false
}

// directPoll reports whether call invokes a hook-typed value: a
// variable (captured stop function) or a struct field (Evaluator's
// cancel hook). Static calls to *types.Func targets are not dynamic
// polls; they are handled by the call-graph fixpoint.
func (c *checker) directPoll(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		v, ok := c.pass.Info.Uses[fun].(*types.Var)
		return ok && hookType(v.Type())
	case *ast.SelectorExpr:
		sel, ok := c.pass.Info.Selections[fun]
		if !ok || sel.Kind() != types.FieldVal {
			return false
		}
		v, ok := sel.Obj().(*types.Var)
		return ok && hookType(v.Type())
	}
	return false
}

// solvePolls computes the polling summary: a function polls if its body
// calls a hook value directly, or synchronously calls a polling
// function (same package via fixpoint, imported via fact).
func (c *checker) solvePolls(g *callgraph.Graph) {
	for _, n := range g.Order {
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && c.directPoll(call) {
				c.polls[n.Fn] = true
				return false
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Order {
			if c.polls[n.Fn] {
				continue
			}
			for _, e := range n.Out {
				if e.Go {
					continue // polls on another goroutine don't stop this one
				}
				if c.polls[e.Callee] || c.pass.ImportObjectFact(e.Callee, &PollsCancel{}) {
					c.polls[n.Fn] = true
					changed = true
					break
				}
			}
		}
	}
}

// pollIn reports whether n contains a poll: a dynamic hook call or a
// static call to a polling function.
func (c *checker) pollIn(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c.directPoll(call) {
			found = true
			return false
		}
		if fn, ok := callgraph.Callee(c.pass.Info, call); ok {
			if c.polls[fn] || c.pass.ImportObjectFact(fn, &PollsCancel{}) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// hasCapability reports whether the declaration has a cancel hook in
// reach: a hook-typed parameter, a hook-typed local (a stop function
// bound from stopFn), or a receiver whose struct type carries a
// hook-typed field.
func (c *checker) hasCapability(fd *ast.FuncDecl) bool {
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				if v, ok := c.pass.Info.Defs[name].(*types.Var); ok && hookType(v.Type()) {
					return true
				}
			}
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := c.pass.Info.Types[fd.Recv.List[0].Type].Type
		if t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if st, ok := t.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if hookType(st.Field(i).Type()) {
						return true
					}
				}
			}
		}
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := c.pass.Info.Defs[id].(*types.Var); ok && hookType(v.Type()) {
				found = true
			}
		}
		return true
	})
	return found
}

// checkShardSweeps requires a poll in every loop of a fan-out shard body
// that sweeps the shard: a range over part, or a for loop whose init or
// condition reads part or lo (for j := 0; j < len(part); j++, for id :=
// lo; ...). Nested literals run elsewhere and are skipped.
func (c *checker) checkShardSweeps(fd *ast.FuncDecl) {
	for _, fo := range analysis.FanOuts(c.pass, fd.Body) {
		bounds := make(map[*types.Var]bool)
		for _, v := range []*types.Var{fo.Part, fo.Lo} {
			if v != nil {
				bounds[v] = true
			}
		}
		if len(bounds) == 0 {
			continue
		}
		ast.Inspect(fo.Body.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt:
				if c.mentionsAny(n.Init, bounds) || c.mentionsAny(n.Cond, bounds) {
					body = n.Body
				}
			case *ast.RangeStmt:
				if c.mentionsAny(n.X, bounds) {
					body = n.Body
				}
			}
			if body != nil && !c.pollIn(body) {
				c.pass.Report(n.Pos(), "shard sweep over its part without a cancel poll; test the stop hook every cancelStride iterations so cancellation reaches running shards")
			}
			return true
		})
	}
}

func (c *checker) mentionsAny(n ast.Node, vars map[*types.Var]bool) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := c.pass.Info.Uses[id].(*types.Var); ok && vars[v] {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkFixpointLoops flags condition-less for-loops without a poll.
func (c *checker) checkFixpointLoops(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if loop.Cond != nil || loop.Init != nil || loop.Post != nil {
			return true
		}
		if !c.pollIn(loop.Body) {
			c.pass.Report(loop.Pos(), "condition-less fixpoint loop without a cancel poll; check the hook once per round so cancellation bounds the iteration")
		}
		return true
	})
}
