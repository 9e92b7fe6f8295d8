// Package maprange implements the kpavet analyzer for deterministic
// output: map iteration order must not reach anything order-sensitive.
//
// Go randomizes map iteration order on purpose, and this reproduction
// leans on deterministic output everywhere — canonical hashes dedupe
// uploaded systems, golden files pin encoder bytes, and kpavet's own
// diagnostics are sorted. A `for k := range m` loop that appends to a
// slice, concatenates a string, writes a buffer or stream, or feeds an
// encoder therefore produces output that differs run to run.
//
// The analyzer flags order-sensitive sinks lexically inside a
// map-ranging loop body: append, string += / s = s + x, Write\* methods
// on strings.Builder or bytes.Buffer, fmt printing, calls named Report
// or Encode, and method calls on a *math/rand.Rand (each draw advances a
// seeded generator, so draws handed out in map order give one seed a
// different outcome in each process). Order-insensitive uses stay clean
// — storing into another map, adding to a set, summing counters, or
// building a string or slice in a variable declared inside the loop body
// (it restarts every iteration, so no cross-iteration order survives). An append is
// also exonerated when the same function later passes the slice to a
// sort.* or slices.Sort* call: collect-then-sort is the idiomatic
// deterministic pattern, alongside iterating a sorted key slice
// instead of the map itself.
package maprange

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"kpa/internal/analysis"
)

// Analyzer flags map iteration feeding order-sensitive sinks.
type Analyzer struct{}

// New returns the maprange analyzer.
func New() *Analyzer { return &Analyzer{} }

func (*Analyzer) Name() string { return "maprange" }

func (*Analyzer) Doc() string {
	return "ranging over a map must not feed order-sensitive output (append without a later sort, string building, buffer/stream writes, Report/Encode calls, seeded *rand.Rand draws); iterate sorted keys or sort the result"
}

func (*Analyzer) Run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd.Body)
			}
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// sink is one order-sensitive use found inside a map-ranging body.
type sink struct {
	pos  token.Pos
	desc string
	// target is the accumulator variable (appended-to slice or built
	// string), when it is a plain identifier: a later sort call or a
	// declaration inside the loop body exonerates the sink through it.
	target types.Object
}

func (c *checker) checkFunc(body *ast.BlockStmt) {
	seen := make(map[token.Pos]bool)
	var sinks []sink
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !c.isMapType(rs.X) {
			return true
		}
		for _, s := range c.scanBody(rs.Body) {
			// An accumulator declared inside the body restarts every
			// iteration, so nothing ordered survives across iterations.
			if s.target != nil && s.target.Pos() >= rs.Body.Pos() && s.target.Pos() <= rs.Body.End() {
				continue
			}
			if !seen[s.pos] {
				seen[s.pos] = true
				sinks = append(sinks, s)
			}
		}
		return true
	})
	if len(sinks) == 0 {
		return
	}
	sorted := c.sortedTargets(body)
	for _, s := range sinks {
		if s.target != nil && sorted[s.target] {
			continue
		}
		c.pass.Report(s.pos, fmt.Sprintf(
			"map iteration order reaches %s; iterate a sorted key slice or sort the collected result", s.desc))
	}
}

func (c *checker) isMapType(e ast.Expr) bool {
	tv, ok := c.pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// scanBody collects the order-sensitive sinks lexically inside a
// map-ranging loop body.
func (c *checker) scanBody(body *ast.BlockStmt) []sink {
	var out []sink
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			out = append(out, c.assignSinks(n)...)
		case *ast.CallExpr:
			if s, ok := c.callSink(n); ok {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

func (c *checker) assignSinks(n *ast.AssignStmt) []sink {
	var out []sink
	// s += x on a string accumulates in iteration order.
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && c.isString(n.Lhs[0]) {
		out = append(out, sink{pos: n.Pos(), desc: "a string built by +=", target: c.identTarget(n.Lhs[0])})
		return out
	}
	for i, r := range n.Rhs {
		if i >= len(n.Lhs) {
			break
		}
		// s = s + x (string concatenation).
		if b, ok := ast.Unparen(r).(*ast.BinaryExpr); ok && b.Op == token.ADD && c.isString(n.Lhs[i]) {
			out = append(out, sink{pos: n.Pos(), desc: "a string built by concatenation", target: c.identTarget(n.Lhs[i])})
			continue
		}
		// xs = append(xs, ...): order-sensitive unless sorted later.
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				out = append(out, sink{pos: n.Pos(), desc: "a slice built by append", target: c.identTarget(n.Lhs[i])})
			}
		}
	}
	return out
}

func (c *checker) callSink(call *ast.CallExpr) (sink, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		// Plain calls: Report(...) by name.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "Report" {
			return sink{pos: call.Pos(), desc: "a Report call"}, true
		}
		return sink{}, false
	}
	name := sel.Sel.Name
	// fmt.Fprint*/Print* stream in iteration order.
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if pkg, ok := c.pass.Info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "fmt" &&
			(strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Sprint")) {
			return sink{pos: call.Pos(), desc: "fmt output"}, true
		}
	}
	// Builder/buffer writes.
	if strings.HasPrefix(name, "Write") && c.isWriteBuffer(sel.X) {
		return sink{pos: call.Pos(), desc: "a buffer write"}, true
	}
	// Draws from a seeded generator: their order is the map's.
	if c.isNamed(sel.X, "math/rand", "Rand") {
		return sink{pos: call.Pos(), desc: "a draw from a seeded *rand.Rand"}, true
	}
	// Encoders and reporters by conventional name.
	if name == "Encode" || name == "Report" {
		return sink{pos: call.Pos(), desc: "an " + name + " call"}, true
	}
	return sink{}, false
}

func (c *checker) isWriteBuffer(e ast.Expr) bool {
	return c.isNamed(e, "strings", "Builder") || c.isNamed(e, "bytes", "Buffer")
}

// isNamed reports whether e's type is the named type path.name or a
// pointer to it.
func (c *checker) isNamed(e ast.Expr, path, name string) bool {
	tv, ok := c.pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == path && n.Obj().Name() == name
}

func (c *checker) isString(e ast.Expr) bool {
	tv, ok := c.pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (c *checker) objOf(id *ast.Ident) types.Object {
	if obj := c.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return c.pass.Info.Defs[id]
}

// identTarget resolves a plain-identifier lvalue to its variable, or nil
// for indexed/field targets.
func (c *checker) identTarget(lhs ast.Expr) types.Object {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return c.objOf(id)
	}
	return nil
}

// sortedTargets returns the variables the function passes to a sorting
// call (package sort, or a slices function whose name mentions Sort):
// appends into them are collect-then-sort, which is deterministic.
func (c *checker) sortedTargets(body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := c.pass.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		path := pkg.Imported().Path()
		if path != "sort" && !(path == "slices" && strings.Contains(sel.Sel.Name, "Sort")) {
			return true
		}
		for _, a := range call.Args {
			ast.Inspect(a, func(m ast.Node) bool {
				if aid, ok := m.(*ast.Ident); ok {
					if obj := c.pass.Info.Uses[aid]; obj != nil {
						out[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}
