// Package shardsafe implements the kpavet analyzer for the engine's
// fan-outs: writes inside the bodies of internal/system's fan-out
// primitives, and goroutines started anywhere else in the engine.
//
// ParFill and ParMap hand each shard body the only memory it may write:
// part, its own window of the destination with the capacity cut at its
// end. Index.Select and PartitionBy call a per-point predicate from
// several goroutines and store its answers themselves. Disjointness
// therefore holds by construction, and one rule is left to check: a body
// or predicate writes no variable declared outside its literal, and
// nothing through a local bound to one.
//
// A write is an assignment (= or op=), ++ or --, a range clause that
// assigns, the first argument of append, copy, clear or delete, and a
// call of a DenseSet method that writes its receiver. Those methods are
// unexported, so only internal/system's own bodies can call them; they
// are mined from those bodies and marked with WritesReceiver facts.
// Rebinding a local declared inside the literal writes no shared
// memory. Writing through a local does when some definition of the local
// inside the literal binds it to a captured variable: x := shared,
// x := shared[i], x := &shared, x := shared[a:b], the values of a range
// over shared, and locals bound to such a local. Call results bound
// inside the literal are the shard's own, the one leniency.
//
// Inside internal/logic and internal/system, a go statement outside
// system.ParFill (analysis.FanOutRunner), the fan-out every other
// primitive runs on, starts workers that logic.Engine's budget never
// counted, and is flagged too.
package shardsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"kpa/internal/analysis"
)

// WritesReceiver marks a DenseSet method that writes through its
// receiver.
type WritesReceiver struct{}

// AFact marks WritesReceiver as a driver-transportable fact.
func (*WritesReceiver) AFact() {}

// Analyzer enforces the captured-write rule inside fan-out bodies.
type Analyzer struct{}

// New returns the shardsafe analyzer.
func New() *Analyzer { return &Analyzer{} }

func (*Analyzer) Name() string { return "shardsafe" }

func (*Analyzer) Doc() string {
	return "a body or predicate handed to " + analysis.FanOutNames + " writes no variable declared outside its literal, and nothing through a local bound to one; a shard writes only the part the fan-out hands it, or returns a value through ParMap; engine goroutines start only in system.ParFill"
}

func (*Analyzer) Run(pass *analysis.Pass) error {
	c := &checker{pass: pass, writers: make(map[*types.Func]bool)}
	system := pass.PkgPath == pass.Module+"/internal/system"
	if system {
		c.findWriters()
	}
	engine := system || pass.PkgPath == pass.Module+"/internal/logic"
	for _, f := range pass.Files {
		for _, fo := range analysis.FanOuts(pass, f) {
			c.checkBody(fo.Body)
		}
		if engine {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					return !(system && n.Recv == nil && n.Name.Name == analysis.FanOutRunner)
				case *ast.GoStmt:
					pass.Report(n.Pos(), "hand-rolled goroutine fan-out inside the engine bypasses logic.Engine's worker budget; use "+analysis.FanOutNames)
				}
				return true
			})
		}
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	writers map[*types.Func]bool // internal/system's WritesReceiver methods
}

// findWriters exports WritesReceiver for every DenseSet method whose body
// writes through its receiver.
func (c *checker) findWriters() {
	for _, f := range c.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List[0].Names) == 0 {
				continue
			}
			fn, _ := c.pass.Info.Defs[fd.Name].(*types.Func)
			recv, _ := c.pass.Info.Defs[fd.Recv.List[0].Names[0]].(*types.Var)
			if fn == nil || recv == nil || !isDenseSet(recv.Type()) {
				continue
			}
			c.eachWrite(fd.Body, func(target ast.Expr, through bool) {
				if through && c.root(target) == recv && !c.writers[fn] {
					c.writers[fn] = true
					c.pass.ExportObjectFact(fn, &WritesReceiver{})
				}
			})
		}
	}
}

func isDenseSet(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "DenseSet"
}

// checkBody reports every write in lit to a captured variable, or through
// a captured variable or a local bound to one.
func (c *checker) checkBody(lit *ast.FuncLit) {
	inside := func(v *types.Var) bool { return lit.Pos() <= v.Pos() && v.Pos() < lit.End() }
	bound := c.boundLocals(lit, inside)
	c.eachWrite(lit.Body, func(target ast.Expr, through bool) {
		v := c.root(target)
		switch {
		case v == nil:
		case !inside(v) && through:
			c.pass.Report(target.Pos(), "write through captured "+v.Name()+" inside a fan-out body races with the other shards; write only the part the fan-out hands the shard, or return a value through ParMap")
		case !inside(v):
			c.pass.Report(target.Pos(), "write to captured "+v.Name()+" inside a fan-out body races with the other shards; keep the value in a local, or return it through ParMap")
		case through && bound[v]:
			c.pass.Report(target.Pos(), "write through "+v.Name()+", which is bound to captured state, inside a fan-out body races with the other shards; write only the part the fan-out hands the shard")
		}
	})
}

// boundLocals returns the locals of lit that some definition inside lit
// binds to a captured variable or to another such local.
func (c *checker) boundLocals(lit *ast.FuncLit, inside func(*types.Var) bool) map[*types.Var]bool {
	type def struct {
		v   *types.Var
		rhs ast.Expr
	}
	var defs []def
	add := func(lhs, rhs ast.Expr) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if v := c.varOf(id); v != nil && inside(v) {
				defs = append(defs, def{v, rhs})
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if len(n.Rhs) == len(n.Lhs) {
					add(lhs, n.Rhs[i])
				} else {
					add(lhs, n.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if len(n.Values) == len(n.Names) {
					add(id, n.Values[i])
				} else if len(n.Values) == 1 {
					add(id, n.Values[0])
				}
			}
		case *ast.RangeStmt:
			for _, x := range []ast.Expr{n.Key, n.Value} {
				if x != nil {
					add(x, n.X)
				}
			}
		}
		return true
	})
	bound := make(map[*types.Var]bool)
	for changed := true; changed; {
		changed = false
		for _, d := range defs {
			if r := c.root(d.rhs); !bound[d.v] && r != nil && (!inside(r) || bound[r]) {
				bound[d.v] = true
				changed = true
			}
		}
	}
	return bound
}

// eachWrite calls visit for every write target in body; through is false
// when the write rebinds the target variable itself.
func (c *checker) eachWrite(body ast.Node, visit func(target ast.Expr, through bool)) {
	target := func(e ast.Expr) {
		_, plain := ast.Unparen(e).(*ast.Ident)
		visit(e, !plain)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if n.Tok != token.DEFINE {
					target(lhs)
				}
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, x := range []ast.Expr{n.Key, n.Value} {
					if x != nil {
						target(x)
					}
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if _, ok := c.pass.Info.Uses[fun].(*types.Builtin); ok && len(n.Args) > 0 {
					switch fun.Name {
					case "append", "copy", "clear", "delete":
						visit(n.Args[0], true)
					}
				}
			case *ast.SelectorExpr:
				if fn, ok := c.pass.Info.Uses[fun.Sel].(*types.Func); ok && c.writers[fn] {
					visit(fun.X, true)
				}
			}
		}
		return true
	})
}

// root returns the variable whose memory a write to e, or a binding of e,
// reaches: the base of its selectors, indexes, slices, dereferences,
// address-of, type assertions, conversions and append calls. It returns
// nil for other calls, literals and constants.
func (c *checker) root(e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return c.varOf(x)
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, pkg := c.pass.Info.Uses[id].(*types.PkgName); pkg {
					return c.varOf(x.Sel) // a package-level variable
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.CallExpr:
			fun, _ := ast.Unparen(x.Fun).(*ast.Ident)
			_, builtin := c.pass.Info.Uses[fun].(*types.Builtin)
			conversion := c.pass.Info.Types[x.Fun].IsType()
			if len(x.Args) == 0 || !(conversion || builtin && fun.Name == "append") {
				return nil
			}
			e = x.Args[0]
		default:
			return nil
		}
	}
}

func (c *checker) varOf(id *ast.Ident) *types.Var {
	if v, ok := c.pass.Info.Uses[id].(*types.Var); ok {
		return v
	}
	v, _ := c.pass.Info.Defs[id].(*types.Var)
	return v
}
