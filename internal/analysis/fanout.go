package analysis

import (
	"go/ast"
	"go/types"
)

// The fan-out primitives of internal/system run a function literal on
// several goroutines at once. ParFill and ParMap hand each shard body
// func(shard int, part []T, lo int) the part of a slice it may write;
// Index.Select and PartitionBy call a per-point predicate func(id int)
// and write the result themselves. shardsafe and cancelpoll both find
// them here.

// fanOutBody maps each primitive to the position of its literal argument.
var fanOutBody = map[string]int{"ParFill": 2, "ParMap": 2, "Select": 2, "PartitionBy": 2}

// FanOutNames names the primitives in diagnostics.
const FanOutNames = "system.ParFill, system.ParMap, Index.Select or system.PartitionBy"

// FanOutRunner is the internal/system function that holds the engine's
// one go statement; ParMap, Select and PartitionBy run on it.
const FanOutRunner = "ParFill"

// FanOut is one call to a fan-out primitive whose body is a function
// literal.
type FanOut struct {
	Body *ast.FuncLit
	// Part and Lo are a shard body's part and lo parameters; nil for a
	// per-point predicate or a blank name.
	Part, Lo *types.Var
}

// FanOuts returns the fan-out calls inside n, in source order.
func FanOuts(pass *Pass, n ast.Node) []FanOut {
	var out []FanOut
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		if ix, ok := fun.(*ast.IndexExpr); ok { // ParFill[T](...)
			fun = ix.X
		}
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			fun = sel.Sel
		}
		id, ok := fun.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pass.Info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pass.Module+"/internal/system" {
			return true
		}
		arg, ok := fanOutBody[fn.Name()]
		if !ok || arg >= len(call.Args) {
			return true
		}
		lit, ok := ast.Unparen(call.Args[arg]).(*ast.FuncLit)
		if !ok {
			return true
		}
		fo := FanOut{Body: lit}
		var params []*types.Var
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				v, _ := pass.Info.Defs[name].(*types.Var)
				params = append(params, v) // nil for _
			}
		}
		if len(params) == 3 {
			fo.Part, fo.Lo = params[1], params[2]
		}
		out = append(out, fo)
		return true
	})
	return out
}
