package lint

// ctxloop finds unbounded loops that can outlive their caller's
// cancellation. The Engine/sweep/store paths promise that cancelling the
// context stops work promptly; a `for {}` (or for-with-no-condition) in a
// function that HAS a ctx but whose body never consults it keeps spinning
// after the deadline — sweeps that can't be interrupted, goroutines
// leaked past Engine shutdown. Loops in ctx-free functions are out of
// scope: they are bounded by their data by construction (heap drain,
// singleflight retry) and have no cancellation signal to honor.

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// CtxLoop finds unbounded for-loops that never observe ctx.Done() or
// ctx.Err() despite a context being in scope.
var CtxLoop = &analysis.Analyzer{
	Name: "ctxloop",
	Run:  runCtxLoop,
}

func runCtxLoop(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		// Track the context.Context-typed objects in scope: function
		// parameters of enclosing funcs, plus locals assigned before the
		// loop. A stack of scopes mirrors the FuncDecl/FuncLit nesting.
		var scopes [][]types.Object
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				scopes = append(scopes, ctxParams(pass.TypesInfo, n.Type))
				ast.Inspect(n.Body, visit)
				scopes = scopes[:len(scopes)-1]
				return false
			case *ast.FuncLit:
				// Closures capture enclosing contexts, so the new scope
				// extends the current one rather than replacing it.
				inherited := append([]types.Object(nil), current(scopes)...)
				scopes = append(scopes, append(inherited, ctxParams(pass.TypesInfo, n.Type)...))
				ast.Inspect(n.Body, visit)
				scopes = scopes[:len(scopes)-1]
				return false
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil && isContext(obj.Type()) && len(scopes) > 0 {
							scopes[len(scopes)-1] = append(scopes[len(scopes)-1], obj)
						}
					}
				}
			case *ast.ForStmt:
				if n.Cond == nil && len(current(scopes)) > 0 && !usesContext(pass.TypesInfo, n, current(scopes)) {
					pass.Reportf(n.Pos(), "ctxloop: unbounded loop never observes the in-scope context; "+
						"cancellation cannot stop it — select on ctx.Done() or check ctx.Err() per iteration")
				}
			}
			return true
		}
		ast.Inspect(file, visit)
	}
	return nil, nil
}

func current(scopes [][]types.Object) []types.Object {
	if len(scopes) == 0 {
		return nil
	}
	return scopes[len(scopes)-1]
}

// ctxParams returns the context.Context-typed parameters of a signature.
func ctxParams(info *types.Info, ft *ast.FuncType) []types.Object {
	var out []types.Object
	if ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil && isContext(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// usesContext reports whether any statement in the loop (condition-free
// body plus any select cases) references one of the in-scope contexts.
func usesContext(info *types.Info, loop *ast.ForStmt, ctxs []types.Object) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		for _, c := range ctxs {
			if obj == c {
				found = true
			}
		}
		return true
	})
	return found
}
