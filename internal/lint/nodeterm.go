package lint

// nodeterm forbids nondeterminism sources. Two checks:
//
//  1. In the simulation packages (-nodeterm.pkgs), any use of wall-clock
//     time (time.Now/Since/Until), global math/rand, or environment reads
//     (os.Getenv and friends) is an error. Simulated time comes from the
//     event clock and randomness from repro/internal/rng's labelled
//     streams; anything else makes equal (scenario, seed) runs unequal,
//     which silently poisons golden figures and the result store.
//
//  2. In every package, ranging over a map is an error when the
//     iteration order can flow into an ordered output: an append to an
//     outer slice that is never sorted afterwards, a write/print/encode
//     call, a channel send, string concatenation, or float accumulation
//     (float addition is not associative, so map order changes low bits).
//     Order-insensitive uses — counting, integer sums, set building,
//     collect-then-sort — pass.

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// NoDeterm forbids wall-clock, global math/rand and env reads in
// simulation packages, and map-iteration order flowing into results
// anywhere.
var NoDeterm = &analysis.Analyzer{
	Name: "nodeterm",
	Run:  runNoDeterm,
}

// nodetermPkgs lists the packages where check 1 applies (comma-separated
// paths or "/"-aligned path suffixes).
var nodetermPkgs = "repro/internal/mac,repro/internal/event,repro/internal/backoff," +
	"repro/internal/phy,repro/internal/traffic,repro/internal/slotted"

func init() {
	NoDeterm.Flags.StringVar(&nodetermPkgs, "pkgs", nodetermPkgs,
		"comma-separated packages (or path suffixes) where nondeterminism sources are forbidden")
}

// bannedSelectors maps package path -> selector name -> explanation.
var bannedSelectors = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock time",
		"Since": "wall-clock time",
		"Until": "wall-clock time",
	},
	"os": {
		"Getenv":    "environment read",
		"LookupEnv": "environment read",
		"Environ":   "environment read",
		"ExpandEnv": "environment read",
	},
}

func runNoDeterm(pass *analysis.Pass) (any, error) {
	simPkg := pkgMatch(pass.Pkg.Path(), splitList(nodetermPkgs))
	for _, file := range pass.Files {
		if simPkg {
			checkBannedSources(pass, file)
		}
		checkMapOrder(pass, file)
	}
	return nil, nil
}

// checkBannedSources reports references to wall-clock, env, and global
// math/rand symbols.
func checkBannedSources(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		se, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := se.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		path := pn.Imported().Path()
		switch path {
		case "math/rand", "math/rand/v2":
			pass.Reportf(se.Pos(), "nodeterm: %s.%s in a simulation package; use repro/internal/rng "+
				"(seeded, labelled streams) so equal (scenario, seed) runs stay bit-identical", id.Name, se.Sel.Name)
		default:
			if why := bannedSelectors[path][se.Sel.Name]; why != "" {
				pass.Reportf(se.Pos(), "nodeterm: %s.%s is %s in a simulation package; "+
					"determinism requires all inputs to flow from (scenario, seed)", id.Name, se.Sel.Name, why)
			}
		}
		return true
	})
}

// checkMapOrder reports map-range loops whose iteration order escapes
// into ordered output.
func checkMapOrder(pass *analysis.Pass, file *ast.File) {
	// Walk with the innermost enclosing function body on a stack so the
	// "appended slice is sorted later" exemption can look at statements
	// after the loop within the same function.
	var funcBodies []*ast.BlockStmt
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				funcBodies = append(funcBodies, n.Body)
				ast.Inspect(n.Body, visit)
				funcBodies = funcBodies[:len(funcBodies)-1]
			}
			return false
		case *ast.FuncLit:
			funcBodies = append(funcBodies, n.Body)
			ast.Inspect(n.Body, visit)
			funcBodies = funcBodies[:len(funcBodies)-1]
			return false
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[n.X]
			if ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && len(funcBodies) > 0 {
					checkMapRange(pass, n, funcBodies[len(funcBodies)-1])
				}
			}
		}
		return true
	}
	ast.Inspect(file, visit)
}

// checkMapRange classifies one map-range loop body.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, fnBody *ast.BlockStmt) {
	info := pass.TypesInfo
	outer := func(id *ast.Ident) types.Object {
		obj := info.Uses[id]
		if obj == nil || obj.Pos() == token.NoPos {
			return nil
		}
		if obj.Pos() >= rs.Body.Pos() && obj.Pos() < rs.Body.End() {
			return nil // declared inside the loop; per-iteration, order-free
		}
		return obj
	}

	var appended []types.Object // outer slices appended to (maybe sorted later)
	report := func(n ast.Node, what string) {
		pass.Reportf(n.Pos(), "nodeterm: map iteration order flows into %s; "+
			"map order is randomized per run — collect keys, sort, then iterate", what)
	}

	done := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if done {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			report(rs, "a channel send")
			done = true
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN:
				if len(n.Lhs) == 1 {
					if id, ok := n.Lhs[0].(*ast.Ident); ok && outer(id) != nil {
						t := info.Types[n.Lhs[0]].Type
						if b, ok := t.Underlying().(*types.Basic); ok {
							switch {
							case b.Info()&types.IsString != 0:
								report(rs, "string concatenation")
								done = true
							case b.Info()&types.IsFloat != 0:
								report(rs, "float accumulation (float addition is order-dependent)")
								done = true
							}
						}
					}
				}
			case token.ASSIGN, token.DEFINE:
				// out = append(out, ...) with out declared outside the loop.
				for i, rhs := range n.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || i >= len(n.Lhs) {
						continue
					}
					fn, ok := call.Fun.(*ast.Ident)
					if !ok || fn.Name != "append" {
						continue
					}
					if _, isBuiltin := info.Uses[fn].(*types.Builtin); isBuiltin {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							if obj := outer(id); obj != nil {
								appended = append(appended, obj)
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			if what := orderedSinkCall(info, n); what != "" {
				report(rs, what)
				done = true
			}
		}
		return !done
	})
	if done {
		return
	}
	for _, obj := range appended {
		if !sortedAfter(info, fnBody, rs, obj) {
			report(rs, "slice "+obj.Name()+" (appended in map order, never sorted)")
			return
		}
	}
}

// orderedSinkCall reports whether the call writes ordered output: fmt
// printing, Write*/Encode methods, or anything taking an io.Writer-ish
// stream. Returns a description, or "".
func orderedSinkCall(info *types.Info, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				if pn.Imported().Path() == "fmt" {
					return "fmt." + fun.Sel.Name
				}
				return ""
			}
		}
		name := fun.Sel.Name
		if name == "Encode" || name == "Write" || name == "WriteString" ||
			name == "WriteByte" || name == "WriteRune" || name == "Printf" || name == "Print" {
			return "a " + name + " call"
		}
	}
	return ""
}

// sortedAfter reports whether obj is passed to a sort call in fnBody
// after the range statement.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= rs.End() {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		se, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := se.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		switch pn.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if aid, ok := arg.(*ast.Ident); ok && info.Uses[aid] == obj {
				found = true
			}
		}
		return true
	})
	return found
}
