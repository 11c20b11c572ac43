package lint

// seedlint flags raw arithmetic on seed values outside internal/rng.
// Seeds are cache keys and stream identities: the store addresses records
// by (fingerprint, seed), and the harness promises statistically
// independent streams per (experiment, n, trial). Ad-hoc arithmetic
// (seed+trial, seed*31^n) produces correlated or colliding streams that
// no test will catch — two different cells can silently share an RNG
// sequence. All derivation goes through rng.DeriveSeed / Source.ChildSeed
// (label-hashed, collision-structured), with no exception in the module.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// SeedLint flags raw arithmetic on seed values; streams are derived via
// rng.DeriveSeed/ChildSeed.
var SeedLint = &analysis.Analyzer{
	Name: "seedlint",
	Run:  runSeedLint,
}

// seedlintExempt lists packages where seed arithmetic is the point.
var seedlintExempt = "repro/internal/rng"

func init() {
	SeedLint.Flags.StringVar(&seedlintExempt, "exempt", seedlintExempt,
		"comma-separated packages (or path suffixes) allowed to do seed arithmetic")
}

// arithmeticOps are the binary/compound operators that constitute raw
// derivation. Comparisons are fine — they don't mint new seed values.
var arithmeticOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.AND: true, token.OR: true, token.XOR: true,
	token.SHL: true, token.SHR: true, token.AND_NOT: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true, token.REM_ASSIGN: true, token.AND_ASSIGN: true,
	token.OR_ASSIGN: true, token.XOR_ASSIGN: true, token.SHL_ASSIGN: true,
	token.SHR_ASSIGN: true, token.AND_NOT_ASSIGN: true,
}

func runSeedLint(pass *analysis.Pass) (any, error) {
	if pkgMatch(pass.Pkg.Path(), splitList(seedlintExempt)) {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if arithmeticOps[n.Op] {
					if name := seedOperand(pass.TypesInfo, n.X, n.Y); name != "" {
						pass.Reportf(n.Pos(), "seedlint: raw arithmetic on seed value %q makes correlated "+
							"or colliding RNG streams; derive with rng.DeriveSeed(seed, label) or Source.ChildSeed", name)
					}
				}
			case *ast.AssignStmt:
				if arithmeticOps[n.Tok] {
					ops := append(append([]ast.Expr{}, n.Lhs...), n.Rhs...)
					if name := seedOperand(pass.TypesInfo, ops...); name != "" {
						pass.Reportf(n.Pos(), "seedlint: raw arithmetic on seed value %q makes correlated "+
							"or colliding RNG streams; derive with rng.DeriveSeed(seed, label) or Source.ChildSeed", name)
					}
				}
			case *ast.IncDecStmt:
				if name := seedOperand(pass.TypesInfo, n.X); name != "" {
					pass.Reportf(n.Pos(), "seedlint: incrementing seed value %q is raw derivation; "+
						"use rng.DeriveSeed(seed, label) so streams stay independent", name)
				}
			}
			return true
		})
	}
	return nil, nil
}

// seedOperand returns the name of the first operand that is a numeric
// seed-named value, or "".
func seedOperand(info *types.Info, exprs ...ast.Expr) string {
	for _, e := range exprs {
		if name := seedName(e); name != "" && isNumeric(info, e) {
			return name
		}
	}
	return ""
}

// seedName extracts a "seed"-bearing identifier from an operand:
// identifiers, field selectors, seed-returning calls, and elements of
// seed-named slices all count.
func seedName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return seedName(e.X)
	case *ast.Ident:
		if hasSeed(e.Name) {
			return e.Name
		}
	case *ast.SelectorExpr:
		if hasSeed(e.Sel.Name) {
			return e.Sel.Name
		}
	case *ast.IndexExpr:
		return seedName(e.X)
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			if hasSeed(fun.Name) {
				return fun.Name + "(...)"
			}
		case *ast.SelectorExpr:
			if hasSeed(fun.Sel.Name) {
				return fun.Sel.Name + "(...)"
			}
		}
	}
	return ""
}

func hasSeed(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

func isNumeric(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}
