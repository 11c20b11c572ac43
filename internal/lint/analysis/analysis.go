// Package analysis is a self-contained miniature of
// golang.org/x/tools/go/analysis: just enough surface — Analyzer, Pass,
// Diagnostic — for the repository's determinism lint suite
// (internal/lint) and its driver (cmd/replint).
//
// Why not the real thing? The build environment pins the module graph to
// the standard library (no network, no module cache), and the lint suite
// is a reproducibility invariant of this repo, not an optional extra — it
// cannot depend on a package that may not be fetchable. The subset is
// API-compatible where it overlaps: an analyzer written against this
// package ports to x/tools by changing one import path. Deliberately
// omitted: Facts (no cross-package state is needed — every invariant here
// is provable within one package), Requires/ResultOf (the analyzers are
// independent), and SSA.
package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check: a name, optional flags, and a Run
// function applied to one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags
	// ("-name.flag=..."), and //replint:allow directives. It must be a
	// valid Go identifier.
	Name string

	// Flags holds analyzer-specific flags. The driver registers each as
	// "-<name>.<flag>" on its own flag set; analysistest mutates them
	// directly for fixture runs.
	Flags flag.FlagSet

	// Run applies the analyzer to one package. Diagnostics go through
	// pass.Report/Reportf; the result value is unused in this miniature
	// (kept for x/tools signature compatibility).
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass is the interface between one analyzer run and the driver: a single
// type-checked package plus a Report sink.
type Pass struct {
	// Files are the package's syntax trees. The driver has already
	// excluded _test.go files: every invariant the suite checks is a
	// non-test-code property, and vet presents test variants as separate
	// compilation units that would otherwise be double-reported.
	Files []*ast.File

	// Pkg is the package's type information.
	Pkg *types.Package

	// TypesInfo holds type facts (Uses, Defs, Selections, Types, ...)
	// for Files.
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver fills in the analyzer
	// name, applies //replint:allow suppression, and orders the output.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. Category carries
// the analyzer name once the driver has routed it.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name, filled by the driver
	Message  string
}
