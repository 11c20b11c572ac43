package lint

// obsguard keeps the observability layer out of the simulation core. The
// internal/obs metrics primitives (Counter, Gauge, Histogram, Registry)
// are deterministic and may be used anywhere, but the span half of the
// package carries wall-clock time (Span.Start, StartSpan, the JSONL
// sinks) — inside the simulation packages that is the nodeterm violation
// wearing a different import. obsguard bans those symbols in the packages
// -obsguard.pkgs names, so spans stay at the engine/harness boundary and
// the kernel exports its work profile as plain counters on result structs
// instead.

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// ObsGuard forbids internal/obs wall-clock and span APIs inside
// simulation packages.
var ObsGuard = &analysis.Analyzer{
	Name: "obsguard",
	Run:  runObsGuard,
}

var (
	// obsguardPkgs lists the packages where the ban applies
	// (comma-separated paths or "/"-aligned path suffixes) — the same six
	// nodeterm protects.
	obsguardPkgs = "repro/internal/mac,repro/internal/event,repro/internal/backoff," +
		"repro/internal/phy,repro/internal/traffic,repro/internal/slotted"
	// obsguardObs is the observability package whose span symbols are
	// banned there.
	obsguardObs = "repro/internal/obs"
)

func init() {
	ObsGuard.Flags.StringVar(&obsguardPkgs, "pkgs", obsguardPkgs,
		"comma-separated packages (or path suffixes) where obs span APIs are forbidden")
	ObsGuard.Flags.StringVar(&obsguardObs, "obs", obsguardObs,
		"package path (or path suffix) of the observability package")
}

// obsBanned names the wall-clock half of internal/obs. The metrics half
// (Counter, Gauge, Histogram, Registry, the bucket helpers) is
// deterministic and deliberately absent.
var obsBanned = map[string]bool{
	"Span":      true,
	"SpanSink":  true,
	"JSONLSink": true,
	"NewJSONL":  true,
	"StartSpan": true,
}

func runObsGuard(pass *analysis.Pass) (any, error) {
	if !pkgMatch(pass.Pkg.Path(), splitList(obsguardPkgs)) {
		return nil, nil
	}
	for _, file := range pass.Files {
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
			if !pkgMatch(pn.Imported().Path(), []string{obsguardObs}) {
				return true
			}
			if obsBanned[se.Sel.Name] {
				pass.Reportf(se.Pos(), "obsguard: %s.%s carries wall-clock time in a simulation package; "+
					"emit spans at the engine/harness boundary and export deterministic counters "+
					"through result structs instead", id.Name, se.Sel.Name)
			}
			return true
		})
	}
	return nil, nil
}
