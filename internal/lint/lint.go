// Package lint is the determinism lint suite: six analyzers that turn
// the repository's reproducibility invariants — prose in DESIGN.md,
// runtime guards in tests — into machine-checked properties of every
// build. cmd/replint drives them, both standalone and as a `go vet
// -vettool`; DESIGN.md ("Invariants, machine-checked") maps each prose
// invariant to its analyzer.
//
// A finding that is genuinely sanctioned — a documented exception, not an
// oversight — is suppressed in place with a justified directive:
//
//	//replint:allow sinkerr — best-effort cleanup; the real error was already returned
//
// on the flagged line or the line above it.
package lint

import (
	"strings"

	"repro/internal/lint/analysis"
)

// All returns the suite's analyzers in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{NoDeterm, SeedLint, FPGuard, CtxLoop, SinkErr, ObsGuard}
}

// splitList parses a comma-separated flag value into trimmed non-empty
// elements.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// pkgMatch reports whether a package path is named by the list: an exact
// match, or a "/"-aligned suffix (so "internal/mac" covers
// "repro/internal/mac" without caring about the module name).
func pkgMatch(path string, list []string) bool {
	for _, item := range list {
		if path == item || strings.HasSuffix(path, "/"+item) {
			return true
		}
	}
	return false
}

// lastSegment returns the final element of a slash-separated path.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
