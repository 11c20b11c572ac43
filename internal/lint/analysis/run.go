package analysis

// The driver half of the miniature framework: apply a list of analyzers
// to one type-checked package, with the two behaviours every entry point
// (cmd/replint in both its modes, analysistest, the meta-test) must agree
// on — test files are out of scope, and //replint:allow directives
// suppress findings that a human has explicitly sanctioned in place.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Unit is one type-checked package as presented to RunAnalyzers. It is
// deliberately the same shape whether it was produced by the source
// loader, by vet's export-data protocol, or by a fixture load.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// AllowDirective is the comment directive that suppresses a finding:
//
//	//replint:allow seedlint — reason the exception is sound
//
// placed on the flagged line or the line directly above it. The analyzer
// name list is comma-separated; everything after the names is the
// human-readable justification (required by convention, not enforced).
const AllowDirective = "//replint:allow"

// RunAnalyzers applies every analyzer to the unit and returns the
// surviving diagnostics in deterministic (position, analyzer) order.
// Test files are removed from the unit first — the suite checks non-test
// invariants, and vet presents test variants as separate units that
// would double-report shared sources. Analyzer errors abort the run.
func RunAnalyzers(u Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	files := make([]*ast.File, 0, len(u.Files))
	for _, f := range u.Files {
		name := u.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	allow := collectAllows(u.Fset, files)

	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Files:     files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
		}
		pass.Report = func(d Diagnostic) {
			d.Category = a.Name
			pos := u.Fset.Position(d.Pos)
			if allow.allows(pos.Filename, pos.Line, a.Name) {
				return
			}
			out = append(out, d)
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := u.Fset.Position(out[i].Pos), u.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Category < out[j].Category
	})
	return out, nil
}

// allowIndex records, per file and line, which analyzers are allowed. A
// directive covers its own line and the one below it, so it works both
// as a trailing comment and as a line of its own above the finding.
type allowIndex map[string]map[int]map[string]bool

func (ai allowIndex) allows(file string, line int, analyzer string) bool {
	lines := ai[file]
	if lines == nil {
		return false
	}
	return lines[line][analyzer]
}

func collectAllows(fset *token.FileSet, files []*ast.File) allowIndex {
	ai := allowIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, AllowDirective)
				if !ok {
					continue
				}
				rest = strings.TrimSpace(rest)
				// Names run up to the first token that is not a name or
				// comma; the remainder is the justification.
				names := map[string]bool{}
				for _, field := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					if !isAnalyzerName(field) {
						break
					}
					names[field] = true
				}
				if len(names) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := ai[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					ai[pos.Filename] = lines
				}
				for _, ln := range []int{pos.Line, pos.Line + 1} {
					if lines[ln] == nil {
						lines[ln] = map[string]bool{}
					}
					for n := range names {
						lines[ln][n] = true
					}
				}
			}
		}
	}
	return ai
}

func isAnalyzerName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}
