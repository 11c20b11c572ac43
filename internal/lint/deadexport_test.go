package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/loader"
)

// TestNoDeadExports keeps every exported function and method of an
// internal package reachable from production code: one that only tests
// call belongs in the package's _test.go files. It is a module test
// rather than a replint analyzer because the question spans packages,
// and the analysis miniature deliberately runs one package at a time
// with no Facts. The module load covers cmd/, examples/ and bench/, so a
// use from any of them keeps an export alive.
func TestNoDeadExports(t *testing.T) {
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Module(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deadExports(pkgs) {
		t.Errorf("%s: exported, but no non-test code calls it; delete it or move it into a _test.go file", d)
	}
}

// TestDeadExportsFixture plants one dead and one live export in an
// internal fixture package, next to the exempt shapes: a method that
// implements an interface, and a test-support package nothing imports.
func TestDeadExportsFixture(t *testing.T) {
	pkgs, err := loader.Fixtures(filepath.Join(analysistest.TestData(t), "src"),
		"deadexport/app", "deadexport/internal/lib", "deadexport/internal/libtest")
	if err != nil {
		t.Fatal(err)
	}
	got := deadExports(pkgs)
	want := []string{"deadexport/internal/lib.Dead"}
	if !slices.Equal(got, want) {
		t.Errorf("deadExports = %q, want %q", got, want)
	}
}

// deadExports returns, sorted, every exported func or method declared in
// a package under an internal/ directory that no loaded (non-test) file
// references outside the declaration itself. Exempt are methods whose
// name and signature match a method of an interface declared in a loaded
// package or anything it imports (fmt.Stringer, json.Marshaler, the
// module's own Policy and Listener...), and packages no loaded package
// imports, which are test support.
func deadExports(pkgs []*loader.Package) []string {
	imported := map[string]bool{}
	ifaceMethods := []*types.Func{types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := range it.NumMethods() {
						ifaceMethods = append(ifaceMethods, it.Method(i))
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			imported[imp.Path()] = true
			visit(imp)
		}
	}
	uses := map[*types.Func][]token.Pos{}
	for _, p := range pkgs {
		visit(p.Pkg)
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				uses[fn.Origin()] = append(uses[fn.Origin()], id.Pos())
			}
		}
	}

	var dead []string
	for _, p := range pkgs {
		if !strings.Contains("/"+p.Path+"/", "/internal/") || !imported[p.Path] {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if fd.Recv != nil && slices.ContainsFunc(ifaceMethods, func(m *types.Func) bool {
					return m.Name() == fn.Name() && types.Identical(m.Type(), fn.Type())
				}) {
					continue
				}
				if !slices.ContainsFunc(uses[fn], func(pos token.Pos) bool { return pos < fd.Pos() || pos >= fd.End() }) {
					dead = append(dead, qualifiedName(p.Path, fn))
				}
			}
		}
	}
	slices.Sort(dead)
	return dead
}

// qualifiedName is "path.Func" or "path.Type.Method".
func qualifiedName(path string, fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return path + "." + fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return path + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}
