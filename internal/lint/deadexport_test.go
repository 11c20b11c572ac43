package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/loader"
)

// TestNoDeadExports keeps every exported function, method, constant and
// variable of an importable package reachable from production code: one
// that only tests use belongs in the package's _test.go files. The rule is
// the same for the root package and for internal/ ones. It is a module
// test rather than a replint analyzer because the question spans
// packages, and the analysis miniature deliberately runs one package at a
// time with no Facts. The module load covers cmd/, examples/ and bench/,
// so a use from any of them keeps an export alive.
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
		t.Errorf("%s: exported, but no non-test code uses it; delete it or move it into a _test.go file", d)
	}
}

// TestDeadExportsFixture plants dead and live exports in an internal and
// in a non-internal fixture package, next to the exempt shapes: a method
// that implements an interface, a test-support package nothing imports,
// and the importing app package itself.
func TestDeadExportsFixture(t *testing.T) {
	pkgs, err := loader.Fixtures(filepath.Join(analysistest.TestData(t), "src"),
		"deadexport/app", "deadexport/internal/lib", "deadexport/internal/libtest", "deadexport/pub")
	if err != nil {
		t.Fatal(err)
	}
	got := deadExports(pkgs)
	want := []string{"deadexport/internal/lib.Dead", "deadexport/pub.Spare", "deadexport/pub.Unused", "deadexport/pub.Verbose"}
	if !slices.Equal(got, want) {
		t.Errorf("deadExports = %q, want %q", got, want)
	}
}

// deadExports returns, sorted, every exported func, method, or
// package-level const or var declared in a package some loaded package
// imports that no loaded (non-test) file references outside the
// declaration itself. Exempt are methods whose name and signature match a
// method of an interface declared in a loaded package or anything it
// imports (fmt.Stringer, json.Marshaler, the module's own Policy and
// Listener...), and packages no loaded package imports: commands, and
// test support.
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
	uses := map[types.Object][]token.Pos{}
	for _, p := range pkgs {
		visit(p.Pkg)
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			uses[obj] = append(uses[obj], id.Pos())
		}
	}

	var dead []string
	for _, p := range pkgs {
		if !imported[p.Path] {
			continue
		}
		// check reports obj, declared over [decl.Pos(), decl.End()), if no
		// use lies outside that range.
		check := func(obj types.Object, decl ast.Node) {
			if !slices.ContainsFunc(uses[obj], func(pos token.Pos) bool { return pos < decl.Pos() || pos >= decl.End() }) {
				dead = append(dead, qualifiedName(p.Path, obj))
			}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := p.Info.Defs[d.Name].(*types.Func)
					if d.Recv != nil && slices.ContainsFunc(ifaceMethods, func(m *types.Func) bool {
						return m.Name() == fn.Name() && types.Identical(m.Type(), fn.Type())
					}) {
						continue
					}
					check(fn, d)
				case *ast.GenDecl:
					if d.Tok != token.CONST && d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, name := range spec.(*ast.ValueSpec).Names {
							if name.IsExported() {
								check(p.Info.Defs[name], spec)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(dead)
	return dead
}

// qualifiedName is "path.Name" or, for a method, "path.Type.Method".
func qualifiedName(path string, obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return path + "." + obj.Name()
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return path + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}
