package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/loader"
)

// moduleLoad type-checks the whole module once per test binary; the
// module tests share the result and only read it.
var moduleLoad = sync.OnceValues(func() ([]*loader.Package, error) {
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return loader.Module(root, "./...")
})

func loadModule(t *testing.T) []*loader.Package {
	t.Helper()
	pkgs, err := moduleLoad()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestNoDeadExports keeps every exported function, method, constant and
// variable of an importable package reachable from production code: one
// that only tests use belongs in the package's _test.go files. The rule is
// the same for the root package and for internal/ ones. It is a module
// test rather than a replint analyzer because the question spans
// packages, and the analysis miniature deliberately runs one package at a
// time with no Facts. The module load covers cmd/, examples/ and bench/,
// so a use from any of them keeps an export alive.
func TestNoDeadExports(t *testing.T) {
	for _, d := range deadExports(loadModule(t)) {
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

// TestNoWriteOnlyFields is the dead-export rule one level down: every
// struct field declared in an importable package has a non-test reader.
// A field that is only written is state nothing consumes; delete it and
// the code that computes it. Like TestNoDeadExports it has no suppression.
func TestNoWriteOnlyFields(t *testing.T) {
	for _, f := range writeOnlyFields(loadModule(t)) {
		t.Errorf("%s: struct field is written, but no non-test code reads it; delete it and the code that computes it", f)
	}
}

// TestWriteOnlyFieldsFixture plants, in a library and in the app that
// imports it, each shape the rule must tell apart.
func TestWriteOnlyFieldsFixture(t *testing.T) {
	pkgs, err := loader.Fixtures(filepath.Join(analysistest.TestData(t), "src"), "deadfield/app", "deadfield")
	if err != nil {
		t.Fatal(err)
	}
	got := writeOnlyFields(pkgs)
	want := []string{"deadfield.Counter.hits", "deadfield.Literal.label", "deadfield.Peak.max"}
	if !slices.Equal(got, want) {
		t.Errorf("writeOnlyFields = %q, want %q", got, want)
	}
}

// writeOnlyFields returns, sorted as "path.Type.field", every struct field
// declared in a package some loaded package imports that no loaded
// (non-test) file reads. A read is a selector x.f that is not the target
// of an assignment or an increment, and not inside the right-hand side of
// an assignment to that same field (x.f = max(x.f, v) is an update, not a
// read); composite-literal keys are writes. A selection promoted through
// embedded fields reads each of them. Fields of encoded types are live:
// every struct with a json tag, every type passed to an encoding/json
// function or method, and every type reachable from those.
func writeOnlyFields(pkgs []*loader.Package) []string {
	imported := map[string]bool{}
	read := map[*types.Var]bool{}
	encoded := map[types.Type]bool{}
	var encode func(types.Type)
	encode = func(t types.Type) {
		if encoded[t] {
			return
		}
		encoded[t] = true
		switch t := t.(type) {
		case *types.Alias:
			encode(types.Unalias(t))
		case *types.Named:
			encode(t.Underlying())
		case *types.Pointer:
			encode(t.Elem())
		case *types.Slice:
			encode(t.Elem())
		case *types.Array:
			encode(t.Elem())
		case *types.Map:
			encode(t.Key())
			encode(t.Elem())
		case *types.Struct:
			for i := range t.NumFields() {
				read[t.Field(i).Origin()] = true
				encode(t.Field(i).Type())
			}
		}
	}
	// field returns the selector e is and the field it selects, if any.
	field := func(info *types.Info, e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		sel, _ := ast.Unparen(e).(*ast.SelectorExpr)
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return sel, s.Obj().(*types.Var).Origin()
		}
		return nil, nil
	}
	// Statements are visited before the selectors inside them, so a
	// selector is marked here before the SelectorExpr case sees it.
	notRead := map[*ast.SelectorExpr]bool{}
	for _, p := range pkgs {
		for _, imp := range p.Pkg.Imports() {
			imported[imp.Path()] = true
		}
		info := p.Info
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						sel, target := field(info, lhs)
						if target == nil {
							continue
						}
						notRead[sel] = true
						for _, rhs := range n.Rhs {
							ast.Inspect(rhs, func(m ast.Node) bool {
								if e, ok := m.(*ast.SelectorExpr); ok {
									if _, f := field(info, e); f == target {
										notRead[e] = true
									}
								}
								return true
							})
						}
					}
				case *ast.IncDecStmt:
					if sel, f := field(info, n.X); f != nil {
						notRead[sel] = true
					}
				case *ast.StructType:
					if slices.ContainsFunc(n.Fields.List, func(f *ast.Field) bool {
						return f.Tag != nil && strings.Contains(f.Tag.Value, `json:"`)
					}) {
						encode(info.TypeOf(n))
					}
				case *ast.CallExpr:
					var id *ast.Ident
					switch fun := ast.Unparen(n.Fun).(type) {
					case *ast.Ident:
						id = fun
					case *ast.SelectorExpr:
						id = fun.Sel
					}
					if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
						for _, arg := range n.Args {
							encode(info.TypeOf(arg))
						}
					}
				case *ast.SelectorExpr:
					s := info.Selections[n]
					if s == nil {
						return true
					}
					// Each embedded field on the promotion path is read.
					t := s.Recv()
					for _, i := range s.Index()[:len(s.Index())-1] {
						if ptr, ok := t.Underlying().(*types.Pointer); ok {
							t = ptr.Elem()
						}
						field := t.Underlying().(*types.Struct).Field(i)
						read[field.Origin()] = true
						t = field.Type()
					}
					if s.Kind() == types.FieldVal && !notRead[n] {
						read[s.Obj().(*types.Var).Origin()] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	for _, p := range pkgs {
		if !imported[p.Path] {
			continue
		}
		for _, f := range p.Files {
			owner := "struct"
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					owner = n.Name.Name
				case *ast.StructType:
					st := p.Info.TypeOf(n).(*types.Struct)
					for i := range st.NumFields() {
						if field := st.Field(i); field.Name() != "_" && !read[field] {
							dead = append(dead, p.Path+"."+owner+"."+field.Name())
						}
					}
				}
				return true
			})
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
