package lint

// fpguard is the static companion to the runtime field-count guards in
// scenario_test.go: it proves that every field of the fingerprinted
// configuration structs is actually READ somewhere in the fingerprint
// encoder's call closure. The runtime guards force an encoder review when
// a struct GROWS; fpguard additionally fails when a consultation is
// DELETED — the "stray refactor drops the cwmax line" case — and it fails
// at vet time, not at stale-cache time. Writes don't count as
// consultation (materializing a config field and then not encoding it is
// exactly the bug), so only genuine reads satisfy the guard.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// FPGuard proves every field of the fingerprinted structs is read in the
// fingerprint encoder's call closure.
var FPGuard = &analysis.Analyzer{
	Name: "fpguard",
	Run:  runFPGuard,
}

var (
	// fpguardEncoders names the encoder entry points; the checked
	// closure is these plus every same-package function they call.
	fpguardEncoders = "Fingerprint,writeMACConfig"
	// fpguardStructs names the structs whose fields must all be read:
	// "Name" for a type in the package under analysis, "pkg.Name" for a
	// type in an import whose path ends in "pkg".
	fpguardStructs = "Scenario,mac.Config,phy.Config"
)

func init() {
	FPGuard.Flags.StringVar(&fpguardEncoders, "encoders", fpguardEncoders,
		"comma-separated function/method names forming the fingerprint encoder set")
	FPGuard.Flags.StringVar(&fpguardStructs, "structs", fpguardStructs,
		"comma-separated structs (Name or pkg.Name) every field of which must be read by the encoders")
}

func runFPGuard(pass *analysis.Pass) (any, error) {
	encoderNames := splitList(fpguardEncoders)

	// Index this package's function declarations.
	declOf := map[*types.Func]*ast.FuncDecl{}
	var roots []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			declOf[fn] = fd
			for _, name := range encoderNames {
				if fd.Name.Name == name {
					roots = append(roots, fd)
				}
			}
		}
	}
	if len(roots) == 0 {
		return nil, nil // this package defines no fingerprint encoder
	}

	// Transitive closure over same-package static calls: the encoder may
	// consult fields through helpers (Scenario.workload reads .Workload
	// for Fingerprint, say).
	include := map[*ast.FuncDecl]bool{}
	queue := append([]*ast.FuncDecl(nil), roots...)
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if include[fd] {
			continue
		}
		include[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var obj types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				obj = pass.TypesInfo.Uses[fun]
			case *ast.SelectorExpr:
				obj = pass.TypesInfo.Uses[fun.Sel]
			}
			if fn, ok := obj.(*types.Func); ok {
				if callee, ok := declOf[fn]; ok && !include[callee] {
					queue = append(queue, callee)
				}
			}
			return true
		})
	}

	// Collect field reads per named struct type across the closure.
	reads := map[*types.TypeName]map[string]bool{}
	for fd := range include {
		writes := assignmentTargets(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			se, ok := n.(*ast.SelectorExpr)
			if !ok || writes[se] {
				return true
			}
			sel := pass.TypesInfo.Selections[se]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			if tn := namedOf(sel.Recv()); tn != nil {
				if reads[tn] == nil {
					reads[tn] = map[string]bool{}
				}
				reads[tn][se.Sel.Name] = true
			}
			return true
		})
	}

	// Check each configured struct.
	for _, spec := range splitList(fpguardStructs) {
		tn, st := resolveStruct(pass, spec)
		if tn == nil {
			continue // not in scope of this package
		}
		display := tn.Name()
		if tn.Pkg() != nil && tn.Pkg() != pass.Pkg {
			display = tn.Pkg().Name() + "." + display
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !reads[tn][f.Name()] {
				pass.Reportf(roots[0].Name.Pos(),
					"fpguard: %s.%s is never read by fingerprint encoder(s) %s; a result-affecting "+
						"field outside the encoding means two different scenarios share a content address "+
						"(stale cache replay) — encode it (and bump storeSchemaVersion) or move it out of %s",
					display, f.Name(), strings.Join(fpEncoderNamesFound(roots), "/"), display)
			}
		}
	}
	return nil, nil
}

// fpEncoderNamesFound lists the distinct root encoder names for messages.
func fpEncoderNamesFound(roots []*ast.FuncDecl) []string {
	seen := map[string]bool{}
	var out []string
	for _, fd := range roots {
		if !seen[fd.Name.Name] {
			seen[fd.Name.Name] = true
			out = append(out, fd.Name.Name)
		}
	}
	return out
}

// assignmentTargets returns the selector expressions that are plain
// assignment targets (Tok = or :=): pure writes, not consultations.
// Compound assignments (+=) read the old value and therefore count as
// reads, so they are not collected here.
func assignmentTargets(body *ast.BlockStmt) map[*ast.SelectorExpr]bool {
	out := map[*ast.SelectorExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
			return true
		}
		for _, lhs := range as.Lhs {
			if se, ok := lhs.(*ast.SelectorExpr); ok {
				out[se] = true
			}
		}
		return true
	})
	return out
}

// namedOf unwraps pointers and aliases to the receiver's type name.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// resolveStruct resolves a "Name" or "pkg.Name" spec against the package
// under analysis and its direct imports.
func resolveStruct(pass *analysis.Pass, spec string) (*types.TypeName, *types.Struct) {
	qual, name, qualified := strings.Cut(spec, ".")
	var obj types.Object
	if !qualified {
		obj = pass.Pkg.Scope().Lookup(spec)
	} else {
		for _, imp := range pass.Pkg.Imports() {
			if lastSegment(imp.Path()) == qual {
				obj = imp.Scope().Lookup(name)
				break
			}
		}
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return tn, st
}
