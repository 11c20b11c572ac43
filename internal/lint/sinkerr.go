package lint

// sinkerr flags discarded errors on result-bearing sinks. A dropped error
// from a table writer or the store log's Put means a figure or cached
// record silently went missing — the sweep "succeeds" with a hole in its output — and a
// dropped Close on a file being written loses the final flush. The
// sanctioned discard is an explicit `_ = f.Close()` (visible, greppable,
// reviewable); a bare expression statement or a naked `defer f.Close()`
// is the accident this analyzer exists to catch.

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// SinkErr flags discarded errors from Write, Put, Close and the other
// result-bearing sink methods.
var SinkErr = &analysis.Analyzer{
	Name: "sinkerr",
	Run:  runSinkErr,
}

// sinkerrMethods names the error-returning methods whose results must be
// consumed (or explicitly discarded with `_ =`).
var sinkerrMethods = "Close,Write,WriteString,Put,Emit,Flush,Sync"

func init() {
	SinkErr.Flags.StringVar(&sinkerrMethods, "methods", sinkerrMethods,
		"comma-separated method names whose returned error must not be silently dropped")
}

// sinkerrExemptPkgs defines methods whose errors are vacuous by contract:
// the stdlib documents these Write/WriteString implementations as always
// returning nil.
var sinkerrExemptPkgs = map[string]bool{
	"strings": true, "bytes": true, "hash": true,
	"hash/crc32": true, "hash/crc64": true, "hash/adler32": true,
	"hash/fnv": true, "hash/maphash": true,
}

func runSinkErr(pass *analysis.Pass) (any, error) {
	methods := splitList(sinkerrMethods)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			var how string
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
				how = "discarded"
			case *ast.DeferStmt:
				call = n.Call
				how = "discarded by defer"
			case *ast.GoStmt:
				call = n.Call
				how = "discarded by go"
			default:
				return true
			}
			if call == nil {
				return true
			}
			name, ok := sinkCall(pass.TypesInfo, call, methods)
			if !ok {
				return true
			}
			pass.Reportf(call.Pos(), "sinkerr: error from %s %s; a dropped sink error means silently "+
				"missing output — handle it, or discard explicitly with `_ = ...%s` and a reason", name, how, name)
			return true
		})
	}
	return nil, nil
}

// sinkCall reports whether call invokes a watched method that returns an
// error, excluding the vacuous-error stdlib implementations.
func sinkCall(info *types.Info, call *ast.CallExpr, methods []string) (string, bool) {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	watched := false
	for _, m := range methods {
		if se.Sel.Name == m {
			watched = true
		}
	}
	if !watched {
		return "", false
	}
	fn, ok := info.Uses[se.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	if pkg := fn.Pkg(); pkg != nil && sinkerrExemptPkgs[pkg.Path()] {
		return "", false
	}
	// Exempt by the receiver too: a *strings.Builder method, or a value
	// whose static type lives in an exempt package (hash.Hash64's Write
	// resolves to io.Writer.Write, so fn.Pkg() alone misses it).
	if sig, ok := fn.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			if tn := namedOf(recv.Type()); tn != nil && tn.Pkg() != nil && sinkerrExemptPkgs[tn.Pkg().Path()] {
				return "", false
			}
		}
		if !returnsError(sig) {
			return "", false
		}
	}
	if tv, ok := info.Types[se.X]; ok && tv.Type != nil {
		if tn := namedOf(tv.Type); tn != nil && tn.Pkg() != nil && sinkerrExemptPkgs[tn.Pkg().Path()] {
			return "", false
		}
	}
	return fn.Name() + "()", true
}

// returnsError reports whether any result of sig is of type error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if n, ok := types.Unalias(res.At(i).Type()).(*types.Named); ok {
			if n.Obj().Name() == "error" && n.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}
