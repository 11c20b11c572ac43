package lint_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/loader"
)

// Each analyzer is exercised against positive and negative fixtures under
// testdata/src; a fixture line with a `// want` comment must produce a
// matching diagnostic, so these tests fail if an analyzer stops firing.

func TestNoDeterm(t *testing.T) {
	// Point the sim-package list at the fixture so check 1 engages there;
	// the map-order check applies to every package regardless.
	analysistest.SetFlag(t, lint.NoDeterm, "pkgs", "nodeterm/sim")
	analysistest.Run(t, analysistest.TestData(t), lint.NoDeterm, "nodeterm/sim", "nodeterm/order")
}

func TestSeedLint(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lint.SeedLint, "seedlint")
}

func TestSeedLintExemptPackage(t *testing.T) {
	// The same fixture goes silent when its package is exempted, the way
	// repro/internal/rng is by default.
	analysistest.SetFlag(t, lint.SeedLint, "exempt", "seedlint")
	pkgs, err := loader.Fixtures(filepath.Join(analysistest.TestData(t), "src"), "seedlint")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		diags, err := analysis.RunAnalyzers(analysis.Unit{
			Fset: p.Fset, Files: p.Files, Pkg: p.Pkg, Info: p.Info,
		}, []*analysis.Analyzer{lint.SeedLint})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("exempt package still diagnosed: %s", d.Message)
		}
	}
}

func TestFPGuard(t *testing.T) {
	analysistest.SetFlag(t, lint.FPGuard, "structs", "Scenario,knobs.Config")
	analysistest.Run(t, analysistest.TestData(t), lint.FPGuard, "fpguard", "fpguard/ok")
}

func TestCtxLoop(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lint.CtxLoop, "ctxloop")
}

func TestSinkErr(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lint.SinkErr, "sinkerr")
}

func TestObsGuard(t *testing.T) {
	// Span APIs are banned only in the configured simulation packages; the
	// engine fixture uses the same APIs with no findings.
	analysistest.SetFlag(t, lint.ObsGuard, "pkgs", "obsguard/sim")
	analysistest.SetFlag(t, lint.ObsGuard, "obs", "obsguard/obs")
	analysistest.Run(t, analysistest.TestData(t), lint.ObsGuard, "obsguard/sim", "obsguard/engine")
}

// TestSuiteCleanOnModule is the meta-test: the whole module must be free
// of findings, so a regression anywhere in the tree fails `go test` even
// before CI's vet step runs.
func TestSuiteCleanOnModule(t *testing.T) {
	pkgs := loadModule(t)
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, p := range pkgs {
		diags, err := analysis.RunAnalyzers(analysis.Unit{
			Fset: p.Fset, Files: p.Files, Pkg: p.Pkg, Info: p.Info,
		}, lint.All())
		if err != nil {
			t.Fatalf("%s: %v", p.Path, err)
		}
		for _, d := range diags {
			pos := p.Fset.Position(d.Pos)
			t.Errorf("%s:%d:%d: %s", pos.Filename, pos.Line, pos.Column, d.Message)
		}
	}
}

// TestVettool builds cmd/replint and runs it through the real `go vet
// -vettool` protocol over the module, asserting a clean pass — the exact
// invocation CI uses.
func TestVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and vets the whole module")
	}
	root, err := loader.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "replint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/replint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building replint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	var stderr bytes.Buffer
	vet.Stderr = &stderr
	vet.Stdout = os.Stdout
	if err := vet.Run(); err != nil {
		t.Fatalf("go vet -vettool failed: %v\n%s", err, stderr.String())
	}
}
