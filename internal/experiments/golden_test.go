package experiments

// Figure-output regression goldens. The testdata CSVs were captured from the
// pre-Engine.Aggregate figure code (the SweepSpec path); the migration onto the
// public Scenario grid + Engine.Aggregate pipeline is required to reproduce
// them byte-for-byte, which pins the per-trial RNG streams, the outlier
// filter, and the median-CI procedure across the refactor. Regenerate with
//
//	go test ./internal/experiments -run TestFigureGoldens -update
//
// only when an intentional behavioural change lands (and say so in CHANGES.md).

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "rewrite figure golden files")

// goldenCases pins quick-config figure outputs. tab3's axis starts at n=512,
// above Quick's NMax, so it gets its own reduced grid; fig18 and fig19 cover
// the MAC's best-of-k driver and tput its continuous-traffic driver, the
// latter on fewer trials because saturated runs are the slowest cells.
func goldenCases() []struct {
	name string
	tab  repro.Table
} {
	return []struct {
		name string
		tab  repro.Table
	}{
		{"fig3_quick", figure3(Quick())},
		{"fig7_quick", figure7(Quick())},
		{"tab3_quick", tableIII(Config{Trials: 5, NMax: 2048, Seed: 1})},
		{"fig18_quick", figure18(Quick())},
		{"fig19_quick", figure19(Quick())},
		{"tput_quick", saturatedThroughputTable(Config{Trials: 3, NMax: 35, NStep: 25, Seed: 1})},
	}
}

func TestFigureGoldens(t *testing.T) {
	for _, c := range goldenCases() {
		var buf bytes.Buffer
		if err := c.tab.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: WriteCSV: %v", c.name, err)
		}
		path := filepath.Join("testdata", c.name+".golden.csv")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update): %v", c.name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: output diverged from golden\ngot:\n%s\nwant:\n%s",
				c.name, buf.Bytes(), want)
		}
	}
}
