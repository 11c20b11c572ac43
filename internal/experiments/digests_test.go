package experiments

// Digests of every quick-fidelity artifact. TestFigureGoldens keeps six
// tables as readable CSVs; this test pins all 25 — every All() and Extras()
// generator at Quick(), plus the fig13 trace CSV — as one sha256sum-format
// file, so a stream or stats change anywhere in the figure code fails
// tier-1. cmd/figures -quick writes the same bytes, so
//
//	(cd <out> && sha256sum -c .../testdata/quick.digests)
//
// checks the binary against the same file. Regenerate with
//
//	go test ./internal/experiments -run TestQuickDigests -update
//
// only when an intentional behavioural change lands (and say so in
// CHANGES.md).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const digestsPath = "testdata/quick.digests"

// quickDigests renders every quick artifact and returns "<hex>  <id>.csv"
// lines sorted by file name, the layout sha256sum writes for *.csv.
func quickDigests(t *testing.T) []string {
	t.Helper()
	sums := map[string]string{} // file name -> hex digest
	add := func(id string, write func(io.Writer) error) {
		h := sha256.New()
		if err := write(h); err != nil {
			t.Fatalf("%s: WriteCSV: %v", id, err)
		}
		sums[id+".csv"] = fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, g := range append(All(), Extras()...) {
		add(g.ID, g.Run(Quick()).WriteCSV)
	}
	_, rec, err := RunTrace(context.Background(), Quick())
	if err != nil {
		t.Fatalf("fig13: %v", err)
	}
	add("fig13", rec.WriteCSV)
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, name := range names {
		lines[i] = sums[name] + "  " + name
	}
	return lines
}

func TestQuickDigests(t *testing.T) {
	got := quickDigests(t)
	body := []byte(strings.Join(got, "\n") + "\n")
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatalf("missing digests (run with -update): %v", err)
	}
	if bytes.Equal(body, want) {
		return
	}
	wantLines := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantLines[l] = true
	}
	for _, l := range got {
		if !wantLines[l] {
			t.Errorf("digest diverged: got %s", l)
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from the rendered artifacts in order or count", digestsPath)
	}
}
