package serve

// Golden for the /v1/aggregate body: json.Marshal(EncodeReport(rep)) of a
// fixed quick sweep must be byte-stable (row order, float formatting, the
// abstract model's null total_time_us), so it pins both the wire shape
// and the Aggregate numbers behind it. Regenerate with
//
//	go test -run TestAggregateGolden -update ./internal/serve
//
// only alongside an intentional behavioural change.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestAggregateGolden(t *testing.T) {
	var scenarios []repro.Scenario
	for _, model := range []repro.Model{repro.Abstract(), repro.WiFi()} {
		for _, n := range []int{10, 20} {
			scenarios = append(scenarios, repro.Scenario{Model: model, Algorithm: repro.MustAlgorithm("BEB"), N: n})
		}
	}
	rep, err := (&repro.Engine{}).Aggregate(context.Background(), scenarios, []uint64{1, 2, 3, 4, 5},
		repro.MakespanSlots(), repro.TotalTime(), repro.CollisionRate())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(EncodeReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "aggregate_quick.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/v1/aggregate body diverged\ngot:\n%s\nwant:\n%s", got, want)
	}
}
