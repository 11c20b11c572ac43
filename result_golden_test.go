package repro

// Golden for the Result wire shape: json.Marshal(Result) of one small cell
// per result kind must be byte-stable. The store's record payload and the
// /v1/sweep NDJSON line are exactly this encoding, so a renamed, reordered
// or dropped field of BatchResult, BestOfKResult or TrafficResult — or of
// the MAC types they alias — shows here even where every numeric golden
// still passes. Regenerate with
//
//	go test -run TestResultJSONGolden -update .
//
// only alongside an intentional schema change (which also moves the
// fingerprint's schema version).

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestResultJSONGolden(t *testing.T) {
	beb := MustAlgorithm("BEB")
	cases := []struct {
		name string
		s    Scenario
	}{
		{"wifi-batch", Scenario{Model: WiFi(), Algorithm: beb, N: 6}},
		{"best-of-3", Scenario{Model: WiFi(), N: 6, Workload: BestOfKWorkload{K: 3}}},
		{"continuous-poisson", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("LLB"), N: 4,
			Workload: ContinuousWorkload{Arrivals: Poisson(400), Horizon: 10 * time.Millisecond}}},
		{"continuous-saturated", Scenario{Model: WiFi(), Algorithm: beb, N: 3,
			Workload: ContinuousWorkload{Arrivals: Saturated(), Horizon: 5 * time.Millisecond}}},
		{"abstract-batch", Scenario{Model: Abstract(), Algorithm: beb, N: 20}},
		{"tree", Scenario{Model: Abstract(), N: 20, Workload: TreeWorkload{}}},
	}
	var got bytes.Buffer
	for _, c := range cases {
		res := mustRun(t, c.s.WithOptions(WithSeed(7)))
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got.WriteString(c.name + " ")
		got.Write(b)
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", "result.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Result JSON diverged\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
