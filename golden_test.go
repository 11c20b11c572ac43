package repro

// Golden regression tests: exact outcomes for pinned seeds. The RNG,
// stream-derivation labels, and both simulators are fully deterministic, so
// any diff here means an intentional behavioural change — update the values
// together with DESIGN.md/EXPERIMENTS.md when that happens — or an
// accidental one, which this file exists to catch.

import (
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/slotted"
)

func TestGoldenWiFiBatch(t *testing.T) {
	want := map[string]struct {
		total      time.Duration
		cwSlots    int
		collisions int
	}{
		"BEB": {7440 * time.Microsecond, 187, 22},
		"LB":  {8589 * time.Microsecond, 163, 36},
		"LLB": {7093 * time.Microsecond, 104, 25},
		"STB": {8308 * time.Microsecond, 83, 40},
	}
	for algo, w := range want {
		res := runBatch(t, WiFi(), algo, 30, WithSeed(42))
		if res.TotalTime != w.total || res.CWSlots != w.cwSlots || res.Collisions != w.collisions {
			t.Errorf("%s: got (total %v, cw %d, coll %d), want (%v, %d, %d)",
				algo, res.TotalTime, res.CWSlots, res.Collisions, w.total, w.cwSlots, w.collisions)
		}
	}
}

func TestGoldenAbstractBatch(t *testing.T) {
	want := map[string]struct{ cwSlots, collisions int }{
		"BEB": {115, 21},
		"LB":  {121, 43},
		"LLB": {130, 39},
		"STB": {111, 53},
	}
	for algo, w := range want {
		res := runBatch(t, Abstract(), algo, 30, WithSeed(42))
		if res.CWSlots != w.cwSlots || res.Collisions != w.collisions {
			t.Errorf("%s: got (cw %d, coll %d), want (%d, %d)",
				algo, res.CWSlots, res.Collisions, w.cwSlots, w.collisions)
		}
	}
}

// TestGoldenAbstractLargeN pins the aligned abstract kernel where the
// paper's asymptotic argument lives (Figures 5, 15, 16; Table III), plus
// the registry's fixed and polynomial schedules and tree splitting.
func TestGoldenAbstractLargeN(t *testing.T) {
	for _, w := range []struct {
		algo                           string
		n, cwSlots, collisions, atHalf int
	}{
		{"BEB", 1000, 8048, 1029, 1978},
		{"BEB", 10000, 130136, 10278, 20761},
		{"LB", 1000, 6157, 3183, 3743},
		{"LB", 10000, 75712, 42109, 47110},
		{"LLB", 1000, 6716, 1827, 2555},
		{"LLB", 10000, 71778, 20574, 27634},
		{"STB", 1000, 7144, 2327, 2967},
		{"STB", 10000, 63236, 22696, 27210},
		{"FIXED:8", 30, 150, 96, 102},
		{"POLY:2", 30, 138, 28, 52},
	} {
		res := runBatch(t, Abstract(), w.algo, w.n, WithSeed(42))
		if res.CWSlots != w.cwSlots || res.Collisions != w.collisions || res.CWSlotsAtHalf != w.atHalf {
			t.Errorf("%s n=%d: got (cw %d, coll %d, cw@half %d), want (%d, %d, %d)", w.algo, w.n,
				res.CWSlots, res.Collisions, res.CWSlotsAtHalf, w.cwSlots, w.collisions, w.atHalf)
		}
	}
	tree := *mustRun(t, Scenario{Model: Abstract(), N: 100000, Workload: TreeWorkload{},
		Options: []Option{WithSeed(42)}}).Batch
	if tree.CWSlots != 288697 || tree.Collisions != 144348 || tree.CWSlotsAtHalf != 144323 {
		t.Errorf("TREE n=1e5: got (cw %d, coll %d, cw@half %d), want (288697, 144348, 144323)",
			tree.CWSlots, tree.Collisions, tree.CWSlotsAtHalf)
	}
}

func TestGoldenAbstractUnalignedBatch(t *testing.T) {
	want := map[string]struct{ cwSlots, collisions, cwAtHalf int }{
		"BEB": {241, 27, 48},
		"LB":  {162, 47, 70},
		"LLB": {164, 34, 59},
		"STB": {164, 60, 75},
	}
	for algo, w := range want {
		res := runBatch(t, AbstractUnaligned(), algo, 30, WithSeed(42))
		if res.CWSlots != w.cwSlots || res.Collisions != w.collisions || res.CWSlotsAtHalf != w.cwAtHalf {
			t.Errorf("%s: got (cw %d, coll %d, cw@half %d), want (%d, %d, %d)",
				algo, res.CWSlots, res.Collisions, res.CWSlotsAtHalf, w.cwSlots, w.collisions, w.cwAtHalf)
		}
	}
}

func TestGoldenBestOfK(t *testing.T) {
	res := mustRun(t, Scenario{Model: WiFi(), N: 30, Workload: BestOfKWorkload{K: 3},
		Options: []Option{WithSeed(42)}}).BestOfK
	if res.TotalTime != 6582*time.Microsecond || res.MedianEstimate != 32 {
		t.Errorf("best-of-3: got (total %v, est %d), want (6.582ms, 32)",
			res.TotalTime, res.MedianEstimate)
	}
}

func TestGoldenTreeBatch(t *testing.T) {
	res := slotted.RunTreeBatch(100, rng.New(42))
	if res.CWSlots != 267 || res.Collisions != 133 {
		t.Errorf("tree: got (cw %d, coll %d), want (267, 133)", res.CWSlots, res.Collisions)
	}
}

func TestGoldenSmallLLBRun(t *testing.T) {
	res := mac.RunBatch(mac.DefaultConfig(), 10, backoff.NewLLB, rng.New(9), nil)
	if res.TotalTime != 2488*time.Microsecond || res.CWSlots != 37 {
		t.Errorf("LLB n=10: got (total %v, cw %d), want (2.488ms, 37)", res.TotalTime, res.CWSlots)
	}
}
