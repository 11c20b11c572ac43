package repro

// Tests for the streaming aggregation layer: the Aggregator must reproduce
// the batch stats pipeline bit-for-bit (it is the same procedure, fed
// incrementally), Engine.Aggregate must honor mid-sweep cancellation, and
// the grouping discipline must reject out-of-order cells.

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// batchSummary is the non-streaming reference: the paper's procedure
// applied to the fully buffered sample.
func batchSummary(vals []float64, keepOutliers bool) PointSummary {
	kept, removed := vals, 0
	if !keepOutliers {
		kept, removed = stats.FilterOutliers(vals)
	}
	s := stats.Summarize(kept)
	return PointSummary{Median: s.Median, CI95Lo: s.MedianLo, CI95Hi: s.MedianHi,
		Mean: s.Mean, Outliers: removed, Trials: s.N}
}

// TestAggregatorMatchesBatchStats drives random samples of every size in
// 1..200 — with ties and injected outliers — through the streaming
// Aggregator and demands bit-identical output to the buffered
// FilterOutliers + Summarize reference, with the filter both on and off.
func TestAggregatorMatchesBatchStats(t *testing.T) {
	g := rng.New(7)
	for n := 1; n <= 200; n++ {
		vals := make([]float64, n)
		for i := range vals {
			v := g.Float64() * 100
			if g.Float64() < 0.4 {
				v = math.Floor(v) // ties
			}
			if g.Float64() < 0.05 {
				v *= 50 // outliers for the IQR filter to remove
			}
			vals[i] = v
		}
		for _, keep := range []bool{false, true} {
			agg := NewAggregator(Metric{Name: "v"})
			agg.KeepOutliers = keep
			for _, v := range vals {
				if err := agg.Observe(0, v); err != nil {
					t.Fatal(err)
				}
			}
			rep := agg.Finish()
			if len(rep.Rows) != 1 {
				t.Fatalf("n=%d: %d rows", n, len(rep.Rows))
			}
			got := rep.Rows[0].Summaries[0]
			want := batchSummary(vals, keep)
			if got != want {
				t.Fatalf("n=%d keep=%v: streaming %+v != batch %+v", n, keep, got, want)
			}
		}
	}
}

// TestAggregatorAllEqualSample pins the degenerate all-ties case: zero IQR,
// nothing filtered, CI collapsed onto the median.
func TestAggregatorAllEqualSample(t *testing.T) {
	for _, n := range []int{1, 2, 3, 50} {
		agg := NewAggregator(Metric{Name: "v"})
		for i := 0; i < n; i++ {
			if err := agg.Observe(0, 42); err != nil {
				t.Fatal(err)
			}
		}
		got := agg.Finish().Rows[0].Summaries[0]
		want := PointSummary{Median: 42, CI95Lo: 42, CI95Hi: 42, Mean: 42, Trials: n}
		if got != want {
			t.Fatalf("n=%d: %+v", n, got)
		}
	}
}

// TestAggregateMatchesSweep checks the end-to-end pipeline: Engine.Aggregate
// over a grid must equal the batch reference computed from the same grid's
// raw Sweep cells, metric by metric, scenario by scenario.
func TestAggregateMatchesSweep(t *testing.T) {
	scenarios := []Scenario{
		{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 40},
		{Model: WiFi(), Algorithm: MustAlgorithm("STB"), N: 25},
	}
	seeds := Seeds(3, 15)
	metrics := []Metric{MakespanSlots(), CollisionRate()}
	var eng Engine

	rep, err := eng.Aggregate(context.Background(), scenarios, seeds, metrics...)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([][][]float64, len(scenarios)) // [scenario][metric][trial]
	for i := range raw {
		raw[i] = make([][]float64, len(metrics))
	}
	for cell := range eng.Sweep(context.Background(), scenarios, seeds) {
		if cell.Err != nil {
			t.Fatal(cell.Err)
		}
		for mi, m := range metrics {
			raw[cell.ScenarioIndex][mi] = append(raw[cell.ScenarioIndex][mi], m.Extract(cell.Result))
		}
	}
	if len(rep.Rows) != len(scenarios) {
		t.Fatalf("%d rows for %d scenarios", len(rep.Rows), len(scenarios))
	}
	for si, row := range rep.Rows {
		if row.Label != scenarios[si].String() {
			t.Errorf("row %d label %q", si, row.Label)
		}
		for mi := range metrics {
			if got, want := row.Summaries[mi], batchSummary(raw[si][mi], false); got != want {
				t.Errorf("scenario %d metric %s: %+v != %+v", si, metrics[mi].Name, got, want)
			}
		}
	}
}

// TestAggregateHonorsCancellation cancels the context from inside the first
// cell's metric extraction — deterministically mid-sweep — and demands
// Engine.Aggregate abandon the grid with the context's error.
func TestAggregateHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scenarios := make([]Scenario, 4)
	for i, a := range PaperAlgorithmList() {
		scenarios[i] = Scenario{Model: Abstract(), Algorithm: a, N: 50}
	}
	tripwire := Metric{Name: "v", Extract: func(r Result) float64 {
		cancel()
		return float64(r.Batch.CWSlots)
	}}
	rep, err := (&Engine{}).Aggregate(ctx, scenarios, []uint64{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
		33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48,
		49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64,
	}, tripwire)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got report %v, err %v; want nil report and context.Canceled", rep, err)
	}
}

// TestAggregateReportsCellErrors: an invalid scenario must not halt the
// grid — its row records the failure while healthy scenarios aggregate —
// and the first error surfaces from Aggregate.
func TestAggregateReportsCellErrors(t *testing.T) {
	scenarios := []Scenario{
		{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 30},
		{Model: Abstract(), Algorithm: Algorithm{}, N: 30}, // invalid: zero algorithm
	}
	rep, err := (&Engine{}).Aggregate(context.Background(), scenarios, Seeds(1, 5), MakespanSlots())
	if err == nil {
		t.Fatal("expected the invalid scenario's error")
	}
	if rep == nil || len(rep.Rows) != 2 {
		t.Fatalf("report %+v", rep)
	}
	if s := rep.Rows[0].Summaries[0]; rep.Rows[0].Err != nil || s.Trials+s.Outliers != 5 {
		t.Fatalf("healthy row corrupted: %+v", rep.Rows[0])
	}
	bad := rep.Rows[1]
	if bad.Err == nil || bad.Failed != 5 || bad.Summaries[0].Trials != 0 {
		t.Fatalf("failing row: %+v", bad)
	}
	// A scenario with no data must summarize to NaN, never a fabricated 0.
	if s := bad.Summaries[0]; !math.IsNaN(s.Median) || !math.IsNaN(s.Mean) ||
		!math.IsNaN(s.CI95Lo) || !math.IsNaN(s.CI95Hi) {
		t.Fatalf("empty sample summarized to %+v, want NaN", s)
	}
}

// TestAggregatorRejectsOutOfOrderGroups pins the grouping contract Add and
// Observe rely on: once a group is finished its index cannot reappear.
func TestAggregatorRejectsOutOfOrderGroups(t *testing.T) {
	agg := NewAggregator(Metric{Name: "v"})
	if err := agg.Observe(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := agg.Observe(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := agg.Observe(2, 1); err == nil {
		t.Fatal("regressing group accepted")
	}
	if err := agg.Observe(0, 9, 9); err == nil {
		t.Fatal("wrong value arity accepted")
	}
}
