package experiments

// Bridge from figure definitions to the public aggregation pipeline. Every
// figure series is a grid of public Scenarios — one per x — swept through
// Engine.AggregateSeeded, so the figures share the engine's worker pool and
// the paper's one stats procedure (median, 95% CI, 1.5·IQR filter) with API
// users.
//
// The seed plumbing is the load-bearing part: the retired harness.SweepSpec
// path derived one RNG stream per (series, x, trial) from the label
// "<series>|x=<x>|trial=<t>" and fed it straight into the simulator. The
// scenarios here carry WithRawSeed, so the grid seed from legacySeeds — the
// same derived value — again reaches the simulator verbatim, making every
// trial, and therefore every figure, bit-identical across the migration
// (golden_test.go holds the pinned outputs).

import (
	"fmt"

	"repro"
	"repro/internal/rng"
)

// engine returns the config's sweep engine.
func (c Config) engine() *repro.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return &repro.Engine{}
}

// legacySeeds reproduces the legacy per-trial stream ladder of the series
// as a sweep-grid SeedFunc: cell (si, ti) gets the stream the old harness
// derived for point xs[si], trial ti.
func legacySeeds(seed uint64, name string, xs []float64) repro.SeedFunc {
	return func(si, ti int) uint64 {
		return rng.DeriveSeed(seed, fmt.Sprintf("%s|x=%v|trial=%d", name, xs[si], ti))
	}
}

// batchMetric lifts a BatchResult extractor into a public Metric. It
// applies to single-batch, tree, and best-of-k results alike.
func batchMetric(name string, f func(repro.BatchResult) float64) repro.Metric {
	return repro.Metric{Name: name, Extract: func(r repro.Result) float64 {
		if r.Batch != nil {
			return f(*r.Batch)
		}
		if r.BestOfK != nil {
			return f(r.BestOfK.BatchResult)
		}
		panic(fmt.Sprintf("experiments: metric %s on non-batch result", name))
	}}
}

// series sweeps one figure series — the Scenario build(x) at every x, with
// trials cells per point — through Engine.AggregateSeeded on the legacy
// seed ladder, and shapes the report into a repro.Series for rendering.
// Figure definitions are static, so any scenario error is a bug: it panics
// rather than returning a hollow table.
func (c Config) series(name string, xs []float64, trials int, m repro.Metric,
	build func(x float64) repro.Scenario) repro.Series {
	if trials < 1 {
		panic("experiments: series needs trials >= 1")
	}
	scenarios := make([]repro.Scenario, len(xs))
	for i, x := range xs {
		scenarios[i] = build(x).WithOptions(repro.WithRawSeed())
	}
	rep, err := c.engine().AggregateSeeded(c.ctx(), scenarios, trials,
		legacySeeds(c.Seed, name, xs), m)
	if err != nil {
		c.checkCancelled(err)
		panic(fmt.Sprintf("experiments: series %s: %v", name, err))
	}
	return reportSeries(name, xs, rep)
}

// reportSeries converts a one-metric report over an x-axis grid into a
// repro.Series.
func reportSeries(name string, xs []float64, rep *repro.Report) repro.Series {
	if len(rep.Rows) != len(xs) {
		panic(fmt.Sprintf("experiments: series %s: %d report rows for %d points", name, len(rep.Rows), len(xs)))
	}
	s := repro.Series{Name: name, Points: make([]repro.Point, len(xs))}
	for i, row := range rep.Rows {
		s.Points[i] = repro.Point{X: xs[i], PointSummary: row.Summaries[0]}
	}
	return s
}

// exactPoint is a zero-width point for a series computed rather than
// sampled: an analytic overlay, a reference line, a ratio of medians.
func exactPoint(x, v float64, trials int) repro.Point {
	return repro.Point{X: x, PointSummary: repro.PointSummary{Median: v, CI95Lo: v, CI95Hi: v, Mean: v, Trials: trials}}
}

// wholeConfig returns an option pinning the full MAC configuration, the way
// the legacy figure harness built each run's config directly.
func wholeConfig(cfg repro.MACConfig) repro.Option {
	return repro.WithConfig(func(m *repro.MACConfig) { *m = cfg })
}
