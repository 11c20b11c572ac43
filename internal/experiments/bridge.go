package experiments

// Bridge from figure definitions to the public aggregation pipeline. Every
// figure series is a list of public Scenarios — one per (x, trial) — run
// through Engine.RunMany and folded into a repro.Aggregator, so the figures
// share the engine's worker pool, store and the paper's one stats procedure
// (median, 95% CI, 1.5·IQR filter) with API users.
//
// Seeding: trial t at point x of series name runs on the RNG stream
// rng.DeriveSeed(Config.Seed, "<name>|x=<x>|trial=<t>") — trialSeed. Each
// scenario carries WithRawSeed plus WithSeed(trialSeed(...)), so that stream
// reaches the simulator verbatim instead of being re-derived per (model,
// algorithm, n). The figure goldens (golden_test.go) and quick.digests
// (digests_test.go) pin these labels.

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

// trialSeed is the RNG stream of trial t at point x of the named series.
func trialSeed(seed uint64, name string, x float64, t int) uint64 {
	return rng.DeriveSeed(seed, fmt.Sprintf("%s|x=%v|trial=%d", name, x, t))
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

// series runs one figure series — the Scenario build(x) at every x, with
// trials cells per point, each on its trialSeed stream — and summarizes each
// point's trials in trial order into a repro.Series for rendering. Figure
// definitions are static, so any scenario error is a bug: it panics rather
// than returning a hollow table.
func (c Config) series(name string, xs []float64, trials int, m repro.Metric,
	build func(x float64) repro.Scenario) repro.Series {
	if trials < 1 {
		panic("experiments: series needs trials >= 1")
	}
	scenarios := make([]repro.Scenario, 0, len(xs)*trials)
	for _, x := range xs {
		sc := build(x)
		for t := 0; t < trials; t++ {
			scenarios = append(scenarios,
				sc.WithOptions(repro.WithRawSeed(), repro.WithSeed(trialSeed(c.Seed, name, x, t))))
		}
	}
	results := c.runMany("series "+name, scenarios)
	agg := repro.NewAggregator(m)
	for i, r := range results {
		if err := agg.Observe(i/trials, m.Extract(r)); err != nil {
			panic(err)
		}
	}
	return reportSeries(name, xs, agg.Finish())
}

// runMany runs a figure's scenarios through the engine in one batch,
// turning a cancellation into the cancelled sentinel and any other error
// (labelled with what) into a panic.
func (c Config) runMany(what string, scenarios []repro.Scenario) []repro.Result {
	results, err := c.engine().RunMany(c.ctx(), scenarios)
	if err != nil {
		c.checkCancelled(err)
		panic(fmt.Sprintf("experiments: %s: %v", what, err))
	}
	return results
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

// wholeConfig returns an option pinning the full MAC configuration a figure
// builds, replacing the engine's defaults wholesale.
func wholeConfig(cfg repro.MACConfig) repro.Option {
	return repro.WithConfig(func(m *repro.MACConfig) { *m = cfg })
}
