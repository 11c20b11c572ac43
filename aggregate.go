package repro

// Streaming aggregation of sweep grids. The paper reports every figure as
// per-point medians with 95% confidence intervals after a 1.5·IQR outlier
// filter (Section III-A); this file promotes that procedure from
// internal/stats to the public API so sweeps of any trial count can be
// summarized without buffering whole grids. Metric extracts a scalar per
// Result, Aggregator folds cells scenario by scenario as they stream out of
// Engine.Sweep, and Engine.Aggregate ties the two to the worker pool and
// returns a Report, which cmd/figures renders as a Table and
// internal/serve as the /v1/aggregate body.

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/stats"
)

// durUS converts a duration to float microseconds, the paper's plotting
// unit for every time-valued figure.
func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Metric extracts one scalar measurement from a Result. Extract should
// return NaN when the metric does not apply to the result's workload or
// model; NaN observations are summarized as such rather than dropped, so a
// mismatched metric is visible in the report instead of silently absent.
type Metric struct {
	// Name is the stable identifier used for report columns.
	Name string
	// Extract returns the measurement.
	Extract func(Result) float64
}

// batchOf returns the result's batch-shaped view: the BatchResult itself
// for single-batch and tree runs, the embedded one for best-of-k.
func batchOf(r Result) *BatchResult {
	if r.Batch != nil {
		return r.Batch
	}
	if r.BestOfK != nil {
		return &r.BestOfK.BatchResult
	}
	return nil
}

// MakespanSlots measures the contention-window slots consumed to clear the
// batch — the cost the algorithmic literature optimizes (Figures 3–5).
func MakespanSlots() Metric {
	return Metric{Name: "cw_slots", Extract: func(r Result) float64 {
		if b := batchOf(r); b != nil {
			return float64(b.CWSlots)
		}
		return math.NaN()
	}}
}

// TotalTime measures wall-clock channel time in microseconds until the last
// packet finished — the cost the paper shows is mis-priced (Figures 7–10).
// NaN under the abstract model, which has no notion of real time.
func TotalTime() Metric {
	return Metric{Name: "total_time_us", Extract: func(r Result) float64 {
		b := batchOf(r)
		if b == nil || b.Model != "wifi" {
			return math.NaN()
		}
		return durUS(b.TotalTime)
	}}
}

// CollisionRate measures disjoint collisions per station (the paper's C_A/n,
// Table III's empirical check of the Section IV bounds).
func CollisionRate() Metric {
	return Metric{Name: "collision_rate", Extract: func(r Result) float64 {
		b := batchOf(r)
		if b == nil || b.N == 0 {
			return math.NaN()
		}
		return float64(b.Collisions) / float64(b.N)
	}}
}

// CollisionCount measures the number of disjoint collisions.
func CollisionCount() Metric {
	return Metric{Name: "collisions", Extract: func(r Result) float64 {
		if b := batchOf(r); b != nil {
			return float64(b.Collisions)
		}
		return math.NaN()
	}}
}

// ThroughputMbps measures delivered payload throughput of a
// continuous-traffic run.
func ThroughputMbps() Metric {
	return Metric{Name: "throughput_mbps", Extract: func(r Result) float64 {
		if r.Traffic == nil {
			return math.NaN()
		}
		return r.Traffic.ThroughputMbps
	}}
}

// MetricByName resolves a built-in metric by its report-column name — the
// wire-side inverse of Metric.Name, used by serving layers that receive
// metric selections as strings. MetricNames lists the valid names.
func MetricByName(name string) (Metric, bool) {
	for _, m := range builtinMetrics() {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// MetricNames returns the names of every built-in metric, in presentation
// order.
func MetricNames() []string {
	ms := builtinMetrics()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

// builtinMetrics lists every built-in metric constructor's value, in the
// order MetricNames presents.
func builtinMetrics() []Metric {
	return []Metric{
		MakespanSlots(), TotalTime(), CollisionRate(), CollisionCount(), ThroughputMbps(),
	}
}

// PointSummary is the paper's aggregate of one scenario's trials for one
// metric: the median with its distribution-free 95% confidence interval,
// computed after discarding points farther than 1.5·IQR from the median.
type PointSummary struct {
	Median float64
	CI95Lo float64
	CI95Hi float64
	Mean   float64
	// Outliers counts trials the 1.5·IQR filter removed.
	Outliers int
	// Trials counts trials kept (the sample size behind the summary).
	Trials int
}

// summarizePoint applies the paper's procedure to one group's sample. An
// empty sample (every cell errored) summarizes to NaN, not zero — the same
// not-applicable convention metrics use — so a scenario with no data can
// never be mistaken for a measured 0.
func summarizePoint(vals []float64, keepOutliers bool) PointSummary {
	if len(vals) == 0 {
		nan := math.NaN()
		return PointSummary{Median: nan, CI95Lo: nan, CI95Hi: nan, Mean: nan}
	}
	kept, removed := vals, 0
	if !keepOutliers {
		kept, removed = stats.FilterOutliers(vals)
	}
	s := stats.Summarize(kept)
	return PointSummary{
		Median:   s.Median,
		CI95Lo:   s.MedianLo,
		CI95Hi:   s.MedianHi,
		Mean:     s.Mean,
		Outliers: removed,
		Trials:   s.N,
	}
}

// Report holds one aggregated sweep: per-scenario rows of per-metric
// summaries, with Metrics naming the columns in order.
type Report struct {
	// Metrics holds the metric names, in the column order every row's
	// Summaries follows.
	Metrics []string
	// Rows holds one entry per scenario group, in sweep (input) order.
	Rows []Row
}

// Row is one scenario's aggregate.
type Row struct {
	// Group is the scenario's index in the swept grid (or the caller's
	// group key when the Aggregator was fed through Observe).
	Group int
	// Scenario is the swept scenario; the zero value when the aggregator
	// was fed values without a grid.
	Scenario Scenario
	// Label is the scenario's identity string, e.g.
	// "wifi/BEB/n=150/single-batch".
	Label string
	// Summaries holds one PointSummary per report metric, in column order.
	Summaries []PointSummary
	// Failed counts cells that errored instead of contributing a trial,
	// and Err keeps the first such error.
	Failed int
	Err    error
}

// Aggregator folds a stream of sweep cells into per-scenario PointSummaries,
// one per metric. It relies on Engine.Sweep's stable order — all trials of a
// scenario arrive contiguously — so it only ever buffers one scenario's
// trial values, never the grid: memory is O(metrics × trials) at any trial
// count.
//
// Feed it with Add (cells) or Observe (pre-extracted values, for derived
// metrics such as paired differences), then call Finish. The zero value is
// not ready; use NewAggregator.
type Aggregator struct {
	// KeepOutliers disables the paper's 1.5·IQR filter (set it before the
	// first Add/Observe). Figure 14 keeps the raw scatter, for example.
	KeepOutliers bool

	metrics []Metric
	started bool
	group   int
	vals    [][]float64 // per metric, current group's trials
	failed  int
	err     error
	rows    []Row
}

// NewAggregator returns an Aggregator summarizing the given metrics, in
// column order. It panics without metrics — an aggregation with nothing to
// measure is a programming error.
func NewAggregator(metrics ...Metric) *Aggregator {
	if len(metrics) == 0 {
		panic("repro: NewAggregator needs at least one Metric")
	}
	a := &Aggregator{metrics: metrics, vals: make([][]float64, len(metrics))}
	for i := range a.vals {
		a.vals[i] = make([]float64, 0, 16)
	}
	return a
}

// Add folds one sweep cell into the cell's scenario group. Cells must
// arrive grouped by scenario with non-decreasing indices (Engine.Sweep's
// stable order guarantees this); a cell for an earlier group returns an
// error and is discarded. Cells carrying an error count toward the group's
// Failed total instead of its sample.
func (a *Aggregator) Add(c Cell) error {
	if err := a.enter(c.ScenarioIndex); err != nil {
		return err
	}
	if c.Err != nil {
		a.failed++
		if a.err == nil {
			a.err = c.Err
		}
		return nil
	}
	for i, m := range a.metrics {
		a.vals[i] = append(a.vals[i], m.Extract(c.Result))
	}
	return nil
}

// Observe folds one trial's pre-extracted measurements into group; values
// must carry one value per metric, in metric order. It is the entry point
// for derived metrics no single Result exposes (per-trial differences
// between paired scenarios, say). The same grouping discipline as Add
// applies.
func (a *Aggregator) Observe(group int, values ...float64) error {
	if len(values) != len(a.metrics) {
		return fmt.Errorf("repro: Observe got %d values for %d metrics", len(values), len(a.metrics))
	}
	if err := a.enter(group); err != nil {
		return err
	}
	for i, v := range values {
		a.vals[i] = append(a.vals[i], v)
	}
	return nil
}

// enter switches to the given group, flushing finished ones.
func (a *Aggregator) enter(group int) error {
	if !a.started {
		a.started = true
		a.group = group
		return nil
	}
	if group < a.group {
		return fmt.Errorf("repro: aggregator got group %d after group %d; cells must arrive in sweep order", group, a.group)
	}
	for a.group < group {
		a.flush()
		a.group++
	}
	return nil
}

// flush summarizes the current group into a row and resets the buffers.
func (a *Aggregator) flush() {
	row := Row{Group: a.group, Failed: a.failed, Err: a.err,
		Summaries: make([]PointSummary, len(a.metrics))}
	for i, vals := range a.vals {
		row.Summaries[i] = summarizePoint(vals, a.KeepOutliers)
		a.vals[i] = a.vals[i][:0]
	}
	a.failed, a.err = 0, nil
	a.rows = append(a.rows, row)
}

// Finish summarizes the last open group and returns the report. The
// aggregator is spent afterwards; build a new one per sweep.
func (a *Aggregator) Finish() *Report {
	if a.started {
		a.flush()
		a.started = false
	}
	names := make([]string, len(a.metrics))
	for i, m := range a.metrics {
		names[i] = m.Name
	}
	rep := &Report{Metrics: names, Rows: a.rows}
	a.rows = nil
	return rep
}

// Aggregate sweeps the scenario × seed grid across the worker pool and
// summarizes every scenario's trials per metric the way the paper reports
// its figures: median and 95% CI after the 1.5·IQR outlier filter. It is
// Engine.Sweep composed with an Aggregator, so results are bit-identical to
// a serial run of the same grid.
//
// The report is grouped per scenario, in input order, and labelled with each
// scenario's identity. Cancelling ctx abandons the sweep and returns
// ctx.Err(); a cell-level failure (an invalid scenario, say) does not stop
// the sweep but is reported on its row and as the returned error.
//
// With a Store attached to the engine, cells already persisted replay
// instead of simulating (see Engine.Store); a fully warm grid aggregates to
// a bit-identical Report while invoking the simulator zero times.
func (e *Engine) Aggregate(ctx context.Context, scenarios []Scenario, seeds []uint64, metrics ...Metric) (*Report, error) {
	agg := NewAggregator(metrics...)
	for cell := range e.Sweep(ctx, scenarios, seeds) {
		if err := agg.Add(cell); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := agg.Finish()
	var firstErr error
	for i := range rep.Rows {
		r := &rep.Rows[i]
		if r.Group >= 0 && r.Group < len(scenarios) {
			r.Scenario = scenarios[r.Group]
			r.Label = scenarios[r.Group].String()
		}
		if firstErr == nil && r.Err != nil {
			firstErr = fmt.Errorf("repro: %s: %w", r.Label, r.Err)
		}
	}
	return rep, firstErr
}
