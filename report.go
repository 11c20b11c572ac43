package repro

// Report is the output of the aggregation pipeline; sinks render it. Three
// sinks ship: CSVSink (one row per scenario, stable column order), JSONLSink
// (one JSON object per line, metrics as an ordered array so output is
// byte-deterministic), and TableSink (the Table renderer of table.go that
// the figure regenerator uses, grouping scenarios into series over an x-axis).

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

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

// Summary returns the row's summary for the named metric, or false.
func (r Row) Summary(rep *Report, metric string) (PointSummary, bool) {
	for i, name := range rep.Metrics {
		if name == metric && i < len(r.Summaries) {
			return r.Summaries[i], true
		}
	}
	return PointSummary{}, false
}

// Sink renders a report somewhere: a file format, a terminal, a dashboard.
type Sink interface {
	Emit(r *Report) error
}

// fmtFloat renders floats with the shortest round-tripping decimal form, so
// report output is byte-deterministic across runs and platforms.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- CSV --------------------------------------------------------------------

// CSVSink writes one CSV row per scenario: identity columns first, then
// median/ci_lo/ci_hi/mean/trials/outliers per metric, in report order.
// Fields are quoted per RFC 4180 when needed (a metric name is caller
// input), so the output always parses back into aligned columns.
type CSVSink struct {
	W io.Writer
}

// Emit writes the header and every row.
func (s CSVSink) Emit(r *Report) error {
	w := csv.NewWriter(s.W)
	cols := []string{"scenario", "n", "failed"}
	for _, m := range r.Metrics {
		cols = append(cols, m+"_median", m+"_ci_lo", m+"_ci_hi", m+"_mean", m+"_trials", m+"_outliers")
	}
	if err := w.Write(cols); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{row.Label, strconv.Itoa(row.Scenario.N), strconv.Itoa(row.Failed)}
		for _, p := range row.Summaries {
			rec = append(rec,
				fmtFloat(p.Median), fmtFloat(p.CI95Lo), fmtFloat(p.CI95Hi),
				fmtFloat(p.Mean), strconv.Itoa(p.Trials), strconv.Itoa(p.Outliers))
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// --- JSON lines -------------------------------------------------------------

// JSONLSink writes one JSON object per scenario row. Metrics are an ordered
// array (not a map), so the byte stream is deterministic; non-finite floats
// are encoded as null, which encoding/json cannot represent otherwise.
type JSONLSink struct {
	W io.Writer
}

type jsonMetric struct {
	Name     string `json:"name"`
	Median   any    `json:"median"`
	CILo     any    `json:"ci_lo"`
	CIHi     any    `json:"ci_hi"`
	Mean     any    `json:"mean"`
	Trials   int    `json:"trials"`
	Outliers int    `json:"outliers"`
}

type jsonRow struct {
	Scenario string       `json:"scenario"`
	N        int          `json:"n"`
	Failed   int          `json:"failed,omitempty"`
	Error    string       `json:"error,omitempty"`
	Metrics  []jsonMetric `json:"metrics"`
}

// jsonFloat maps NaN/Inf to null for JSON encoding.
func jsonFloat(v float64) any {
	if !isFinite(v) {
		return nil
	}
	return v
}

// Emit writes every row as one line of JSON.
func (s JSONLSink) Emit(r *Report) error {
	enc := json.NewEncoder(s.W)
	for _, row := range r.Rows {
		jr := jsonRow{Scenario: row.Label, N: row.Scenario.N, Failed: row.Failed}
		if row.Err != nil {
			jr.Error = row.Err.Error()
		}
		for i, p := range row.Summaries {
			jr.Metrics = append(jr.Metrics, jsonMetric{
				Name:   r.Metrics[i],
				Median: jsonFloat(p.Median), CILo: jsonFloat(p.CI95Lo),
				CIHi: jsonFloat(p.CI95Hi), Mean: jsonFloat(p.Mean),
				Trials: p.Trials, Outliers: p.Outliers,
			})
		}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	return nil
}

// --- ASCII table ------------------------------------------------------------

// TableSink renders one metric of the report as a Table, the shape the
// figure regenerator prints: rows grouped into named series, one
// point per scenario, medians with their CIs. The zero-value accessors
// group by algorithm over the batch size — the shape of every paper figure.
type TableSink struct {
	W io.Writer
	// ID, Title, XLabel, YLabel annotate the rendered table.
	ID, Title, XLabel, YLabel string
	// Metric names the report column to render; empty means the first.
	Metric string
	// X maps a row to its x-coordinate; nil means the scenario's N.
	X func(Row) float64
	// Series maps a row to its series name; nil means the scenario's
	// algorithm (or its workload name when no algorithm applies).
	Series func(Row) string
	// Plot additionally renders the ASCII scatter under the table.
	Plot bool
}

// seriesName is TableSink's default row → series mapping.
func seriesName(r Row) string {
	if a := r.Scenario.Algorithm.String(); a != "" {
		return a
	}
	if r.Scenario.Workload != nil {
		return r.Scenario.Workload.workloadName()
	}
	return r.Label
}

// Emit renders the chosen metric as an aligned table (and optional plot).
func (s TableSink) Emit(r *Report) error {
	metric := s.Metric
	if metric == "" && len(r.Metrics) > 0 {
		metric = r.Metrics[0]
	}
	xOf, nameOf := s.X, s.Series
	if xOf == nil {
		xOf = func(row Row) float64 { return float64(row.Scenario.N) }
	}
	if nameOf == nil {
		nameOf = seriesName
	}
	tab := Table{ID: s.ID, Title: s.Title, XLabel: s.XLabel, YLabel: s.YLabel}
	if tab.XLabel == "" {
		tab.XLabel = "n"
	}
	for _, row := range r.Rows {
		p, ok := row.Summary(r, metric)
		if !ok {
			return fmt.Errorf("repro: report has no metric %q (have %v)", metric, r.Metrics)
		}
		name := nameOf(row)
		series := tab.SeriesByName(name)
		if series == nil {
			tab.Series = append(tab.Series, Series{Name: name})
			series = &tab.Series[len(tab.Series)-1]
		}
		series.Points = append(series.Points, Point{X: xOf(row), PointSummary: p})
	}
	if err := tab.WriteTable(s.W); err != nil {
		return err
	}
	if s.Plot {
		return tab.WritePlot(s.W, 78, 16)
	}
	return nil
}
