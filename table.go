package repro

// The rendered shape of a figure: series of PointSummaries over an x-axis,
// printed as an aligned table, a CSV, or an ASCII plot.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Point is one aggregated x-position of a series: the paper's summary of
// that position's trials.
type Point struct {
	X float64
	PointSummary
}

// Series is a named line in a figure.
type Series struct {
	Name   string
	Points []Point
}

// Value returns the median at x, or NaN if x is absent.
func (s Series) Value(x float64) float64 {
	if p := s.pointAt(x); p != nil {
		return p.Median
	}
	return math.NaN()
}

func (s Series) pointAt(x float64) *Point {
	for i := range s.Points {
		if s.Points[i].X == x {
			return &s.Points[i]
		}
	}
	return nil
}

// Table is a full figure or table: several series over a shared x-axis.
type Table struct {
	ID     string // e.g. "fig7"
	Title  string
	XLabel string
	Series []Series
	// Notes carries free-form findings (regression summaries, percent
	// deltas) printed with the table.
	Notes []string
}

// SeriesByName returns the named series, or nil.
func (t Table) SeriesByName(name string) *Series {
	for i := range t.Series {
		if t.Series[i].Name == name {
			return &t.Series[i]
		}
	}
	return nil
}

// PercentVsBaseline returns 100·(a−b)/b at the largest shared x, where b is
// the baseline series — the paper's headline percentage convention
// (baseline is always BEB).
func (t Table) PercentVsBaseline(series, baseline string) (float64, error) {
	a := t.SeriesByName(series)
	b := t.SeriesByName(baseline)
	if a == nil || b == nil || len(a.Points) == 0 || len(b.Points) == 0 {
		return 0, fmt.Errorf("repro: series %q or %q missing", series, baseline)
	}
	ax := a.Points[len(a.Points)-1]
	bx := b.Points[len(b.Points)-1]
	if ax.X != bx.X {
		return 0, fmt.Errorf("repro: series end at different x: %v vs %v", ax.X, bx.X)
	}
	return stats.PercentChange(ax.Median, bx.Median), nil
}

// WriteTable prints the table in aligned text form: one row per x, one
// column per series, with the 95% CI beside each median.
func (t Table) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(t.ID), t.Title); err != nil {
		return err
	}
	xs := t.xUnion()
	header := fmt.Sprintf("%10s", t.XLabel)
	for _, s := range t.Series {
		header += fmt.Sprintf("  %24s", s.Name+" (median [95% CI])")
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, x := range xs {
		row := fmt.Sprintf("%10g", x)
		for _, s := range t.Series {
			p := s.pointAt(x)
			if p == nil {
				row += fmt.Sprintf("  %24s", "-")
				continue
			}
			row += fmt.Sprintf("  %10.1f [%6.1f,%6.1f]", p.Median, p.CI95Lo, p.CI95Hi)
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits x plus median/lo/hi columns per series.
func (t Table) WriteCSV(w io.Writer) error {
	cols := []string{t.XLabel}
	for _, s := range t.Series {
		cols = append(cols, s.Name+"_median", s.Name+"_lo", s.Name+"_hi", s.Name+"_trials")
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, x := range t.xUnion() {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range t.Series {
			p := s.pointAt(x)
			if p == nil {
				row = append(row, "", "", "", "")
				continue
			}
			row = append(row,
				fmt.Sprintf("%g", p.Median), fmt.Sprintf("%g", p.CI95Lo),
				fmt.Sprintf("%g", p.CI95Hi), fmt.Sprintf("%d", p.Trials))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WritePlot renders a crude ASCII scatter of the series medians, one marker
// character per series, for a quick visual check of figure shapes.
// Non-finite medians (an all-failed point, a metric that does not apply)
// get no marker and do not stretch the y-range.
func (t Table) WritePlot(w io.Writer, width, height int) error {
	if width < 20 {
		width = 72
	}
	if height < 5 {
		height = 20
	}
	xs := t.xUnion()
	if len(xs) == 0 {
		_, err := fmt.Fprintln(w, "(no data)")
		return err
	}
	minX, maxX := xs[0], xs[len(xs)-1]
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range t.Series {
		for _, p := range s.Points {
			if isFinite(p.Median) {
				minY = math.Min(minY, p.Median)
				maxY = math.Max(maxY, p.Median)
			}
		}
	}
	if minY > maxY { // no finite median at all
		minY, maxY = 0, 0
	}
	if minY == maxY {
		maxY = minY + 1
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	markers := []rune{'B', 'l', 'L', 'S', 'o', '+', '#', '@'}
	for si, s := range t.Series {
		m := markers[si%len(markers)]
		for _, p := range s.Points {
			if !isFinite(p.Median) {
				continue
			}
			var cx int
			if maxX > minX {
				cx = int((p.X - minX) / (maxX - minX) * float64(width-1))
			}
			cy := height - 1 - int((p.Median-minY)/(maxY-minY)*float64(height-1))
			if cx >= 0 && cx < width && cy >= 0 && cy < height {
				grid[cy][cx] = m
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s — %s  [y: %.3g..%.3g]\n", strings.ToUpper(t.ID), t.Title, minY, maxY); err != nil {
		return err
	}
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "|%s|\n", string(row)); err != nil {
			return err
		}
	}
	legend := make([]string, 0, len(t.Series))
	for si, s := range t.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", markers[si%len(markers)], s.Name))
	}
	_, err := fmt.Fprintf(w, " x: %g..%g %s   %s\n", minX, maxX, t.XLabel, strings.Join(legend, " "))
	return err
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (t Table) xUnion() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}
